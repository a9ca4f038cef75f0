"""XOR key algebra.

The layered DELTA instantiation of §3.1.1 defines every key as the XOR of
a set of per-packet nonces: the *top key* of level ``g`` is the XOR of the
component fields of all packets of groups ``1..g`` (Equation 3), and the
*increase key* of group ``m`` is the XOR of the components of groups
``1..m-1`` (Equation 5).

This module provides the small, well-tested algebra those definitions need:
folding a sequence of components into a key, and incremental accumulators
for senders that learn the packet count only at the end of a slot.  XOR is
self-inverse and associative, which is what gives DELTA its "must have
received every packet" semantics: missing any one component leaves the
receiver with a value that is uniformly random relative to the true key.
"""

from __future__ import annotations

from functools import reduce
from typing import Iterable

__all__ = ["xor_fold", "KeyAccumulator"]


def xor_fold(components: Iterable[int]) -> int:
    """XOR all ``components`` together; the empty sequence folds to 0."""
    return reduce(lambda a, b: a ^ b, components, 0)


class KeyAccumulator:
    """Incrementally XOR-accumulates components as packets are generated.

    The sender-side algorithm in Figure 4 of the paper pre-computes the key
    for a group *before* it knows how many packets the group will carry, then
    emits random components for every packet except the last and makes the
    last component "close the sum" so the XOR of all emitted components
    equals the pre-computed key.  ``KeyAccumulator`` implements exactly that
    dance:

    >>> acc = KeyAccumulator(target_key=0x1234, bits=16)
    >>> c1 = acc.emit_component(0x0F0F)
    >>> c2 = acc.emit_component(0x00FF)
    >>> last = acc.closing_component()
    >>> c1 ^ c2 ^ last == 0x1234
    True
    """

    def __init__(self, target_key: int, bits: int) -> None:
        if bits <= 0:
            raise ValueError("bits must be positive")
        mask = (1 << bits) - 1
        if not (0 <= target_key <= mask):
            raise ValueError(f"target key {target_key:#x} does not fit in {bits} bits")
        self.bits = bits
        self._mask = mask
        self.target_key = target_key
        self._running = 0
        self._closed = False
        self.emitted = 0

    @property
    def running_value(self) -> int:
        """XOR of the components emitted so far."""
        return self._running

    @property
    def closed(self) -> bool:
        """True once the closing component has been produced."""
        return self._closed

    def emit_component(self, nonce: int) -> int:
        """Record a random component for a non-final packet and return it."""
        if self._closed:
            raise RuntimeError("accumulator already closed")
        if not (0 <= nonce <= self._mask):
            raise ValueError(f"nonce {nonce:#x} does not fit in {self.bits} bits")
        self._running ^= nonce
        self.emitted += 1
        return nonce

    def closing_component(self) -> int:
        """Component for the final packet so the total XOR equals the key."""
        if self._closed:
            raise RuntimeError("accumulator already closed")
        self._closed = True
        closing = self._running ^ self.target_key
        self._running = self.target_key
        self.emitted += 1
        return closing
