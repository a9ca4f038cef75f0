"""Nonce generation for DELTA keys and key components.

DELTA builds every key out of *nonces*: fresh random values the sender places
in the component and decrease fields of multicast packets (Equations 3-6 of
the paper).  Keys and components share the same bit width ``b`` — the paper
uses 16-bit values in its overhead analysis — so guessing a missing component
is exactly as hard as guessing the key itself (§4.2).

``NonceGenerator`` draws nonces from a named random stream so every
experiment is reproducible, while ``secrets``-quality randomness is not
needed inside a simulation.
"""

from __future__ import annotations

import random
from typing import Optional

__all__ = ["NonceGenerator", "DEFAULT_KEY_BITS"]

#: Key/component width used in the paper's overhead evaluation (§5.4).
DEFAULT_KEY_BITS = 16


class NonceGenerator:
    """Generates uniformly random ``bits``-wide nonces.

    Parameters
    ----------
    bits:
        Width of every nonce (and therefore of every key built from them).
    rng:
        Source of randomness.  Pass a seeded ``random.Random`` for
        reproducible experiments; defaults to a freshly seeded instance.
    """

    def __init__(self, bits: int = DEFAULT_KEY_BITS, rng: Optional[random.Random] = None) -> None:
        if bits <= 0:
            raise ValueError(f"nonce width must be positive (got {bits})")
        self.bits = bits
        self._rng = rng or random.Random()
        self._mask = (1 << bits) - 1
        self.generated = 0

    @property
    def mask(self) -> int:
        """Bit mask selecting the low ``bits`` bits."""
        return self._mask

    @property
    def space_size(self) -> int:
        """Number of distinct nonce values (2**bits)."""
        return 1 << self.bits

    def next(self) -> int:
        """Return one fresh nonce in ``[0, 2**bits)``."""
        self.generated += 1
        return self._rng.getrandbits(self.bits)

    def fits(self, value: int) -> bool:
        """True when ``value`` is representable in this generator's width."""
        return 0 <= value <= self._mask
