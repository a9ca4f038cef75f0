"""Erasure codes used by SIGMA key distribution.

Two codes are provided:

``ErasureCode``
    A Reed-Solomon-style maximum-distance-separable code over a prime field.
    ``k`` source symbols are interpreted as evaluations of a degree ``k-1``
    polynomial at points ``1..k``; the encoder outputs evaluations at points
    ``1..n``.  Any ``k`` of the ``n`` coded symbols recover the source, so a
    50 % loss tolerance corresponds to ``n = 2k`` — the expansion factor ``z``
    the paper's overhead model uses.

    The implementation is tuned for the simulator's hot path (one encode per
    sender per time slot, one decode per edge router per time slot): the code
    is systematic so loss-free decoding is a dictionary lookup, and the
    Lagrange matrix of a code shape (or of a surviving-index set) is computed
    once per process and cached *packed* — one big integer per source symbol
    holding that symbol's coefficient for every output in its own lane — so
    an announcement costs ``k`` C-level big-integer multiplications and no
    modular inversion (:func:`_packed_columns`, :func:`_evaluate`).

``RepetitionCode``
    A trivial baseline (every symbol sent ``copies`` times); kept for the FEC
    ablation benchmark, since repetition needs a larger expansion factor to
    reach the same delivery probability.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Dict, List, Sequence, Tuple

__all__ = ["FecConfig", "ErasureCode", "RepetitionCode"]

#: Prime field large enough for 32-bit symbols with room to spare.
_FIELD_PRIME = (1 << 61) - 1


@dataclass(frozen=True)
class FecConfig:
    """Configuration of the FEC expansion.

    ``loss_tolerance`` is the fraction of coded symbols that may be lost
    while still guaranteeing decodability; the paper uses 0.5.
    """

    loss_tolerance: float = 0.5

    def __post_init__(self) -> None:
        if not (0.0 <= self.loss_tolerance < 1.0):
            raise ValueError("loss_tolerance must be in [0, 1)")

    @property
    def expansion_factor(self) -> float:
        """The bit-expansion factor ``z`` of the paper's overhead model."""
        return 1.0 / (1.0 - self.loss_tolerance)

    def coded_symbols(self, source_symbols: int) -> int:
        """Number of coded symbols needed for ``source_symbols`` source symbols."""
        if source_symbols <= 0:
            raise ValueError("source_symbols must be positive")
        return max(source_symbols, _expanded(source_symbols, self.loss_tolerance))


@lru_cache(maxsize=None)
def _exact_expansion(loss_tolerance: float) -> Fraction:
    """``z`` of the tolerance as declared: 0.8 is 4/5 and z is 5, not 5.000000000000001."""
    return 1 / (1 - Fraction(str(loss_tolerance)))


def _expanded(count: int, loss_tolerance: float) -> int:
    """``ceil(count * z)``, exactly: through the float ``expansion_factor`` the
    product lands above the integer it should hit at tolerance 0.8 or 0.9."""
    z = _exact_expansion(loss_tolerance)
    return -(-count * z.numerator // z.denominator)


def _batch_inverse(values: Sequence[int], prime: int = _FIELD_PRIME) -> List[int]:
    """Invert every value with a single modular exponentiation (Montgomery's trick)."""
    prefix: List[int] = []
    running = 1
    for value in values:
        prefix.append(running)
        running = (running * value) % prime
    inverse_all = pow(running, prime - 2, prime)
    inverses = [0] * len(values)
    for index in range(len(values) - 1, -1, -1):
        inverses[index] = (prefix[index] * inverse_all) % prime
        inverse_all = (inverse_all * values[index]) % prime
    return inverses


def _barycentric_weights(xs: Sequence[int], prime: int = _FIELD_PRIME) -> List[int]:
    """Barycentric weights ``w_i = 1 / Π_{j≠i} (x_i - x_j)`` of the nodes ``xs``."""
    products = []
    for i, xi in enumerate(xs):
        product = 1
        for j, xj in enumerate(xs):
            if i != j:
                product = (product * (xi - xj)) % prime
        products.append(product)
    return _batch_inverse(products, prime)


def _lane_bytes(k: int) -> int:
    """Bytes per lane: a sum of ``k`` products of two field elements is below
    ``k * 2**122 < 2**(122 + k.bit_length())``, so it cannot carry out of a
    lane this wide (rounded up to a byte so lanes can be sliced)."""
    return (2 * 61 + k.bit_length() + 7) // 8


@lru_cache(maxsize=1024)
def _packed_columns(xs: Sequence[int], targets: Sequence[int]) -> Tuple[int, ...]:
    """Lagrange matrix from values at ``xs`` to values at ``targets``, packed.

    Entry ``(t, i)`` is ``c_i / Σ_j c_j`` with ``c_i = w_i / (x_t - x_i)``, the
    barycentric form of the basis polynomial.  The matrix is returned
    column-major: column ``i`` is one integer whose lane ``t`` (see
    :func:`_lane_bytes`) holds that entry, so multiplying it by the value at
    ``x_i`` scales a whole column at once.

    Cached because the arguments repeat: the encoder's are fixed by the code
    shape (``1..k`` to ``k+1..n``), and loss patterns recur across slots (the
    same symbols of an announcement survive the same bottlenecks), so the
    per-slot path does no modular inversion; only the values change.
    """
    prime = _FIELD_PRIME
    weights = _barycentric_weights(xs, prime)
    lane = _lane_bytes(len(xs))
    rows = []
    for x in targets:
        inv_deltas = _batch_inverse([(x - xi) % prime for xi in xs], prime)
        coeffs = [(w * d) % prime for w, d in zip(weights, inv_deltas)]
        inv_denominator = pow(sum(coeffs) % prime, prime - 2, prime)
        rows.append([(c * inv_denominator % prime).to_bytes(lane, "little") for c in coeffs])
    return tuple(int.from_bytes(b"".join(column), "little") for column in zip(*rows))


def _evaluate(columns: Sequence[int], values: Sequence[int], lanes: int) -> List[int]:
    """The ``lanes`` inner products of the packed matrix with ``values``.

    Every value must lie in ``[0, prime)`` — the lane width rests on it.
    """
    lane = _lane_bytes(len(columns))
    packed = sum(map(operator.mul, columns, values)).to_bytes(lanes * lane, "little")
    prime, from_bytes = _FIELD_PRIME, int.from_bytes
    return [
        from_bytes(packed[at : at + lane], "little") % prime
        for at in range(0, len(packed), lane)
    ]


class ErasureCode:
    """MDS erasure code: recover ``k`` source symbols from any ``k`` coded symbols."""

    def __init__(self, config: FecConfig | None = None) -> None:
        self.config = config or FecConfig()
        self.prime = _FIELD_PRIME

    # ------------------------------------------------------------------
    def encode(self, source: Sequence[int], coded_count: int | None = None) -> List[Tuple[int, int]]:
        """Encode ``source`` symbols into ``coded_count`` (index, value) symbols.

        The first ``len(source)`` coded symbols are systematic (equal to the
        source), so in the loss-free case decoding is a no-op.  Parity
        symbols are one :func:`_evaluate` against the cached
        :func:`_packed_columns` — no field inversions on the per-slot path.
        """
        if not source:
            raise ValueError("cannot encode an empty symbol list")
        if min(source) < 0 or max(source) >= self.prime:
            raise ValueError(f"symbols outside field range [0, {self.prime})")
        k = len(source)
        n = coded_count if coded_count is not None else self.config.coded_symbols(k)
        if n < k:
            raise ValueError(f"coded_count {n} must be at least the source size {k}")
        columns = _packed_columns(range(1, k + 1), range(k + 1, n + 1))
        return list(enumerate([*source, *_evaluate(columns, source, n - k)], 1))

    def decode(self, received: Sequence[Tuple[int, int]], source_count: int) -> List[int]:
        """Recover the ``source_count`` source symbols from received coded symbols.

        Raises ``ValueError`` when fewer than ``source_count`` distinct coded
        symbols are available (the loss exceeded the code's tolerance).
        """
        unique: Dict[int, int] = {}
        for index, value in received:
            unique.setdefault(index, value)
        if len(unique) < source_count:
            raise ValueError(
                f"insufficient symbols: need {source_count}, received {len(unique)}"
            )
        # Systematic fast path: every source symbol arrived untouched.
        if all(index in unique for index in range(1, source_count + 1)):
            return [unique[index] for index in range(1, source_count + 1)]
        points = {x: y % self.prime for x, y in list(unique.items())[:source_count]}
        missing = tuple(x for x in range(1, source_count + 1) if x not in points)
        columns = _packed_columns(tuple(points), missing)
        points.update(zip(missing, _evaluate(columns, list(points.values()), len(missing))))
        return [points[x] for x in range(1, source_count + 1)]

    # ------------------------------------------------------------------
    def overhead_bits(self, source_bits: int) -> int:
        """Total bits on the wire for ``source_bits`` of payload."""
        return _expanded(source_bits, self.config.loss_tolerance)


class RepetitionCode:
    """Baseline FEC: transmit every symbol ``copies`` times."""

    def __init__(self, copies: int = 2) -> None:
        if copies < 1:
            raise ValueError("copies must be at least 1")
        self.copies = copies

    def encode(self, source: Sequence[int]) -> List[Tuple[int, int]]:
        """Return (source index, value) pairs, each index repeated ``copies`` times."""
        coded = []
        for _ in range(self.copies):
            coded.extend((i + 1, value) for i, value in enumerate(source))
        return coded

    def decode(self, received: Sequence[Tuple[int, int]], source_count: int) -> List[int]:
        values: Dict[int, int] = {}
        for index, value in received:
            values.setdefault(index, value)
        missing = [i for i in range(1, source_count + 1) if i not in values]
        if missing:
            raise ValueError(f"missing source symbols {missing}")
        return [values[i] for i in range(1, source_count + 1)]

    @property
    def expansion_factor(self) -> float:
        return float(self.copies)
