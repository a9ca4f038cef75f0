"""Row-major reference for the packed FEC kernel of ``repro.fec.erasure``.

The inner-product loop the module ran before its matrices were packed — one
Python multiply-add per (output, input) pair over a plain Lagrange basis —
kept only to hold the kernel to bit-equal output.
"""

import math
from functools import lru_cache

from repro.fec.erasure import _FIELD_PRIME as P


@lru_cache(maxsize=None)
def lagrange_rows(xs, targets):
    """Row t, column i: the basis polynomial of node ``xs[i]`` at ``targets[t]``."""
    inv_den = [pow(math.prod(xi - xj for xj in xs if xj != xi), P - 2, P) for xi in xs]
    return [
        [math.prod(x - xj for xj in xs if xj != xi) * inv % P for xi, inv in zip(xs, inv_den)]
        for x in targets
    ]


def _inner_products(rows, values):
    return [sum(coeff * value for coeff, value in zip(row, values)) % P for row in rows]


def oracle_encode(source, n):
    k = len(source)
    rows = lagrange_rows(tuple(range(1, k + 1)), tuple(range(k + 1, n + 1)))
    return list(enumerate(list(source) + _inner_products(rows, source), 1))


def oracle_decode(received, k):
    """Source symbols from the first ``k`` of ``received`` (distinct indices)."""
    xs, ys = zip(*received[:k])
    return _inner_products(lagrange_rows(xs, tuple(range(1, k + 1))), ys)
