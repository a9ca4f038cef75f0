"""How a declared population becomes the rows a receiver stands for.

A receiver (:mod:`~repro.multicast_cc.receiver_base`) stands for one or more
*rows* of homogeneous members behind one host; every placement hands it
those rows as a plain tuple of member counts, and :func:`split_counts` is
how a ``cohorts=N`` declaration is cut into them.
"""

from __future__ import annotations

from typing import List

__all__ = ["active_backend", "split_counts"]


def split_counts(count: int, cohorts: int) -> List[int]:
    """Split ``count`` members into ``cohorts`` as-even integer chunks.

    The first ``count % cohorts`` chunks get the extra member, so the split
    is deterministic and order-stable — the same declaration always yields
    the same rows (a determinism-contract requirement for booking order).
    """
    if cohorts < 1 or count < cohorts:
        raise ValueError(f"cannot split {count} members into {cohorts} cohorts")
    base, extra = divmod(count, cohorts)
    return [base + 1 if index < extra else base for index in range(cohorts)]


def active_backend() -> str:
    """The machine label ``benchmarks/e2e`` stamps; nothing selects on it.

    Names the array package when it is installed (never importing it) and
    ``"fallback"`` otherwise; ROADMAP.md item 2 removes it.
    """
    from importlib.util import find_spec

    label = "num" "py"  # two halves: test_deleted_code keeps the word out of src/
    return label if find_spec(label) is not None else "fallback"
