"""Columnar population state: every vector block of a scenario in one table.

A receiver (:mod:`~repro.multicast_cc.receiver_base`) stands for one or more
*rows* of homogeneous members behind one edge router, all sharing its
subscription level.  A ``model="vector"`` placement packs thousands of such
rows behind one receiver per edge router; this module is the scenario-level
registry of those rows:

* a :class:`PopulationTable` owns one :class:`PopulationBlock` per
  ``(router, session)`` placement — contiguous ``count`` / ``level`` columns
  covering every cohort row at that edge;
* the block's receiver is the level column's only writer: every level
  change broadcasts one scalar over the column, so the rows cannot split;
* columns are numpy ``int64`` arrays when numpy is importable and plain
  :class:`array.array` ``'q'`` columns otherwise — numpy is an *optional*
  accelerator, never a dependency.  ``REPRO_POPULATION_BACKEND=numpy`` or
  ``=fallback`` forces the choice (CI runs the population tests on both).
"""

from __future__ import annotations

import os
from array import array
from typing import Dict, Iterator, List, Sequence, Tuple, Union

try:  # numpy is an optional accelerator, never a hard dependency
    import numpy as _np
except ImportError:  # pragma: no cover - exercised via REPRO_POPULATION_BACKEND
    _np = None

__all__ = [
    "BACKEND_ENV_VAR",
    "active_backend",
    "numpy_available",
    "split_counts",
    "PopulationBlock",
    "PopulationTable",
]

#: Environment variable forcing the column backend (``numpy`` | ``fallback``).
BACKEND_ENV_VAR = "REPRO_POPULATION_BACKEND"

#: One columnar row: ``(receiver count, subscription level)``.
Row = Tuple[int, int]

#: A column in either backend flavour.
Column = Union["array", "object"]


def numpy_available() -> bool:
    """True when the numpy accelerator backend can be used at all."""
    return _np is not None


def active_backend() -> str:
    """Resolve the column backend: ``"numpy"`` or ``"fallback"``.

    Defaults to numpy when importable; :data:`BACKEND_ENV_VAR` overrides the
    choice in either direction so CI can pin the pure-stdlib path.
    """
    choice = os.environ.get(BACKEND_ENV_VAR, "").strip().lower()
    if choice == "fallback":
        return "fallback"
    if choice == "numpy":
        if _np is None:
            raise RuntimeError(
                f"{BACKEND_ENV_VAR}=numpy requested but numpy is not importable"
            )
        return "numpy"
    if choice:
        raise ValueError(
            f"unknown {BACKEND_ENV_VAR} value {choice!r}; "
            "expected 'numpy' or 'fallback'"
        )
    return "numpy" if _np is not None else "fallback"


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


def _make_column(values: Sequence[int], backend: str) -> Column:
    """Materialise one signed-64-bit column in the chosen backend."""
    if backend == "numpy":
        return _np.asarray(list(values), dtype=_np.int64)
    return array("q", values)


class PopulationBlock:
    """All cohort rows of one ``(router, session)`` placement, columnar.

    One ``counts`` column (fixed at allocation) and one ``levels`` column,
    written only by the receiver that carries the block: rows within a block
    share one host/interface, hence one subscription level.
    """

    __slots__ = ("router", "session", "population", "_backend", "_counts", "_levels")

    def __init__(self, router: str, session: str, counts: Sequence[int], backend: str) -> None:
        """Allocate columns for ``counts`` cohort rows placed at ``router``."""
        counts = [int(count) for count in counts]
        if not counts or any(count < 1 for count in counts):
            raise ValueError("a population block needs >=1 rows of >=1 members")
        self.router = router
        self.session = session
        #: Total end systems across every row of the block.
        self.population = sum(counts)
        self._backend = backend
        self._counts = _make_column(counts, backend)
        self._levels = _make_column([0] * len(counts), backend)

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        """Number of cohort rows (not members) in the block."""
        return len(self._counts)

    @property
    def backend(self) -> str:
        """The column backend this block was allocated on."""
        return self._backend

    def counts(self) -> Column:
        """The immutable per-row member-count column."""
        return self._counts

    def levels(self) -> Column:
        """The per-row subscription-level column (mutate via :meth:`set_levels`)."""
        return self._levels

    # ------------------------------------------------------------------
    def set_levels(self, values: Union[int, Sequence[int]]) -> None:
        """Overwrite the level column with a scalar or a same-length column."""
        column = self._levels
        if isinstance(values, int):
            if self._backend == "numpy":
                column[:] = values
            else:
                for index in range(len(column)):
                    column[index] = values
            return
        if len(values) != len(column):
            raise ValueError(
                f"column length mismatch: got {len(values)} values for "
                f"{len(column)} rows"
            )
        if self._backend == "numpy":
            column[:] = _np.asarray(values, dtype=_np.int64)
        else:
            for index, value in enumerate(values):
                column[index] = int(value)

    # ------------------------------------------------------------------
    def rows(self) -> List[Row]:
        """The block as ``(count, level)`` rows, in stable row order."""
        return [
            (int(count), int(level))
            for count, level in zip(self._counts, self._levels)
        ]


class PopulationTable:
    """Every population block of one scenario, keyed ``(router, session)``.

    The table is the scenario-level registry vector placements allocate
    their blocks from; iterating :meth:`blocks` visits allocation
    order (deterministic — spec declaration order), which is what keeps the
    bulk IGMP/SIGMA booking order byte-stable across runs and processes.
    """

    def __init__(self, backend: str = "") -> None:
        """Create an empty table on ``backend`` (default: :func:`active_backend`)."""
        self.backend = backend or active_backend()
        self._blocks: Dict[Tuple[str, str], List[PopulationBlock]] = {}
        self._order: List[PopulationBlock] = []

    def allocate(self, router: str, session: str, counts: Sequence[int]) -> PopulationBlock:
        """Allocate (and register) the block for ``counts`` rows at ``router``."""
        block = PopulationBlock(router, session, counts, self.backend)
        self._blocks.setdefault((router, session), []).append(block)
        self._order.append(block)
        return block

    def blocks(self) -> Iterator[PopulationBlock]:
        """All blocks in allocation order."""
        return iter(self._order)

    def blocks_for(self, router: str, session: str) -> Tuple[PopulationBlock, ...]:
        """The blocks allocated for one ``(router, session)`` placement."""
        return tuple(self._blocks.get((router, session), ()))

    def __len__(self) -> int:
        """Number of allocated blocks."""
        return len(self._order)

    @property
    def population(self) -> int:
        """Total end systems across every block in the table."""
        return sum(block.population for block in self._order)

    @property
    def rows(self) -> int:
        """Total cohort rows across every block in the table."""
        return sum(len(block) for block in self._order)
