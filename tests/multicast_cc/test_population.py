"""The columnar population table: blocks and backends.

The :mod:`repro.multicast_cc.population` contract is backend-transparent:
every behaviour asserted here must hold identically on the numpy column
backend and on the pure-stdlib ``array.array`` fallback — the parametrised
``backend`` fixture runs the whole module on both (numpy legs skip when
numpy is genuinely absent, which is how the CI fallback job runs them).
"""

import pytest

from repro.multicast_cc.population import (
    BACKEND_ENV_VAR,
    PopulationBlock,
    PopulationTable,
    active_backend,
    numpy_available,
    split_counts,
)

# ----------------------------------------------------------------------
# backend selection
# ----------------------------------------------------------------------
def test_active_backend_defaults_to_numpy_when_available(monkeypatch):
    monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
    assert active_backend() == ("numpy" if numpy_available() else "fallback")


def test_active_backend_env_override(monkeypatch):
    monkeypatch.setenv(BACKEND_ENV_VAR, "fallback")
    assert active_backend() == "fallback"
    if numpy_available():
        monkeypatch.setenv(BACKEND_ENV_VAR, "numpy")
        assert active_backend() == "numpy"


def test_active_backend_rejects_unknown_value(monkeypatch):
    monkeypatch.setenv(BACKEND_ENV_VAR, "pandas")
    with pytest.raises(ValueError, match="pandas"):
        active_backend()


def test_active_backend_env_is_case_and_space_tolerant(monkeypatch):
    monkeypatch.setenv(BACKEND_ENV_VAR, "  Fallback ")
    assert active_backend() == "fallback"


# ----------------------------------------------------------------------
# split_counts
# ----------------------------------------------------------------------
def test_split_counts_even_and_remainder():
    assert split_counts(10, 2) == [5, 5]
    assert split_counts(10, 3) == [4, 3, 3]  # remainder front-loaded
    assert split_counts(7, 7) == [1] * 7
    assert split_counts(1_000_000, 4096)[:2] == [245, 245]
    assert sum(split_counts(1_000_000, 4096)) == 1_000_000


def test_split_counts_rejects_impossible_splits():
    with pytest.raises(ValueError):
        split_counts(3, 4)  # fewer members than cohorts
    with pytest.raises(ValueError):
        split_counts(3, 0)


# ----------------------------------------------------------------------
# PopulationBlock
# ----------------------------------------------------------------------
def test_block_allocation_and_rows(backend):
    block = PopulationBlock("edge1", "s", (3, 2, 1), backend)
    assert len(block) == 3
    assert block.population == 6
    assert block.backend == backend
    assert block.rows() == [(3, 0), (2, 0), (1, 0)]
    assert list(block.counts()) == [3, 2, 1]


def test_block_rejects_empty_and_nonpositive_rows(backend):
    with pytest.raises(ValueError):
        PopulationBlock("e", "s", (), backend)
    with pytest.raises(ValueError):
        PopulationBlock("e", "s", (3, 0), backend)


def test_block_scalar_and_columnwise_setters(backend):
    block = PopulationBlock("e", "s", (1, 1, 1), backend)
    block.set_levels(4)  # scalar broadcast
    assert block.rows() == [(1, 4), (1, 4), (1, 4)]
    block.set_levels([1, 2, 3])  # column write
    assert block.rows() == [(1, 1), (1, 2), (1, 3)]


def test_block_setter_rejects_length_mismatch(backend):
    block = PopulationBlock("e", "s", (1, 1, 1), backend)
    with pytest.raises(ValueError, match="length mismatch"):
        block.set_levels([1, 2])


# ----------------------------------------------------------------------
# PopulationTable
# ----------------------------------------------------------------------
def test_table_allocation_order_and_lookup(backend):
    table = PopulationTable(backend)
    a = table.allocate("e1", "s1", (10,))
    b = table.allocate("e2", "s1", (5, 5))
    c = table.allocate("e1", "s2", (1,))
    assert list(table.blocks()) == [a, b, c]
    assert table.blocks_for("e1", "s1") == (a,)
    assert table.blocks_for("e2", "s1") == (b,)
    assert table.blocks_for("nowhere", "s1") == ()
    assert len(table) == 3
    assert table.population == 21
    assert table.rows == 4


def test_table_default_backend_tracks_environment(monkeypatch):
    monkeypatch.setenv(BACKEND_ENV_VAR, "fallback")
    table = PopulationTable()
    assert table.backend == "fallback"
    block = table.allocate("e", "s", (2,))
    assert block.backend == "fallback"
