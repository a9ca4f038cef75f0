"""Cutting a declared population into the rows a receiver stands for."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.multicast_cc import FlidDlReceiver, SessionSpec
from repro.multicast_cc.population import active_backend, split_counts
from repro.simulator import NetworkGraph, dumbbell_topology

SRC_DIR = Path(__file__).resolve().parents[2] / "src"


def test_split_counts_even_and_remainder():
    assert split_counts(10, 2) == [5, 5]
    assert split_counts(10, 3) == [4, 3, 3]  # remainder front-loaded
    assert split_counts(7, 7) == [1] * 7
    assert split_counts(1_000_000, 4096)[:2] == [245, 245]
    assert sum(split_counts(1_000_000, 4096)) == 1_000_000


@pytest.mark.parametrize(
    "count, cohorts",
    [(1, 1), (2, 1), (5, 2), (10, 3), (7, 7), (100, 7), (1_000_000, 4096), (1_000_003, 4096)],
)
def test_split_counts_is_balanced_and_order_stable(count, cohorts):
    """Every row is non-empty, rows differ by at most one member, the larger
    rows come first, and the same declaration always cuts the same rows."""
    rows = split_counts(count, cohorts)
    assert len(rows) == cohorts
    assert sum(rows) == count
    assert min(rows) >= 1
    assert max(rows) - min(rows) <= 1
    assert rows == sorted(rows, reverse=True)
    assert split_counts(count, cohorts) == rows


def test_split_counts_rejects_impossible_splits():
    with pytest.raises(ValueError):
        split_counts(3, 4)  # fewer members than cohorts
    with pytest.raises(ValueError):
        split_counts(3, 0)


@pytest.mark.parametrize("count, cohorts", [(3, 4), (3, 0), (0, 1), (5, -1)])
def test_split_counts_error_names_the_split(count, cohorts):
    """Fewer members than cohorts, or no cohort at all, cannot be cut; the
    error says which declaration could not be."""
    with pytest.raises(ValueError, match=f"cannot split {count} members into {cohorts} cohorts"):
        split_counts(count, cohorts)


def _receiver(counts):
    net = NetworkGraph(dumbbell_topology(bottleneck_bandwidth_bps=250_000.0))
    host = net.add_receiver()
    spec = SessionSpec("s", group_count=4).with_addresses(net.allocate_groups(4))
    return host, FlidDlReceiver(net, host, spec, counts=counts)


@pytest.mark.parametrize("counts", [(1,), (5,), (2, 1), [3, 3, 2]], ids=str)
def test_receiver_stands_for_its_rows(counts):
    """Any sequence of row counts becomes the receiver's tuple of rows; the
    receiver and its host stand for their sum, every row at one level."""
    host, receiver = _receiver(counts)
    assert receiver.counts == tuple(counts)
    assert isinstance(receiver.counts, tuple)
    assert receiver.population == host.population == sum(counts)
    assert receiver.state_rows() == [(count, receiver.level) for count in counts]


@pytest.mark.parametrize("counts", [(), (0,), (2, 0), (-1,)], ids=str)
def test_receiver_rejects_empty_and_nonpositive_rows(counts):
    with pytest.raises(ValueError, match="rows of >=1 members"):
        _receiver(counts)


@pytest.mark.parametrize("installed, label", [(True, "numpy"), (False, "fallback")])
def test_active_backend_labels_what_find_spec_reports(monkeypatch, installed, label):
    """The benchmark stamp names the array package exactly when it is found."""
    asked = []

    def find_spec(name, *args):
        asked.append(name)
        return object() if installed else None

    monkeypatch.setattr(importlib.util, "find_spec", find_spec)
    assert active_backend() == label
    assert asked == ["numpy"]


def test_active_backend_never_imports_the_package():
    code = (
        "import sys; from repro.multicast_cc.population import active_backend; "
        "active_backend(); "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": str(SRC_DIR)},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
