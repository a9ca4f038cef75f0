"""The CLI end to end, in-process: every call a user would make in a terminal.

Each test calls ``repro.__main__.main([...])`` with the arguments a user
would type and checks the exit code and what the command prints.  They are
marked ``smoke`` so CI can rerun them pinned to one CPU
(``taskset -c 0 python -m pytest -m smoke -q``); each takes about a second.
"""

import re
import time

import pytest

from repro.__main__ import main

#: The wall-clock budget of one scale or attack run on one CPU.
BUDGET_S = 300.0

ATTACK_MATRIX = [
    "attack-flapping",
    "attack-key-guessing",
    "attack-key-replay",
    "attack-join-storm",
    "attack-ignore-congestion",
    "attack-composite",
    "attack-collusion-parking-lot",
    "attack-keys-100k",
    "attack-collusion-100k",
]

COHORT_100K = ["--param", "receivers=100000", "--param", "model=cohort"]

SCALE_RUNS = {
    "scale-dumbbell-10k": ["scale-dumbbell-10k"],
    "scale-dumbbell-10k-100-cohort-rows": [
        "scale-dumbbell-10k", *COHORT_100K, "--param", "cohorts=100",
    ],
    "scale-overhead-100k": ["scale-overhead-100k"],
    "attack-inflated-100k": ["attack-inflated-100k"],
    "attack-keys-100k": ["attack-keys-100k"],
    "attack-collusion-100k": ["attack-collusion-100k"],
    "scale-dumbbell-1m": ["scale-dumbbell-1m"],
    "scale-dumbbell-10m-region-sharded": ["scale-dumbbell-10m", "--jobs", "4"],
}

PROFILE_ROW = re.compile(r"^\s*(\d+)(?:/\d+)?\s+[\d.]+\s+[\d.]+\s+[\d.]+\s+[\d.]+\s+(\S.*)$")


def run_cli(capsys, *argv):
    """``main(argv)`` must exit 0; returns what it printed."""
    assert main(list(argv)) == 0
    return capsys.readouterr().out


def profile_rows(output):
    """``{filename:lineno(function): ncalls}`` of a ``profile`` listing."""
    return {
        match.group(2): int(match.group(1))
        for match in map(PROFILE_ROW.match, output.splitlines())
        if match
    }


def profiled_events(output):
    return int(re.search(r"^([\d,]+) events in", output, re.MULTILINE).group(1).replace(",", ""))


@pytest.mark.smoke
def test_catalogue_commands_list_the_registries(capsys):
    assert "figure1-attack" in run_cli(capsys, "list")
    adversaries = run_cli(capsys, "adversaries")
    assert "inflated-join" in adversaries
    # Each strategy's declared parameters, at their defaults: a duel's --param keys.
    assert "period_s=4.0, duty=0.5" in adversaries and "key_bits=None" in adversaries
    assert "sharded-dumbbell" in run_cli(capsys, "topologies")


@pytest.mark.smoke
@pytest.mark.parametrize(
    "argv",
    [
        ["figure8-throughput", "--seeds", "2", "--jobs", "2", "--duration", "5",
         "--param", "count=1"],
        ["figure8-rtt-fairness", "--duration", "10"],
    ],
    ids=["throughput-pooled", "rtt-fairness"],
)
def test_figure_scenarios_run(argv, capsys):
    output = run_cli(capsys, "run", *argv)
    assert "receivers simulated:" in output


@pytest.mark.smoke
@pytest.mark.parametrize("scenario", ATTACK_MATRIX)
def test_attack_scenario_runs_two_seeds_on_two_workers(scenario, capsys):
    output = run_cli(
        capsys, "run", scenario, "--seeds", "2", "--jobs", "2", "--duration", "30"
    )
    assert "seeds=2 jobs=2" in output
    assert "protection (seed 1):" in output


@pytest.mark.smoke
@pytest.mark.parametrize("argv", list(SCALE_RUNS.values()), ids=list(SCALE_RUNS))
def test_scale_scenario_finishes_inside_the_budget(argv, capsys):
    start = time.perf_counter()
    output = run_cli(capsys, "run", *argv, "--seeds", "1")
    assert time.perf_counter() - start < BUDGET_S
    assert "receivers simulated:" in output


@pytest.mark.smoke
def test_one_delivery_event_per_packet_per_hop(capsys):
    """A link schedules one ``_deliver`` per admitted packet, queued or not,
    and no transmission-complete or drain event."""
    output = run_cli(
        capsys, "profile", "figure1-attack", "--sort", "ncalls", "--top", "12",
        "--duration", "40",
    )
    rows = profile_rows(output)
    (deliver,) = [count for name, count in rows.items() if name.endswith("(_deliver)")]
    (sent,) = [count for name, count in rows.items() if name.startswith("link.py") and name.endswith("(send)")]
    assert 0 < deliver <= sent
    assert not [name for name in rows if "_drain" in name or "_transmission_complete" in name]


@pytest.mark.smoke
def test_fec_encode_does_not_lead_a_protected_run(capsys):
    """SIGMA's per-slot key announcement is one packed product: no FEC
    function is among the eight that take the most time of Fig. 7."""
    output = run_cli(
        capsys, "profile", "figure7-defence", "--sort", "tottime", "--top", "8",
        "--duration", "40",
    )
    rows = profile_rows(output)
    assert len(rows) == 8
    assert not [name for name in rows if name.startswith("erasure.py")]


@pytest.mark.smoke
def test_splitting_an_honest_cohort_into_rows_adds_no_event(capsys):
    base = ["profile", "scale-dumbbell-10k", *COHORT_100K, "--top", "1"]
    whole = profiled_events(run_cli(capsys, *base))
    split = profiled_events(run_cli(capsys, *base, "--param", "cohorts=100"))
    assert split == whole


@pytest.mark.smoke
def test_interchangeable_edges_run_the_events_of_one_edge(capsys):
    flagship = profiled_events(run_cli(capsys, "profile", "scale-dumbbell-1m", "--top", "1"))
    twin = profiled_events(
        run_cli(capsys, "profile", "scale-dumbbell-1m", "--param", "edges=1", "--top", "1")
    )
    assert flagship == twin


@pytest.mark.smoke
def test_warm_run_reuses_the_checkpoint_a_first_run_published(tmp_path, capsys):
    """The first run publishes the prefix blob and verifies its warm cell
    against a cold rerun; another strategy then resumes from it.  The
    default ``inflated-join`` at intensity 4 is the first cell itself (its
    target is the whole session from intensity 1 on), answered from the
    result cache."""
    cache = str(tmp_path / "warm-cache")
    argv = [
        "run", "scale-protection", "--param", "audience=500",
        "--param", "attack_start_s=24.0", "--duration", "30", "--seeds", "1",
        "--cache-dir", cache, "--verify-warm-start",
    ]
    assert "(0 reused, 1 built)" in run_cli(capsys, *argv)
    assert "cache: 1 hit(s), 0 miss(es); warm starts: 0 run(s)" in run_cli(
        capsys, *argv, "--param", "intensity=4.0"
    )
    assert "(1 reused, 0 built)" in run_cli(capsys, *argv, "--param", "strategy=join-storm")
    assert "checkpoints: 1 blobs" in run_cli(capsys, "cache", "stats", "--cache-dir", cache)
    assert "0 bytes remain" in run_cli(
        capsys, "cache", "prune", "--cache-dir", cache, "--max-bytes", "0"
    )
