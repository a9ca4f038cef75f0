"""The paper's figure tables, at reduced scale, held to the paper's claims.

One test per registered figure (:func:`repro.experiments.list_figures`).
Each runs the figure through :func:`repro.experiments.run_figure` at the
reduced scale in ``SCALE`` (tens of simulated seconds instead of 200, a
subset of the x-axis), asserts the qualitative outcome the paper reports,
and compares the table byte for byte with the committed
``benchmarks/results/BENCH_<name>.json``.  Those documents hold simulated
quantities only, so they change exactly when a figure moves.  After an
intentional change rewrite them, then the gallery, with::

    python -m pytest tests/integration/test_paper_claims.py --update-golden
    python tools/gen_bench_gallery.py
"""

import json
from pathlib import Path

import pytest

from repro.experiments import figure, list_figures, run_figure
from repro.experiments.spec import FAIR_SHARE_BPS

RESULTS_DIR = Path(__file__).resolve().parents[2] / "benchmarks" / "results"

FAIR_KBPS = FAIR_SHARE_BPS / 1e3
JOIN_TIMES_S = (0.0, 10.0, 20.0, 30.0)

#: Figure name -> the axes its table is run at.
SCALE = {
    "figure1_flid_dl_attack": dict(attack_start_s=30.0, duration_s=60.0),
    "figure7_flid_ds_protection": dict(attack_start_s=30.0, duration_s=60.0),
    "figure8abc_throughput_without_cross_traffic": dict(
        counts=(1, 2, 4), duration_s=40.0
    ),
    "figure8d_throughput_with_cross_traffic": dict(
        counts=(1, 2), duration_s=40.0
    ),
    "figure8e_responsiveness": dict(burst_window=(25.0, 45.0), duration_s=70.0),
    "figure8f_heterogeneous_rtt": dict(receiver_count=10, duration_s=60.0),
    "figure8gh_convergence": dict(join_times_s=JOIN_TIMES_S, duration_s=50.0),
    "figure9_measured_overhead_matches_model": dict(duration_s=15.0),
    "figure9a_overhead_vs_group_count": {},
    "figure9b_overhead_vs_slot_duration": {},
}


@pytest.fixture(scope="module")
def tables():
    """``tables(name)``: the figure's table, run once per module."""
    cache = {}

    def table(name):
        if name not in cache:
            cache[name] = run_figure(figure(name), **SCALE[name])
        return cache[name]

    return table


# ----------------------------------------------------------------------
# the paper's claims, one function per figure
# ----------------------------------------------------------------------
def figure1_attack_succeeds(table, tables):
    """Paper: F1 jumps to ~690 Kbps (2.8x its fair share) while the others collapse."""
    before, during = table["before_kbps"], table["during_kbps"]
    assert during["F1"] > 1.8 * FAIR_KBPS
    assert during["F1"] > 1.5 * before["F1"]
    for victim in ("F2", "T1", "T2"):
        assert during[victim] < 0.6 * FAIR_KBPS, victim
    assert table["fairness_during"] < 0.55
    assert table["fairness_during"] < table["fairness_before"]


def figure7_attack_contained(table, tables):
    """Paper: under FLID-DS the fair allocation is preserved; the attacker gains nothing."""
    before, during = table["before_kbps"], table["during_kbps"]
    assert during["F1"] < 1.5 * max(before["F1"], 0.4 * FAIR_KBPS)
    assert during["F1"] < 1.3 * FAIR_KBPS
    for flow in ("F1", "F2"):
        assert during[flow] > 0.25 * FAIR_KBPS, flow
    # TCP flows collectively keep at least a fair share each on average.
    assert during["T1"] + during["T2"] > FAIR_KBPS
    attacked = tables("figure1_flid_dl_attack")
    assert table["fairness_during"] > attacked["fairness_during"] + 0.2


def figure8_throughput_preserved(ratio_band, floor):
    """FLID-DS tracks FLID-DL's average throughput (the paper's "similar
    average throughput") within ``ratio_band`` at every session count, and
    every multicast average stays above ``floor`` × the fair share."""
    low, high = ratio_band

    def claims(table, tables):
        dl, ds = table["flid_dl_avg_kbps"], table["flid_ds_avg_kbps"]
        for count in dl:
            assert low * dl[count] < ds[count] < high * dl[count], count
            assert min(dl[count], ds[count]) > floor * FAIR_KBPS, count

    return claims


def figure8e_yields_and_recovers(table, tables):
    """Both protocols release bandwidth to the burst and climb back after it."""
    for variant in ("flid_dl_kbps", "flid_ds_kbps"):
        rates = table[variant]
        assert rates["during"] < rates["before"], variant
        assert rates["after"] > 1.2 * rates["during"], variant


def figure8f_rtt_independent(table, tables):
    """Receiver-driven reception: all receivers share one bottleneck and one
    session, so throughput is essentially independent of round-trip time."""
    for variant in ("flid_dl_spread_ratio", "flid_ds_spread_ratio"):
        assert table[variant] < 2.0, variant


def figure8gh_converges(table, tables):
    """Receivers joining 10 s apart end within one subscription level of each
    other, converging no earlier than the last join."""
    for variant in ("flid_dl", "flid_ds"):
        levels = table[variant]["final_levels"]
        assert max(levels) - min(levels) <= 1, (variant, levels)
        converged_at = table[variant]["convergence_time_s"]
        if converged_at is not None:
            assert converged_at >= max(JOIN_TIMES_S), variant


def figure9_overhead_small(table, tables):
    """Paper: DELTA stays around 0.8 %, SIGMA under 0.6 %."""
    assert table["max_delta_percent"] < 1.0
    assert table["max_sigma_percent"] < 0.6


def figure9_measured_matches_model(table, tables):
    """DELTA's measured per-packet overhead is the model's within a factor of
    three; SIGMA's measured overhead stays small."""
    assert 0.3 < table["measured_delta_percent"] / table["model_delta_percent"] < 3.0
    assert table["measured_sigma_percent"] < 2.0


CLAIMS = {
    "figure1_flid_dl_attack": figure1_attack_succeeds,
    "figure7_flid_ds_protection": figure7_attack_contained,
    "figure8abc_throughput_without_cross_traffic": figure8_throughput_preserved(
        (0.6, 1.4), floor=0.5
    ),
    "figure8d_throughput_with_cross_traffic": figure8_throughput_preserved(
        (0.5, 2.0), floor=0.2
    ),
    "figure8e_responsiveness": figure8e_yields_and_recovers,
    "figure8f_heterogeneous_rtt": figure8f_rtt_independent,
    "figure8gh_convergence": figure8gh_converges,
    "figure9_measured_overhead_matches_model": figure9_measured_matches_model,
    "figure9a_overhead_vs_group_count": figure9_overhead_small,
    "figure9b_overhead_vs_slot_duration": figure9_overhead_small,
}


@pytest.mark.parametrize("name", [decl.name for decl in list_figures()])
def test_figure(name, tables, update_golden):
    table = tables(name)
    document = json.dumps({"bench": name, "metrics": table}, sort_keys=True, indent=2) + "\n"
    path = RESULTS_DIR / f"BENCH_{name}.json"
    if update_golden:
        path.write_text(document)
    CLAIMS[name](table, tables)
    assert path.read_text() == document, (
        f"{path.name} moved; if intentional, rerun with --update-golden"
    )
