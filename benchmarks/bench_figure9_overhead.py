"""Figure 9: communication overhead of DELTA and SIGMA.

Prints the analytic overhead curves (percent of data bits) for the paper's
two sweeps — versus the number of groups and versus the slot duration — and
cross-checks them against the overhead measured on the wire by a simulated
FLID-DS session.
"""

from repro.analysis import format_table
from repro.experiments import (
    run_group_count_sweep,
    run_measured_overhead,
    run_slot_duration_sweep,
)


def test_figure9a_overhead_vs_group_count(bench_record):
    result = run_group_count_sweep()
    rows = [
        (int(p.parameter), round(p.delta_percent, 3), round(p.sigma_percent, 3))
        for p in result.points
    ]
    print("\nFigure 9(a) — overhead vs number of groups (t = 250 ms)")
    print(format_table(["groups", "DELTA (%)", "SIGMA (%)"], rows))
    bench_record(
        {
            "max_delta_percent": result.max_delta_percent,
            "max_sigma_percent": result.max_sigma_percent,
        },
    )
    # Paper: DELTA stays around 0.8 %, SIGMA under 0.6 %.
    assert result.max_delta_percent < 1.0
    assert result.max_sigma_percent < 0.6


def test_figure9b_overhead_vs_slot_duration(bench_record):
    result = run_slot_duration_sweep()
    rows = [
        (p.parameter, round(p.delta_percent, 3), round(p.sigma_percent, 3))
        for p in result.points
    ]
    print("\nFigure 9(b) — overhead vs time-slot duration (N = 10)")
    print(format_table(["slot (s)", "DELTA (%)", "SIGMA (%)"], rows))
    bench_record(
        {
            "max_delta_percent": result.max_delta_percent,
            "max_sigma_percent": result.max_sigma_percent,
        },
    )
    assert result.max_delta_percent < 1.0
    assert result.max_sigma_percent < 0.6


def test_figure9_measured_overhead_matches_model(bench_config, bench_record):
    result = run_measured_overhead(config=bench_config, duration_s=15.0)
    rows = [
        ("DELTA", round(result.model_delta_percent, 3), round(result.delta_percent, 3)),
        ("SIGMA", round(result.model_sigma_percent, 3), round(result.sigma_percent, 3)),
    ]
    print("\nFigure 9 cross-check — analytic model vs measured on the wire")
    print(format_table(["component", "model (%)", "measured (%)"], rows))
    bench_record(
        {
            "measured_delta_percent": result.delta_percent,
            "measured_sigma_percent": result.sigma_percent,
            "model_delta_percent": result.model_delta_percent,
            "model_sigma_percent": result.model_sigma_percent,
        },
    )
    assert 0.3 < result.delta_within_factor < 3.0
    assert result.sigma_percent < 2.0
