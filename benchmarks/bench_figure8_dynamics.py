"""Figures 8(e)-(h): responsiveness, RTT independence and convergence.

* 8(e): throughput of one multicast session around an 800 Kbps CBR burst;
* 8(f): average receiver throughput versus round-trip time (20 receivers,
  RTTs spread 30-220 ms);
* 8(g)/8(h): subscription convergence of four receivers joining at staggered
  times.

Each is run for FLID-DL and FLID-DS so the curves can be compared as in the
paper.
"""

from repro.analysis import format_series_table, format_table
from repro.experiments import run_convergence, run_heterogeneous_rtt, run_responsiveness


def test_figure8e_responsiveness(bench_config, bench_record):
    burst_window = (25.0, 45.0)

    dl, ds = (
        run_responsiveness(
            protected=protected, config=bench_config, burst_window=burst_window, duration_s=70.0
        )
        for protected in (False, True)
    )
    rows = [
        ("FLID-DL", round(dl.average_before_kbps), round(dl.average_during_kbps), round(dl.average_after_kbps)),
        ("FLID-DS", round(ds.average_before_kbps), round(ds.average_during_kbps), round(ds.average_after_kbps)),
    ]
    print("\nFigure 8(e) — responsiveness to an 800 Kbps CBR burst")
    print(format_table(["protocol", "before (Kbps)", "during burst (Kbps)", "after (Kbps)"], rows))
    bench_record(
        {
            "flid_dl_kbps": {
                "before": dl.average_before_kbps,
                "during": dl.average_during_kbps,
                "after": dl.average_after_kbps,
            },
            "flid_ds_kbps": {
                "before": ds.average_before_kbps,
                "during": ds.average_during_kbps,
                "after": ds.average_after_kbps,
            },
        },
    )
    for result in (dl, ds):
        assert result.yields_to_burst
        assert result.recovers_after_burst


def test_figure8f_heterogeneous_rtt(bench_config, bench_record):
    dl, ds = (
        run_heterogeneous_rtt(protected=protected, config=bench_config, receiver_count=10, duration_s=60.0)
        for protected in (False, True)
    )
    print("\nFigure 8(f) — average throughput vs round-trip time")
    print(format_series_table("FLID-DL", dl.points, x_name="RTT (ms)", y_name="Kbps"))
    print(format_series_table("FLID-DS", ds.points, x_name="RTT (ms)", y_name="Kbps"))
    # Multicast reception is receiver-driven: throughput must be essentially
    # independent of the receiver's round-trip time (all receivers share one
    # bottleneck and one session, so they see the same stream).
    bench_record(
        {
            "flid_dl_spread_ratio": dl.spread_ratio,
            "flid_ds_spread_ratio": ds.spread_ratio,
        },
    )
    for result in (dl, ds):
        rates = [rate for _, rate in result.points]
        assert min(rates) > 0.5 * max(rates), f"RTT-dependent throughput: {result.points}"


def test_figure8gh_convergence(bench_config, bench_record):
    join_times = (0.0, 10.0, 20.0, 30.0)

    dl, ds = (
        run_convergence(protected=protected, config=bench_config, join_times_s=join_times, duration_s=50.0)
        for protected in (False, True)
    )
    rows = [
        ("FLID-DL", dl.final_levels, dl.convergence_time_s),
        ("FLID-DS", ds.final_levels, ds.convergence_time_s),
    ]
    print("\nFigures 8(g)/(h) — subscription convergence of staggered receivers")
    print(format_table(["protocol", "final levels", "convergence time (s)"], rows))
    bench_record(
        {
            "flid_dl": {
                "final_levels": dl.final_levels,
                "convergence_time_s": dl.convergence_time_s,
            },
            "flid_ds": {
                "final_levels": ds.final_levels,
                "convergence_time_s": ds.convergence_time_s,
            },
        },
    )
    for result in (dl, ds):
        assert max(result.final_levels) - min(result.final_levels) <= 1
