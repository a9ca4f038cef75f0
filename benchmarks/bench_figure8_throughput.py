"""Figures 8(a)-(d): receiver throughput versus the number of sessions.

Prints, for FLID-DL and FLID-DS, the individual and average receiver
throughput at each session count — the points of Figures 8(a) and 8(b), the
comparison line of Figure 8(c), and (with cross traffic) Figure 8(d).

The session counts and durations are reduced relative to the paper (which
sweeps 1-18 sessions over 200 s) so the harness stays fast;
``python -m repro run figure8-throughput`` runs the paper-scale sweep and
``tests/integration/test_paper_claims.py`` asserts its headline claims.
"""

from repro.analysis import format_table
from repro.experiments import run_throughput_vs_sessions

BENCH_SESSION_COUNTS = (1, 2, 4)
BENCH_CROSS_SESSION_COUNTS = (1, 2)
BENCH_DURATION_S = 40.0


def _report(title, dl, ds):
    rows = []
    for count in sorted(dl.average_kbps):
        rows.append(
            (
                count,
                round(dl.average_kbps[count], 1),
                round(ds.average_kbps[count], 1),
                " ".join(f"{v:.0f}" for v in dl.individual_kbps[count]),
                " ".join(f"{v:.0f}" for v in ds.individual_kbps[count]),
            )
        )
    print(f"\n{title}")
    print(
        format_table(
            ["sessions", "FLID-DL avg (Kbps)", "FLID-DS avg (Kbps)", "DL individual", "DS individual"],
            rows,
        )
    )


def test_figure8abc_throughput_without_cross_traffic(bench_config, bench_record):
    dl, ds = (
        run_throughput_vs_sessions(
            protected=protected,
            session_counts=BENCH_SESSION_COUNTS,
            config=bench_config,
            duration_s=BENCH_DURATION_S,
        )
        for protected in (False, True)
    )
    _report("Figures 8(a)-(c) — throughput vs sessions, no cross traffic", dl, ds)
    bench_record({"flid_dl_avg_kbps": dl.average_kbps, "flid_ds_avg_kbps": ds.average_kbps})
    for count in BENCH_SESSION_COUNTS:
        # FLID-DS must track FLID-DL (the paper's "similar average throughput").
        assert ds.average_kbps[count] > 0.6 * dl.average_kbps[count]
        assert ds.average_kbps[count] < 1.4 * dl.average_kbps[count]


def test_figure8d_throughput_with_cross_traffic(bench_config, bench_record):
    dl, ds = (
        run_throughput_vs_sessions(
            protected=protected,
            session_counts=BENCH_CROSS_SESSION_COUNTS,
            cross_traffic=True,
            config=bench_config,
            duration_s=BENCH_DURATION_S,
        )
        for protected in (False, True)
    )
    _report("Figure 8(d) — throughput vs sessions, with TCP and on-off CBR cross traffic", dl, ds)
    bench_record(
        {
            "flid_dl_avg_kbps": dl.average_kbps,
            "flid_ds_avg_kbps": ds.average_kbps,
            "flid_dl_tcp_kbps": dl.tcp_kbps,
            "flid_ds_tcp_kbps": ds.tcp_kbps,
        },
    )
    for count in BENCH_CROSS_SESSION_COUNTS:
        assert ds.average_kbps[count] > 0.5 * dl.average_kbps[count]
        assert ds.average_kbps[count] < 2.0 * dl.average_kbps[count]
        # Multicast must still get a nontrivial share despite the cross traffic.
        assert dl.average_kbps[count] > 0.2 * dl.fair_share_kbps
