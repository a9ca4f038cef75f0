"""Figures 1 and 7 — impact of inflated subscription, with and without protection.

The scenario (§1 and §5.2): receivers ``F1`` and ``F2`` belong to two
different multicast sessions and share a 1 Mbps bottleneck with two TCP Reno
receivers ``T1`` and ``T2``; every flow's fair share is 250 Kbps.  At
``t = 100 s`` receiver ``F1`` mounts the paper's attacker and inflates its
subscription (:func:`~repro.adversary.spec.paper_attacker`).

* With FLID-DL (Figure 1) the attack succeeds: F1's throughput jumps to
  roughly 690 Kbps while F2, T1 and T2 are squeezed far below their fair
  share.
* With FLID-DS (Figure 7) DELTA and SIGMA deny F1 the keys for the extra
  groups, so all four flows keep roughly their fair share.

Both figures reduce their one cell to the four flows' averages before and
during the attack, Jain's fairness index over each, and F1's gain over its
fair share.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Dict, Sequence

from ..adversary.spec import paper_attacker
from ..analysis.fairness import jain_index
from .attacks import attack_duel_spec
from .registry import register_figure, register_scenario, series_kbps
from .metrics import WARMUP_S, RunResult
from .spec import FAIR_SHARE_BPS, PAPER_DURATION_S, ScenarioSpec

# F1 mounts the paper's attacker for the protocol against F2, T1 and T2 on a
# 1 Mbps (four fair shares) bottleneck from 100 s, and never after the run ends.
register_scenario(
    "figure1-attack",
    "Figure 1: inflated-subscription attack on FLID-DL — F1 squeezes F2/T1/T2",
    dict(attack_start_s=100.0, duration_s=PAPER_DURATION_S),
)(partial(attack_duel_spec, stack=paper_attacker(False), tcp=2, in_run=True, protected=False))
register_scenario(
    "figure7-defence",
    "Figure 7: the same attack against FLID-DS — DELTA/SIGMA hold the fair share",
    dict(attack_start_s=100.0, duration_s=PAPER_DURATION_S),
)(partial(attack_duel_spec, stack=paper_attacker(True), tcp=2, in_run=True, protected=True))


@register_figure("figure1_flid_dl_attack", scenario="figure1-attack")
@register_figure("figure7_flid_ds_protection", scenario="figure7-defence")
def _duel_table(cells: Sequence[ScenarioSpec], results: Sequence[RunResult]) -> Dict[str, Any]:
    """Per-flow averages before/during the attack, fairness and F1's gain."""
    (spec,), (result,) = cells, results
    metrics = result.metrics
    series = {
        "F1": metrics["multicast"]["F1"]["series"]["bins"][0],
        "F2": metrics["multicast"]["F2"]["series"]["bins"][0],
        "T1": metrics["tcp_series"]["T1"],
        "T2": metrics["tcp_series"]["T2"],
    }
    attack_start = spec.sessions[0].attack_onset_s()
    duration = spec.duration_s
    if attack_start >= duration:
        raise ValueError(
            f"attack onset {attack_start} s leaves no attack window in a "
            f"{duration} s run; start the attack before the run ends"
        )
    before = {name: series_kbps(bins, WARMUP_S, attack_start) for name, bins in series.items()}
    during = {name: series_kbps(bins, attack_start, duration) for name, bins in series.items()}
    return {
        "attacker_gain": during["F1"] / (FAIR_SHARE_BPS / 1e3),
        "before_kbps": before,
        "during_kbps": during,
        "fairness_before": jain_index(list(before.values())),
        "fairness_during": jain_index(list(during.values())),
    }
