#!/usr/bin/env python3
"""Quickstart: one protected multicast session over a single bottleneck.

Declares the paper's §5.1 dumbbell scenario — one FLID-DS session (FLID-DL
hardened with DELTA and SIGMA) at a 250 Kbps fair share — as a
:class:`ScenarioSpec`, runs it through the experiment runner and prints the
receiver's goodput, its subscription level and the SIGMA edge statistics.

The same spec can be serialised (``spec.to_json()``), cached, or fanned out
over seeds with ``ExperimentRunner(jobs=4)`` — see ``python -m repro list``
for the full registered catalogue.

Run with::

    PYTHONPATH=src python examples/quickstart.py
"""

from repro.experiments import (
    FAIR_SHARE_BPS,
    ScenarioSpec,
    Scenario,
    SessionDecl,
    collect_metrics,
)

DURATION_S = 30.0


def main() -> None:
    # 1. Declare the experiment: topology by name, sessions as data.
    spec = ScenarioSpec(
        name="quickstart",
        protected=True,
        topology="dumbbell",
        topology_params={"bottleneck_bandwidth_bps": FAIR_SHARE_BPS},
        sessions=(SessionDecl("quickstart"),),
        duration_s=DURATION_S,
    )
    print("spec (canonical JSON):")
    print(f"  {spec.to_json()[:98]}...")

    # 2. Interpret and run it.  (`execute_spec(spec)` does both in one call
    #    and returns plain JSON metrics; going through Scenario keeps the
    #    live objects inspectable.)
    scenario = Scenario.from_spec(spec)
    scenario.run()

    # 3. Report.
    receiver = scenario.sessions[0].receiver
    session_spec = scenario.sessions[0].spec
    sigma = scenario.sigma
    print("\nFLID-DS quickstart (250 Kbps bottleneck, 10 groups)")
    print(f"  final subscription level : {receiver.level} "
          f"(fair level for 250 Kbps is {session_spec.fair_level(250_000.0)})")
    print(f"  average goodput          : {receiver.average_rate_kbps(5, DURATION_S):.1f} Kbps")
    print(f"  SIGMA valid submissions  : {sigma.valid_submissions}")
    print(f"  SIGMA invalid submissions: {sigma.invalid_submissions}")
    print(f"  SIGMA revocations        : {sigma.revocations}")
    print("\n  metrics document (what the parallel runner returns):")
    metrics = collect_metrics(scenario, spec)
    print(f"  {metrics['multicast']['quickstart']}")
    print("\n  time (s)  goodput (Kbps)")
    for sample in receiver.monitor.series(end_time_s=DURATION_S):
        print(f"  {sample.time_s:7.1f}  {sample.rate_kbps:10.1f}")


if __name__ == "__main__":
    main()
