#!/usr/bin/env python3
"""Replicated multicast protected by the Figure 5 DELTA instantiation.

Unlike layered multicast, a replicated (Destination Set Grouping style)
session sends the *same content at different rates* on each group, and a
receiver subscribes to exactly one group.  This example runs one such session
over a constrained bottleneck and shows the receiver switching between groups
as the available bandwidth changes (a CBR burst squeezes it halfway through),
with SIGMA verifying a key for every switch.

Run with::

    python examples/replicated_multicast.py
"""

from repro.analysis import format_series_table
from repro.core.sigma import SigmaRouterAgent
from repro.core.timeslot import SlotClock
from repro.multicast_cc import ReplicatedReceiver, ReplicatedSender, SessionSpec
from repro.simulator import NetworkGraph, dumbbell_topology
from repro.transport import CbrSink, OnOffCbrSource

DURATION_S = 60.0
BURST_WINDOW = (25.0, 40.0)


def main() -> None:
    network = NetworkGraph(dumbbell_topology(bottleneck_bandwidth_bps=500_000.0))
    slot_clock = SlotClock(network.sim, 0.25)
    sigma = SigmaRouterAgent(network.edge_router, network.multicast, slot_clock)
    slot_clock.start()

    sender_host = network.add_sender("video-source")
    receiver_host = network.add_receiver("viewer")
    burst_src = network.add_sender("burst-src")
    burst_dst = network.add_receiver("burst-dst")
    network.build_routes()

    # Four quality levels: 100, 150, 225, 337 Kbps (same content, higher rate).
    spec = SessionSpec(
        session_id="replicated-video",
        group_count=4,
        base_rate_bps=100_000.0,
        rate_factor=1.5,
        slot_duration_s=0.25,
    ).with_addresses(network.allocate_groups(4))

    sender = ReplicatedSender(network, sender_host, spec)
    receiver = ReplicatedReceiver(network, receiver_host, spec)
    sender.start()
    receiver.start()

    sink = CbrSink(burst_dst, port=99)
    burst = OnOffCbrSource(
        burst_src,
        burst_dst,
        port=99,
        rate_bps=350_000.0,
        on_s=BURST_WINDOW[1] - BURST_WINDOW[0],
        off_s=1.0,
        active_window=BURST_WINDOW,
        name="burst",
    )
    burst.start()

    network.run(until=DURATION_S)

    series = [(s.time_s, s.rate_kbps) for s in receiver.monitor.smoothed_series(3, DURATION_S)]
    print("Replicated multicast viewer goodput (350 Kbps CBR burst during "
          f"{BURST_WINDOW[0]:.0f}-{BURST_WINDOW[1]:.0f} s)\n")
    print(format_series_table("goodput", series, x_name="time (s)", y_name="Kbps"))
    print(f"\nFinal quality group: {receiver.group} of {spec.group_count}")
    print(f"Down-switches: {receiver.switch_downs}, up-switches: {receiver.switch_ups}")
    print(f"SIGMA key checks: {sigma.valid_submissions} valid, {sigma.invalid_submissions} invalid")


if __name__ == "__main__":
    main()
