"""repro — reproduction of "Robustness to Inflated Subscription in Multicast
Congestion Control" (Gorinsky, Jain, Vin, Zhang; SIGCOMM 2003).

The package is organised bottom-up:

* :mod:`repro.simulator` — discrete-event network simulator (the NS-2
  substitute): engine, links, queues, routers, multicast, IGMP, monitors.
* :mod:`repro.crypto` / :mod:`repro.fec` — nonces, XOR key algebra and
  erasure coding.
* :mod:`repro.core` — the paper's contribution: DELTA (in-band key
  distribution), SIGMA (key-based group access at edge routers), the time-slot
  pipeline and the analytic overhead model.
* :mod:`repro.transport` — TCP Reno and CBR cross traffic.
* :mod:`repro.multicast_cc` — FLID-DL and FLID-DS (one receiver per
  protocol, standing for any population).
* :mod:`repro.adversary` — composable attack strategies mounted on those
  receivers (the misbehaving receivers of Figures 1 and 7).
* :mod:`repro.analysis` — throughput, fairness and convergence analysis.
* :mod:`repro.experiments` — one module per paper figure, with the §5.1
  settings as defaults.
"""

__version__ = "1.1.0"

__all__ = ["__version__"]
