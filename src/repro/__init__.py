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
  settings as defaults, and the cell pipeline that runs them.
* :mod:`repro.service` — the experiment daemon and its client.
* :mod:`repro.__main__` — the command line.
"""

import hashlib
from functools import lru_cache
from pathlib import Path

__version__ = "1.1.0"


@lru_cache(maxsize=None)
def code_digest() -> str:
    """SHA-256 of the package's ``*.py`` files (``__pycache__`` holds none), in
    package-relative POSIX path order, each as its path, length and bytes.
    Both caches key by it, so an edit to any module misses them."""
    root = Path(__file__).resolve().parent
    digest = hashlib.sha256()
    for relative in sorted(path.relative_to(root).as_posix() for path in root.rglob("*.py")):
        data = (root / relative).read_bytes()
        digest.update(f"{relative}\0{len(data)}\0".encode("utf-8") + data)
    return digest.hexdigest()


#: Package prefix -> rank in the stack above, bottom first.  A module (its
#: longest prefix) imports nothing of a higher rank, not even in a function.
LAYERS = {
    "repro.simulator": 0,
    "repro.crypto": 1,
    "repro.fec": 1,
    "repro.core": 2,
    "repro.transport": 3,
    "repro.multicast_cc": 4,
    "repro.adversary": 5,
    "repro.analysis": 6,
    "repro.experiments": 7,
    "repro.service": 8,
    "repro.__main__": 9,
}

__all__ = ["LAYERS", "__version__", "code_digest"]
