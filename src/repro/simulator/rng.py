"""Seeded random-number streams.

Every stochastic decision in the reproduction (FLID increase-signal draws,
DELTA nonces, CBR jitter, misbehaving key guesses) draws from a *named*
stream derived from a single experiment seed.  This gives two properties the
test suite and the benchmark harness rely on:

* **Reproducibility** — the same seed yields bit-identical experiment output,
  so the golden digests under ``tests/golden/`` can be regenerated exactly.
* **Isolation** — adding a new consumer of randomness (a new session, a new
  protocol feature) does not perturb the draws seen by existing consumers,
  because each consumer owns its own stream.
"""

from __future__ import annotations

import hashlib
import random
from typing import Dict

__all__ = ["RandomStreams"]


class RandomStreams:
    """Factory of independent, deterministically seeded ``random.Random`` streams."""

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self._streams: Dict[str, random.Random] = {}

    def stream(self, name: str) -> random.Random:
        """Return the stream for ``name``, creating it on first use.

        The stream's seed is derived from the master seed and the name via
        SHA-256, so streams are statistically independent and stable across
        runs and Python versions.
        """
        existing = self._streams.get(name)
        if existing is not None:
            return existing
        digest = hashlib.sha256(f"{self.seed}:{name}".encode("utf-8")).digest()
        stream_seed = int.from_bytes(digest[:8], "big")
        stream = random.Random(stream_seed)
        self._streams[name] = stream
        return stream

    def spawn(self, name: str) -> "RandomStreams":
        """Create a child factory whose streams are independent of the parent's."""
        digest = hashlib.sha256(f"{self.seed}:spawn:{name}".encode("utf-8")).digest()
        return RandomStreams(int.from_bytes(digest[:8], "big"))

    def names(self) -> list[str]:
        """Names of the streams created so far (diagnostic helper)."""
        return sorted(self._streams)
