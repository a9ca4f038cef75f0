"""Cryptographic substrate for DELTA and SIGMA.

Nonces and the XOR key algebra used by the layered DELTA instantiation.
The values are simulation-grade (deterministic when seeded), not production
cryptography; what matters for the reproduction is the *reconstructability*
semantics, which is preserved exactly.
"""

from .nonce import DEFAULT_KEY_BITS, NonceGenerator
from .xorkeys import KeyAccumulator, xor_fold

__all__ = [
    "DEFAULT_KEY_BITS",
    "NonceGenerator",
    "KeyAccumulator",
    "xor_fold",
]
