"""Deterministic random-stream derivation.

Every stochastic step in the package draws from a counter-based Philox
generator keyed by a stable hash of (seed, purpose, indices...).  Streams are
therefore independent of execution order and worker count: the tree with
index 7 sees the same randomness whether it is built first, last, or in a
subprocess.
"""

from __future__ import annotations

import hashlib

import numpy as np
from numpy.random.bit_generator import ISeedSequence

_MASK64 = (1 << 64) - 1


def derive_seed(*parts: int | str) -> int:
    """Stable 64-bit seed from a mixed tuple of ints and strings.

    Uses SHA-256 over a length-prefixed encoding, so (1, "ab") and ("1a", "b")
    cannot collide.  Independent of PYTHONHASHSEED and platform.
    """
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, bool) or not isinstance(part, (int, str)):
            raise TypeError(f"seed parts must be int or str, got {type(part).__name__}")
        raw = (
            b"i" + str(int(part)).encode("ascii")
            if isinstance(part, int)
            else b"s" + part.encode("utf-8")
        )
        h.update(len(raw).to_bytes(4, "little"))
        h.update(raw)
    return int.from_bytes(h.digest()[:8], "little") & _MASK64


class _PhiloxKey(ISeedSequence):
    """Hands Philox a 64-bit key as its two key words ``[key, 0]``.

    Philox asks its seed sequence for ``generate_state(2, np.uint64)`` and
    takes the words as its key.  ``Philox(key=k)`` sets the same key, but
    first builds and discards a ``SeedSequence`` from OS entropy, which costs
    most of a call.
    """

    def __init__(self, key: int) -> None:
        self.key = key

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        return np.array([self.key, 0], dtype=np.uint64)


def seeded_rng(*parts: int | str) -> np.random.Generator:
    """Generator on an independent Philox stream keyed by ``parts``."""
    return np.random.Generator(np.random.Philox(_PhiloxKey(derive_seed(*parts))))
