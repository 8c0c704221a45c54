"""Deterministic random number generation.

Every stochastic component in the library (random circuit generators,
benchmark workload synthesis) obtains its generator through
:func:`deterministic_rng` so that test runs and benchmark tables are
reproducible bit-for-bit across machines.
"""

from __future__ import annotations

import random

Seed = int | str | None


def deterministic_rng(seed: Seed = 0) -> random.Random:
    """Return a :class:`random.Random` seeded deterministically.

    String seeds are hashed with a stable (non-randomised) scheme so that a
    generator keyed by a circuit name yields the same stream on every run.
    """
    if isinstance(seed, str):
        value = 0
        for ch in seed:
            value = (value * 131 + ord(ch)) & 0xFFFFFFFF
        seed = value
    return random.Random(seed)
