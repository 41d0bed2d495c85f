"""Seeded, splittable random streams on top of numpy's Philox generator.

Every stochastic operation in this package takes an explicit stream, so
results are bit-reproducible given a root seed, and independent sub-streams
for parallel work are obtained by deterministic splitting.
"""

from __future__ import annotations

import functools

import numpy as np


class RandomStream:
    """A counter-based random stream that can be split into independent children."""

    def __init__(self, seed):
        if isinstance(seed, np.random.SeedSequence):
            self._seq = seed
        else:
            self._seq = np.random.SeedSequence(int(seed))

    @functools.cached_property
    def gen(self):   # built at first use: a check that never draws builds none
        return np.random.Generator(np.random.Philox(self._seq))

    def split(self, n):
        """Return ``n`` independent child streams, deterministically derived."""
        return [RandomStream(child) for child in self._seq.spawn(n)]

    def __repr__(self):
        return f"RandomStream(entropy={self._seq.entropy})"
