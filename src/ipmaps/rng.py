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

    def ahead(self, words):
        """A generator reading this stream `words` 64-bit words on (one a
        `random` double), leaving it in place: none between is made."""
        state = self.gen.bit_generator.state
        # the counter numbers the buffered block of four words from 1
        counter = int.from_bytes(state["state"]["counter"].astype("<u8"),
                                 "little")
        at = 4 * (counter - 1) + state["buffer_pos"] + words
        bits = np.random.Philox(counter=at // 4 % (1 << 256),
                                key=state["state"]["key"])
        bits.random_raw(at % 4)
        return np.random.Generator(bits)

    def skip(self, words):
        """Move this stream `words` 64-bit words on, as drawing them would."""
        bits = self.gen.bit_generator
        bits.state = {**self.ahead(words).bit_generator.state,
                      **{k: bits.state[k] for k in ("has_uint32", "uinteger")}}

    def split(self, n):
        """Return ``n`` independent child streams, deterministically derived."""
        return [RandomStream(child) for child in self._seq.spawn(n)]

    def __repr__(self):
        return f"RandomStream(entropy={self._seq.entropy})"
