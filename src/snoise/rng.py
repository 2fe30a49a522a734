"""Counter-based random streams for reproducible, order-independent Monte Carlo.

Streams are numpy Philox generators keyed by ``(seed, path_index, tag)``.
Because the key alone determines the stream, simulating path ``i`` never
consumes randomness meant for path ``j``: path batches can run in any order
(or in parallel) and still produce bit-identical output.

Tag space
---------
===================  =====================================================
``TAG_EVENTS``  (0)  candidate event times and thinning accepts
``TAG_MARKS``   (1)  mark draws attached to accepted events
``TAG_BROWNIAN``(2)  Brownian increments in the stock simulator
``TAG_HAWKES``  (3)  Ogata thinning for the self-exciting intensity
``TAG_BATCH``   (4)  batch Monte Carlo oracle (counts, times, marks)
``TAG_AVG``     (5)  fixed substream for sample-only mark averaging
``TAG_BATCH_PRIME`` (6)  second batch oracle stream (direct target-measure runs)
``TAG_STOCK_JUMPS`` (7)  jump batch of the stock simulator
``TAG_HAWKES_BATCH`` (8)  exact batch Hawkes simulation
===================  =====================================================

The key is the whole seed sequence: :func:`make_stream` hands Philox a
seed sequence whose only state is ``(seed, path_index << 32 | tag)``, so
building a stream reads no OS entropy (``Philox(key=...)`` draws a
``SeedSequence()`` from ``os.urandom`` and discards it).  Philox starts
from that key with a zero counter and an empty buffer: the same state, and
the same draws, as ``Philox(key=...)``.

Tags 0-3 key one stream per path.  The other tags key one stream each, at
path index 0; a batch thinned to a time-varying rate draws its acceptance
uniforms from path index 1 of its tag, so its candidates stay the batch an
unthinned run would draw.
"""

from __future__ import annotations

import numpy as np
from numpy.random.bit_generator import ISeedSequence

TAG_EVENTS = 0
TAG_MARKS = 1
TAG_BROWNIAN = 2
TAG_HAWKES = 3
TAG_BATCH = 4
TAG_AVG = 5
TAG_BATCH_PRIME = 6
TAG_STOCK_JUMPS = 7
TAG_HAWKES_BATCH = 8

_MASK64 = (1 << 64) - 1


class _StreamKey(ISeedSequence):
    """A seed sequence whose whole state is one two-word Philox key."""

    def __init__(self, key: tuple[int, int]):
        self.key = key

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 2 or np.dtype(dtype) != np.uint64:
            raise ValueError(
                "a stream key is exactly 2 uint64 words, "
                f"not {n_words} of {np.dtype(dtype)}")
        return np.array(self.key, dtype=np.uint64)


def make_stream(seed: int, path_index: int = 0, tag: int = 0) -> np.random.Generator:
    """Return the Philox stream keyed by ``(seed, path_index, tag)``."""
    if not 0 <= path_index < 2**32:
        raise ValueError("path_index must fit in 32 bits")
    if not 0 <= tag < 2**32:
        raise ValueError("tag must fit in 32 bits")
    key = _StreamKey((int(seed) & _MASK64, (int(path_index) << 32) | int(tag)))
    return np.random.Generator(np.random.Philox(key))
