"""Deterministic 64-bit random streams for replayable campaigns.

The generator is splitmix64 (Steele/Lea/Flood): a 64-bit counter advanced by
the golden-ratio increment, mixed through two xor-multiply rounds.  Uniform
reals take the 53 high bits of one output word.  Independent per-run streams
are derived by hashing (seed, run_index) through the same mixer, so replaying
run i never depends on how many runs preceded it.

Word k of a stream seeded with s is mix64((s + k * GOLDEN) mod 2**64), a
function of the counter alone, so a stream computes its words a block at a
time with numpy uint64 vector arithmetic, which wraps modulo 2**64 like the
scalar form.  The first block holds 32 words and each later one twice as
many, up to 4,096; `next_u64` and `uniform_ticks` both take the next word
of the current block.  Blocks change only the cost of a draw: a stream
yields exactly the words of the scalar recurrence, in the same order, however
its draws are mixed, and a point window still consumes no word.
"""

from __future__ import annotations

import numpy as np

MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15

_FIRST_BLOCK, _MAX_BLOCK = 32, 4096
# numpy constants are explicit uint64 scalars: numpy 1.x would promote a
# uint64 array combined with a Python int to float64
_GOLDEN = np.uint64(GOLDEN)
_MUL1, _MUL2 = np.uint64(0xBF58476D1CE4E5B9), np.uint64(0x94D049BB133111EB)
_S27, _S30, _S31 = np.uint64(27), np.uint64(30), np.uint64(31)
_steps: dict[int, np.ndarray] = {}  # block size n -> [1..n] * GOLDEN, filled on first use


def mix64(z: int) -> int:
    """splitmix64 finalizer: bijective 64-bit mixing."""
    z &= MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


class SplitMix64:
    """One independent random stream."""

    def __init__(self, seed: int):
        self._state = seed & MASK64  # the counter of the current block's last word
        self._size = _FIRST_BLOCK  # the next block's length
        self._next = iter(()).__next__  # the current block's unread words

    def _refill(self) -> int:
        """Compute the next block of words and return its first."""
        n = self._size
        steps = _steps.get(n)
        if steps is None:
            steps = _steps[n] = np.arange(1, n + 1, dtype=np.uint64) * _GOLDEN
        z = steps + np.uint64(self._state)
        z ^= z >> _S30
        z *= _MUL1
        z ^= z >> _S27
        z *= _MUL2
        z ^= z >> _S31
        self._state = (self._state + n * GOLDEN) & MASK64
        self._size = min(2 * n, _MAX_BLOCK)
        self._next = words = iter(z.tolist()).__next__
        return words()

    def next_u64(self) -> int:
        try:
            return self._next()
        except StopIteration:
            return self._refill()

    def uniform_ticks(self, lo: int, hi: int) -> int:
        """Uniform integer draw from the inclusive tick window [lo, hi]."""
        if hi < lo:
            raise ValueError("empty tick window")
        if hi == lo:
            return lo
        # next_u64 inlined, one call per sampled duration; the 53 high bits
        # make a uniform double in [0, 1)
        try:
            w = self._next()
        except StopIteration:
            w = self._refill()
        v = lo + int((w >> 11) * (2.0**-53) * (hi - lo + 1))
        return hi if v > hi else v


def stream_for(seed: int, index: int) -> SplitMix64:
    """Stream i of a campaign seeded with `seed`: state0 = mix(mix(seed) ^ mix(i+1))."""
    return SplitMix64(mix64(seed) ^ mix64((index + 1) * GOLDEN))


def derive_seed(seed: int, index: int) -> int:
    """Independent sub-seed i (sweep points), safe to feed back to stream_for."""
    return mix64(mix64(seed) ^ mix64((index + 1) * GOLDEN))
