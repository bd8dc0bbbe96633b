"""Deterministic 64-bit random streams for replayable campaigns.

The generator is splitmix64 (Steele/Lea/Flood): a 64-bit counter advanced by
the golden-ratio increment, mixed through two xor-multiply rounds.  Uniform
reals take the 53 high bits of one output word.  Independent per-run streams
are derived by hashing (seed, run_index) through the same mixer, so replaying
run i never depends on how many runs preceded it.
"""

from __future__ import annotations

MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15


def mix64(z: int) -> int:
    """splitmix64 finalizer: bijective 64-bit mixing."""
    z &= MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


class SplitMix64:
    """One independent random stream."""

    def __init__(self, seed: int):
        self._state = seed & MASK64

    def next_u64(self) -> int:
        self._state = (self._state + GOLDEN) & MASK64
        return mix64(self._state)

    def uniform(self) -> float:
        # 53 high bits -> uniform double in [0, 1)
        return (self.next_u64() >> 11) * (2.0**-53)

    def uniform_ticks(self, lo: int, hi: int) -> int:
        """Uniform integer draw from the inclusive tick window [lo, hi]."""
        if hi < lo:
            raise ValueError("empty tick window")
        if hi == lo:
            return lo
        # next_u64, mix64 and uniform inlined: one call per sampled duration
        z = self._state = (self._state + GOLDEN) & MASK64
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        v = lo + int(((z ^ (z >> 31)) >> 11) * (2.0**-53) * (hi - lo + 1))
        return hi if v > hi else v


def stream_for(seed: int, index: int) -> SplitMix64:
    """Stream i of a campaign seeded with `seed`: state0 = mix(mix(seed) ^ mix(i+1))."""
    return SplitMix64(mix64(seed) ^ mix64((index + 1) * GOLDEN))


def derive_seed(seed: int, index: int) -> int:
    """Independent sub-seed i (sweep points), safe to feed back to stream_for."""
    return mix64(mix64(seed) ^ mix64((index + 1) * GOLDEN))
