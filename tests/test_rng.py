"""Random stream determinism and uniform tick draws."""

from taskdse.rng import GOLDEN, MASK64, SplitMix64, derive_seed, mix64, stream_for


def _word(seed: int, k: int) -> int:
    """Word k (from 1) of the stream seeded with `seed`, in the scalar form
    splitmix64 defines, independent of how SplitMix64 computes it."""
    return mix64((seed + k * GOLDEN) % 2**64)


def _ticks(word: int, lo: int, hi: int) -> int:
    """The tick in [lo, hi] that `word` draws: lo + int(uniform * span)."""
    return min(lo + int((word >> 11) * 2.0**-53 * (hi - lo + 1)), hi)


def test_known_first_output():
    # splitmix64 with seed 0: first word is the mix of the golden increment
    assert SplitMix64(0).next_u64() == 0xE220A8397B1DCDAF


def test_mix64_is_masked_and_deterministic():
    assert mix64(2**70 + 5) == mix64(2**70 + 5 & MASK64)
    assert mix64(12345) == mix64(12345)


def test_streams_replay_exactly():
    a = [stream_for(42, 3).next_u64() for _ in range(4)]
    b = []
    s = stream_for(42, 3)
    for _ in range(4):
        b.append(s.next_u64())
        s = stream_for(42, 3)  # restart: prefix must repeat
        for _ in range(len(b) - 1):
            s.next_u64()
    assert a[:1] == b[:1]
    s1, s2 = stream_for(7, 0), stream_for(7, 0)
    assert [s1.next_u64() for _ in range(10)] == [s2.next_u64() for _ in range(10)]


def test_streams_independent_of_run_count():
    # stream i never depends on how many runs preceded it
    direct = stream_for(99, 5).next_u64()
    s_other = stream_for(99, 4)
    for _ in range(17):
        s_other.next_u64()
    assert stream_for(99, 5).next_u64() == direct


def test_uniform_in_unit_interval():
    """uniform_ticks scales a unit draw in [0, 1), the word's 53 high bits
    over 2**53, so over a 2**53-tick window it reads those bits exactly."""
    s, words = SplitMix64(1), SplitMix64(1)
    for _ in range(1000):
        v = s.uniform_ticks(0, 2**53 - 1)
        assert 0 <= v < 2**53 and v == words.next_u64() >> 11


def test_uniform_ticks_covers_inclusive_window():
    s = SplitMix64(2)
    seen = set()
    for _ in range(500):
        v = s.uniform_ticks(3, 6)
        assert 3 <= v <= 6
        seen.add(v)
    assert seen == {3, 4, 5, 6}


def test_point_window_consumes_no_draw():
    a, b = SplitMix64(5), SplitMix64(5)
    assert a.uniform_ticks(7, 7) == 7
    # a's state untouched: next draws coincide
    assert a.next_u64() == b.next_u64()


def test_derive_seed_distinct_and_stable():
    seeds = {derive_seed(1234, i) for i in range(100)}
    assert len(seeds) == 100
    assert derive_seed(1234, 7) == derive_seed(1234, 7)
    assert derive_seed(1234, 7) != derive_seed(1235, 7)


def test_uniform_ticks_matches_the_reference_composition():
    """120k draws over several windows equal lo + int(uniform * span), with
    uniform taken from word k of the scalar recurrence."""
    windows = [(0, 1), (3, 6), (0, 999), (150, 2100), (82000, 118000), (5, 2**40)]
    fast = SplitMix64(31337)
    for n in range(120_000):
        lo, hi = windows[n % len(windows)]
        assert fast.uniform_ticks(lo, hi) == _ticks(_word(31337, n + 1), lo, hi), (n, lo, hi)
    assert fast.next_u64() == _word(31337, 120_001)


def test_a_counter_wrapping_inside_a_block_keeps_the_scalar_words():
    """The counter passes 2**64 in the first block; 8,200 words cross the
    block edges after 32, 96, 224, ..., 4,064 and 8,160 words."""
    s = SplitMix64(MASK64 - 5)
    assert [s.next_u64() for _ in range(8200)] == [_word(MASK64 - 5, k) for k in range(1, 8201)]


try:
    from hypothesis import given, settings, strategies as hs
except ImportError:  # the scalar comparisons above still run
    given = None

if given is not None:
    # one op: (kind, repeat, lo, span); kinds are next_u64, the 53-bit
    # unit draw (uniform_ticks over [0, 2**53 - 1]), uniform_ticks over
    # [lo, lo + span] and a point window [lo, lo]
    OPS = hs.tuples(hs.sampled_from(["u64", "uniform", "ticks", "point"]),
                    hs.integers(1, 700), hs.integers(0, 2**40), hs.integers(1, 2**40))

    @settings(max_examples=60, deadline=None)
    @given(hs.one_of(hs.integers(0, MASK64), hs.integers(2**64 - 2**12, MASK64),
                     hs.integers(0, 2**12)),
           hs.lists(OPS, max_size=14))
    def test_any_mix_of_draws_yields_the_scalar_words_in_order(seed, ops):
        """Whatever mix of draws a stream serves, word k of its output is
        mix64(seed + k * GOLDEN) and a point window takes no word.  Every
        example ends by drawing past word 8,160, so it crosses the block
        edges after 32, 96 and 224 words and two capped blocks."""
        s, k = SplitMix64(seed), 0
        for kind, repeat, lo, span in ops:
            for _ in range(repeat):
                if kind == "point":
                    assert s.uniform_ticks(lo, lo) == lo
                    continue
                k += 1
                word = _word(seed, k)
                if kind == "u64":
                    assert s.next_u64() == word, k
                elif kind == "uniform":
                    assert s.uniform_ticks(0, 2**53 - 1) == word >> 11, k
                else:
                    assert s.uniform_ticks(lo, lo + span) == _ticks(word, lo, lo + span), k
        while k < 8200:
            k += 1
            assert s.next_u64() == _word(seed, k), k
