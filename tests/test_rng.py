"""Random stream determinism and uniform tick draws."""

from taskdse.rng import MASK64, SplitMix64, derive_seed, mix64, stream_for


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
    s = SplitMix64(1)
    for _ in range(1000):
        u = s.uniform()
        assert 0.0 <= u < 1.0


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
    """uniform_ticks inlines the splitmix64 step; 120k draws over several
    windows equal lo + int(uniform() * span) drawn from a twin stream."""
    windows = [(0, 1), (3, 6), (0, 999), (150, 2100), (82000, 118000), (5, 2**40)]
    fast, ref = SplitMix64(31337), SplitMix64(31337)
    for n in range(120_000):
        lo, hi = windows[n % len(windows)]
        expect = lo + int(ref.uniform() * (hi - lo + 1))
        assert fast.uniform_ticks(lo, hi) == min(expect, hi), (n, lo, hi)
    assert fast.next_u64() == ref.next_u64()
