"""Arrival generator laws: windows, sampling, sliding-window validation."""

import bisect

import pytest

from taskdse.generators import (
    GLOBAL,
    ArrivalRule,
    Bound,
    Generator,
    NoProbabilisticSemantics,
    arrival_rule,
    check_variability,
    generator_violations,
    own_clocks,
    sample_arrivals,
)
from taskdse.rng import SplitMix64, stream_for
from taskdse.timebase import to_ticks

U = to_ticks  # time units -> ticks


def test_periodic_window_is_grid_point():
    g = Generator("j", "periodic", period=U(5), count=3)
    assert arrival_rule(g, 3) == ArrivalRule(Bound(GLOBAL, U(10)), Bound(GLOBAL, U(10)), None)
    assert own_clocks(g) == 0


def test_jitter_window_anchored_to_grid():
    g = Generator("j", "jitter", period=U(5), jitter=U(1), count=3)
    assert arrival_rule(g, 3) == ArrivalRule(Bound(GLOBAL, U(10)), Bound(GLOBAL, U(11)), None)
    assert arrival_rule(g, 1) == ArrivalRule(Bound(GLOBAL, 0), Bound(GLOBAL, U(1)), None)


def test_uncertain_window_shifts_from_previous():
    # the own clock restarts at every arrival, so the window follows the last
    g = Generator("j", "uncertain", period=U(5), jitter=U(1))
    assert own_clocks(g) == 1
    assert arrival_rule(g, 4) == ArrivalRule(Bound(0, U(5)), Bound(0, U(6)), 0)
    assert arrival_rule(g, 1) == ArrivalRule(None, Bound(0, U(1)), 0)


def test_window_variants_have_no_per_arrival_window():
    # at most max arrivals per window: nothing forces an arrival, and arrival
    # k waits strictly longer than the window after arrival k - max
    g = Generator("j", "bounded_var", window=U(6), max_events=2)
    assert own_clocks(g) == 2
    assert [arrival_rule(g, k) for k in (1, 2, 3, 4)] == [
        ArrivalRule(None, None, 0),
        ArrivalRule(None, None, 1),
        ArrivalRule(Bound(0, U(6), strict=True), None, 0),
        ArrivalRule(Bound(1, U(6), strict=True), None, 1),
    ]
    g = Generator("j", "bibounded_var", window=U(6), min_events=1, max_events=2)
    assert arrival_rule(g, 1).deadline == Bound(GLOBAL, U(6))
    assert arrival_rule(g, 3).deadline == Bound(1, U(6))


def test_periodic_samples_are_exact():
    g = Generator("j", "periodic", period=U(5), count=3)
    assert sample_arrivals(g, SplitMix64(123)) == [0, U(5), U(10)]


def test_jitter_deviation_never_accumulates():
    g = Generator("j", "jitter", period=U(5), jitter=U(1), count=100)
    for seed in range(5):
        times = sample_arrivals(g, stream_for(seed, 0))
        for k, t in enumerate(times, start=1):
            dev = t - (k - 1) * U(5)
            assert 0 <= dev <= U(1), f"index {k} deviates by {dev}"


def test_uncertain_gaps_within_window_and_drift_accumulates():
    g = Generator("j", "uncertain", period=U(5), jitter=U(1), count=100)
    drifted = False
    for seed in range(10):
        times = sample_arrivals(g, stream_for(seed, 0))
        for a, b in zip(times, times[1:]):
            assert U(5) <= b - a <= U(6)
        if times[-1] - 99 * U(5) > U(1):
            drifted = True
    assert drifted, "drift should exceed the jitter bound for some seed"


def test_same_seed_same_samples():
    g = Generator("j", "jitter", period=U(7), jitter=U(2), count=50)
    assert sample_arrivals(g, stream_for(9, 3)) == sample_arrivals(g, stream_for(9, 3))
    assert sample_arrivals(g, stream_for(9, 3)) != sample_arrivals(g, stream_for(9, 4))


def test_window_variants_refuse_to_sample():
    g = Generator("j", "bounded_var", window=U(6), max_events=2, count=3)
    with pytest.raises(NoProbabilisticSemantics):
        sample_arrivals(g, SplitMix64(1))


def test_explicit_arrivals_pass_through():
    g = Generator("j", "bounded_var", window=U(6), max_events=2, count=3,
                  arrivals=[0, U(5), U(10)])
    assert sample_arrivals(g, SplitMix64(1)) == [0, U(5), U(10)]


def test_check_variability_examples():
    assert check_variability([0, U(5), U(10)], U(6), 2) is True
    assert check_variability([0, U(1), U(2)], U(6), 2) is False
    assert check_variability([0, U(5), U(10)], U(6), 2, min_events=1) is True


def test_check_variability_rejects_unsorted():
    with pytest.raises(ValueError):
        check_variability([U(5), 0], U(6), 2)


def test_sampled_sequences_satisfy_their_own_bounds():
    # jitter d=5 J=1: any window of length 10 holds at most 3 arrivals
    g = Generator("j", "jitter", period=U(5), jitter=U(1), count=60)
    times = sample_arrivals(g, stream_for(4, 0))
    assert check_variability(times, U(10), 3)
    assert check_variability(times, U(10), 2) is False or max(
        times[i + 2] - times[i] for i in range(len(times) - 2)
    ) > U(10)


def _oracle_check(times, window, max_events, min_events=None):
    """Fine-grid reference: anchor the window at every critical point."""
    anchors = {0.0}
    for t in times:
        for r in (t, t + 0.5, t - window, t - window + 0.5):
            if r >= 0:
                anchors.add(float(r))
    for r in sorted(anchors):
        count = bisect.bisect_right(times, r + window) - bisect.bisect_left(times, r)
        if count > max_events:
            return False
    if min_events is not None and min_events > 0 and times and window <= times[-1]:
        for r in sorted(anchors):
            if r + window > times[-1]:
                continue
            count = bisect.bisect_right(times, r + window) - bisect.bisect_left(times, r)
            if count < min_events:
                return False
    return True


def test_check_variability_agrees_with_fine_grid_oracle():
    rng = SplitMix64(0xC0FFEE)
    for case in range(200):
        n = 1 + rng.next_u64() % 8
        times = sorted(int(rng.next_u64() % 30) for _ in range(n))
        window = 1 + int(rng.next_u64() % 12)
        max_events = 1 + int(rng.next_u64() % 4)
        min_events = int(rng.next_u64() % 3) or None
        got = check_variability(times, window, max_events, min_events)
        want = _oracle_check(times, window, max_events, min_events)
        assert got == want, (times, window, max_events, min_events)


def test_generator_violations():
    assert generator_violations(Generator("j", "periodic", period=U(5), count=3)) == []
    assert generator_violations(Generator("j", "periodic", period=0))
    assert generator_violations(Generator("j", "nonsense"))
    # jitter must stay below the period to keep windows disjoint
    assert generator_violations(Generator("j", "jitter", period=U(5), jitter=U(5)))
    assert generator_violations(Generator("j", "bibounded_var", window=U(5), max_events=2, min_events=3))
    bad = Generator("j", "periodic", period=U(5), count=2, arrivals=[U(5), 0])
    assert generator_violations(bad)


EXPLICIT = [
    (Generator("j", "bounded_var", window=U(6), max_events=2, count=3), [0, 5, 10], None),
    (Generator("j", "bounded_var", window=U(6), max_events=2, count=3), [0, 5, 6], 3),
    (Generator("j", "jitter", period=U(5), jitter=U(1), count=3), [0, 5, 11], None),
    (Generator("j", "jitter", period=U(5), jitter=U(1), count=3), [0, 5, 12], 3),
    (Generator("j", "bibounded_var", window=U(5), min_events=1, max_events=2, count=3),
     [0, 1, 6], None),
    (Generator("j", "bibounded_var", window=U(5), min_events=1, max_events=2, count=3),
     [0, 1, 7], 3),
]


@pytest.mark.parametrize("g,times,broken", EXPLICIT)
def test_explicit_arrivals_must_follow_the_variant_rule(g, times, broken):
    g.arrivals = [U(t) for t in times]
    got = [str(v) for v in generator_violations(g)]
    if broken is None:
        assert got == []
    else:
        assert got == [f"BadExplicitArrivals{{j}}: arrival {broken} breaks the {g.variant} rule"]
