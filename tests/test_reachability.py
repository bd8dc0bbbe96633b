"""Exact formal bounds on the fixture models.

Expected windows are independent hand derivations:
  chain2     [4,6]   serial sum of [1,2]+[3,4]
  indep2     [2,4]   max of [1,3] and [2,4] on two processors
  diamond    [4,7]   s + max(m1, m2) + j with s=[1,2], m=[2,3]/[1,4], j=[1,1]
  stream     [15,23] FIFO pipeline recurrence over three jittered instances
  band16     P blocks of [82,118] over ceil(16/P) sequential rounds
"""

import math

import pytest

from taskdse import fixtures
from taskdse.reachability import (
    BudgetExceeded,
    Network,
    ReachOptions,
    SearchCapExceeded,
    reach_bounds,
)
from taskdse.timebase import to_ticks

U = to_ticks


def test_chain2_exact_bounds():
    r = reach_bounds(fixtures.chain2())
    assert (r.makespan.lo, r.makespan.hi) == (U(4), U(6))
    assert (r.latency.lo, r.latency.hi) == (U(4), U(6))
    assert r.terminal_reached and not r.overflow_reachable


def test_indep2_exact_bounds():
    r = reach_bounds(fixtures.indep2())
    assert (r.makespan.lo, r.makespan.hi) == (U(2), U(4))


def test_diamond_exact_bounds():
    r = reach_bounds(fixtures.diamond())
    assert (r.makespan.lo, r.makespan.hi) == (U(4), U(7))


def test_diamond_against_dense_grid_oracle():
    # brute force: max finish over all corner work assignments of the DAG
    # schedule s -> {m1, m2} on two PEs -> j, work drawn on a 0.5 grid
    def finish(s, m1, m2, j):
        return s + max(m1, m2) + j

    lo, hi = math.inf, -math.inf
    grid = lambda a, b: [a + k * 0.5 for k in range(int((b - a) * 2) + 1)]
    for s in grid(1, 2):
        for m1 in grid(2, 3):
            for m2 in grid(1, 4):
                for j in grid(1, 1):
                    v = finish(s, m1, m2, j)
                    lo, hi = min(lo, v), max(hi, v)
    r = reach_bounds(fixtures.diamond())
    assert (r.makespan.lo, r.makespan.hi) == (U(lo), U(hi))


def test_stream_chain_bounds():
    r = reach_bounds(fixtures.stream_chain(), ReachOptions())
    assert (r.makespan.lo, r.makespan.hi) == (U(15), U(23))
    assert (r.latency.lo, r.latency.hi) == (U(5), U(10))
    assert set(r.instance_latency) == {0, 1, 2}
    for iv in r.instance_latency.values():
        assert r.latency.lo <= iv.lo <= iv.hi <= r.latency.hi


def test_mapping_stream_single_instance_worst_case():
    m = fixtures.mapping_stream()
    r = reach_bounds(m)  # instance_bound=1 truncates the stream
    assert r.makespan.hi == U(8400)
    assert r.makespan.lo == U(600)
    assert (r.latency.lo, r.latency.hi) == (U(600), U(8400))


BAND_ORACLE = {
    1: (1312, 1888),
    2: (656, 944),
    4: (328, 472),
    8: (164, 236),
}


@pytest.mark.parametrize("p", sorted(BAND_ORACLE))
def test_band16_bounds_per_processor_count(p):
    lo, hi = BAND_ORACLE[p]
    r = reach_bounds(fixtures.band16(p), ReachOptions(clock_budget=40))
    assert (r.makespan.lo, r.makespan.hi) == (U(lo), U(hi))


def test_merge_off_gives_identical_bounds():
    for m in (fixtures.chain2(), fixtures.diamond(), fixtures.stream_chain()):
        a = reach_bounds(m, ReachOptions(merge=True))
        b = reach_bounds(m, ReachOptions(merge=False))
        assert (a.makespan, a.latency) == (b.makespan, b.latency)
        assert b.zones >= a.zones


def test_purge_off_gives_identical_bounds():
    m = fixtures.diamond()
    a = reach_bounds(m, ReachOptions(purge=True))
    b = reach_bounds(m, ReachOptions(purge=False))
    assert (a.makespan, a.latency) == (b.makespan, b.latency)


def test_clock_budget_enforced_before_search():
    with pytest.raises(BudgetExceeded) as ei:
        reach_bounds(fixtures.band16(16), ReachOptions(clock_budget=3))
    msg = str(ei.value)
    assert "budget 3" in msg and "clocks" in msg


def test_state_cap_enforced():
    with pytest.raises(SearchCapExceeded):
        reach_bounds(fixtures.band16(4), ReachOptions(clock_budget=40, state_cap=5))


def test_clock_need_formula_on_chain2():
    # global T + makespan clock + 1 concurrent instance + 1 processor = 4
    Network(fixtures.chain2(), ReachOptions(clock_budget=4))
    with pytest.raises(BudgetExceeded):
        Network(fixtures.chain2(), ReachOptions(clock_budget=3))


def test_overflow_reachable_flagged():
    # capacity 1 with two forced-simultaneous arrivals: second one must drop
    m = fixtures.mapping_stream(period=4000)
    m.deployment.queue_capacity = 1
    m.instance_bound = 2
    for g in m.generators:
        g.count = 2
        g.jitter = 0
        g.period = U(1)
    r = reach_bounds(m)
    assert r.overflow_reachable


def test_instance_latency_matches_single_instance():
    r = reach_bounds(fixtures.chain2())
    assert set(r.instance_latency) == {0}
    assert r.instance_latency[0] == r.latency
