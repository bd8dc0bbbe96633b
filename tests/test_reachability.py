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

from taskdse import fixtures, simulator
from taskdse.generators import Generator
from taskdse.model import SystemModel
from taskdse.reachability import (
    BudgetExceeded,
    Network,
    ReachOptions,
    SearchCapExceeded,
    reach_bounds,
)
from taskdse.simulator import run_campaign
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


def chain2_stream(gen: Generator) -> SystemModel:
    """chain2 fed three instances by `gen`, all three analysed."""
    m = fixtures.chain2()
    m.generators = [gen]
    m.instance_bound = 3
    return m


VARIANT_BOUNDS = {
    "periodic": (Generator("chain", "periodic", period=U(3), count=3),
                 (U(12), U(18)), (U(4), U(12))),
    "jitter": (Generator("chain", "jitter", period=U(3), jitter=U(2), count=3),
               (U(12), U(18)), (U(4), U(14))),
    "uncertain": (Generator("chain", "uncertain", period=U(3), jitter=U(2), count=3),
                  (U(12), U(18)), (U(4), U(12))),
    "bounded_var": (Generator("chain", "bounded_var", window=U(5), max_events=2, count=3,
                              arrivals=[0, U(1), U(6)]),
                    (U(12), math.inf), (U(4), U(13))),
    "bibounded_var": (Generator("chain", "bibounded_var", window=U(5), min_events=1,
                                max_events=2, count=3, arrivals=[0, U(1), U(6)]),
                      (U(12), U(18)), (U(4), U(13))),
}


@pytest.mark.parametrize("variant", sorted(VARIANT_BOUNDS))
def test_every_generator_variant_bounds_chain2(variant):
    """Hand-derived bounds of chain2 (a [1,2] -> b [3,4] on one processor).

    Each instance needs [4, 6] of the one processor and FIFO serves the
    instances in arrival order, so the last end is the latest over k of
    (arrival k + work of instances k..3); the makespan counts from the first
    arrival and an instance's latency from its own arrival.  The fastest
    instance alone gives latency 4, and all three fast back to back give
    makespan 12, in every variant.
      periodic(3)       arrivals 0, 3, 6: the processor never idles, so the
                        makespan is the work [12, 18]; instance 3 arrives at
                        6 and ends by 18: latency 12.
      jitter(3, 2)      a first arrival at 2 and a third at 6 give latency
                        2 + 18 - 6 = 14; an arrival window starting 3 later
                        than its predecessor's never adds idle time beyond
                        the slow run: makespan 18 (5 + 12 and 8 + 6 are less).
      uncertain(3, 2)   the third arrival comes at least 6 after the first:
                        latency 18 - 6 = 12; makespan 18 as for jitter.
      bounded_var(5, 2) at most two arrivals in any closed 5-window and none
                        forced: the third may come arbitrarily late
                        (makespan unbounded) or just over 5 after two
                        simultaneous ones, so latency tends to 18 - 5 = 13.
      bibounded_var(5, 1, 2)  as bounded_var, but the first arrival comes by
                        5 and each next one within 5 of its predecessor, so
                        the third comes by 10: makespan 18 (5 + 12 and
                        10 + 6 are less), latency tends to 13.
    The two window variants sample their explicit arrivals 0, 1, 6.
    """
    gen, makespan, latency = VARIANT_BOUNDS[variant]
    m = chain2_stream(gen)
    r = reach_bounds(m)
    assert (r.makespan.lo, r.makespan.hi) == makespan
    assert (r.latency.lo, r.latency.hi) == latency
    assert r.terminal_reached and not r.overflow_reachable
    c = run_campaign(m, 300, seed=5)
    makespans = c.values("makespan")
    assert len(makespans) == 300
    for v in makespans:
        assert r.makespan.lo <= v <= r.makespan.hi, f"makespan {v} outside"
    for v in c.values("job_latency[chain]"):
        assert r.latency.lo <= v <= r.latency.hi, f"latency {v} outside"


def test_a_search_compiles_its_model_once(monkeypatch):
    """reach_bounds builds the simulator's CompiledModel once: one graph per
    job type, and each (task, resource) window at most once."""
    calls = {"expand_comm_tasks": 0, "task_duration": 0}

    def counted(name):
        original = getattr(simulator, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(simulator, name, wrapper)

    counted("expand_comm_tasks")
    counted("task_duration")
    m = fixtures.mapping_stream()
    reach_bounds(m)
    assert calls["expand_comm_tasks"] == len(m.job_types)
    tasks = sum(len(jt.tasks) for jt in m.job_types)  # fifo_local: one PE each
    assert 0 < calls["task_duration"] <= tasks
