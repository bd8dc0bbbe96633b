"""Event-driven simulation: golden traces, determinism, campaign folding."""

from fractions import Fraction

import pytest

from taskdse import fixtures, metrics, schedulers, simulator
from taskdse.generators import Generator
from taskdse.model import (DataEdge, Deployment, JobType, Platform, Processor, SystemModel, TaskSpec,
                           WorkInterval, validate_model)
from taskdse.metrics import MetricSpec, busy_intervals, extract
from taskdse.rng import stream_for
from taskdse.schedulers import DONE, strict_pick
from taskdse.simulator import CompiledModel, run_campaign, simulate
from taskdse.timebase import SCALE, to_ticks

CHAIN2_GOLDEN = (
    "0.000000 arrival gen=0 inst=0 job=chain\n"
    "0.000000 freq_set pe=PE0 f=1\n"
    "0.000000 start inst=0 job=chain task=a on=PE0 f=1\n"
    "1.182733 end inst=0 job=chain task=a on=PE0\n"
    "1.182733 start inst=0 job=chain task=b on=PE0 f=1\n"
    "4.851575 end inst=0 job=chain task=b on=PE0\n"
)


def test_chain2_golden_trace():
    m = fixtures.chain2()
    t = simulate(m, stream_for(7, 0))
    assert t.text() == CHAIN2_GOLDEN


class Scripted:
    """A draw source that always takes one end of the window and records
    every window it is asked for."""

    def __init__(self, end: str):
        self.end = end
        self.calls = []

    def uniform_ticks(self, lo: int, hi: int) -> int:
        self.calls.append((lo, hi))
        return lo if self.end == "lo" else hi


@pytest.mark.parametrize("end, makespan", [("lo", 4), ("hi", 6)])
def test_a_scripted_source_reaches_each_end_of_the_formal_bounds(end, makespan):
    """chain2's makespan bound is [4, 6]; the run takes one draw for the
    arrival, then one per task start, a then b, point windows included."""
    m = fixtures.chain2()
    draws = Scripted(end)
    t = simulate(m, draws)
    assert extract(t, MetricSpec("makespan")) == [("", to_ticks(makespan))]
    assert draws.calls == [(0, 0), (to_ticks(1), to_ticks(2)), (to_ticks(3), to_ticks(4))]


def test_a_point_window_takes_a_draw_too():
    """band16's read, split, merge and write take no time; each start of
    them is still one draw, as is the arrival and each of the 16 blocks."""
    draws = Scripted("hi")
    simulate(fixtures.band16(1), draws)
    assert len(draws.calls) == 1 + 20
    assert draws.calls.count((0, 0)) == 1 + 4


def test_trace_is_byte_deterministic():
    m = fixtures.stream_chain()
    a = simulate(m, stream_for(123, 4)).text()
    b = simulate(m, stream_for(123, 4)).text()
    assert a == b
    assert simulate(m, stream_for(123, 5)).text() != a
    assert simulate(m, stream_for(124, 4)).text() != a


def test_trace_times_monotone_and_causally_nested():
    m = fixtures.band16(4)
    t = simulate(m, stream_for(5, 0))
    times = [e.time for e in t.events]
    assert times == sorted(times)
    busy_intervals(t.events)  # raises on broken per-resource nesting
    # zero-width framing tasks: their start still precedes their end
    order = [(e.kind, e.task) for e in t.events if e.task == "split"]
    assert order == [("start", "split"), ("end", "split")]


def test_durations_stay_inside_declared_work():
    m = fixtures.chain2()
    for i in range(50):
        t = simulate(m, stream_for(99, i))
        for res, ivs in busy_intervals(t.events).items():
            (s1, e1, _f1), (s2, e2, _f2) = ivs
            assert to_ticks(1) <= e1 - s1 <= to_ticks(2)
            assert to_ticks(3) <= e2 - s2 <= to_ticks(4)


def test_periodic_arrivals_are_exact():
    m = fixtures.stream_chain()  # jitter 2 on period 6
    t = simulate(m, stream_for(1, 0))
    arrivals = [e.time for e in t.events if e.kind == "arrival"]
    assert len(arrivals) == 3
    for k, at in enumerate(arrivals):
        assert k * to_ticks(6) <= at <= k * to_ticks(6) + to_ticks(2)


def test_horizon_override():
    m = fixtures.chain2()
    t = simulate(m, stream_for(7, 0), horizon=to_ticks(50))
    assert t.horizon == to_ticks(50)
    t2 = simulate(m, stream_for(7, 0))
    assert t2.horizon == t2.events[-1].time


def test_overflow_counted_when_queue_saturates():
    m = fixtures.mapping_stream(period=4000)
    t = simulate(m, stream_for(3, 0))
    assert t.overflow_count >= 1
    kinds = {e.kind for e in t.events}
    assert "overflow" in kinds


def test_no_overflow_on_relaxed_period():
    m = fixtures.mapping_stream(period=7000)
    assert simulate(m, stream_for(3, 0)).overflow_count == 0


def test_campaign_reports_and_values():
    m = fixtures.chain2()
    c = run_campaign(m, 40, seed=11)
    assert c.runs == 40 and c.seed == 11
    mk = c.values("makespan")
    assert len(mk) == 40
    assert all(to_ticks(4) <= v <= to_ticks(6) for v in mk)
    rep = c.reports["makespan"]
    assert rep.count == 40
    assert 4.0 <= rep.min <= rep.mean <= rep.max <= 6.0  # unit scale
    assert c.overflow_runs == 0 and c.overflow_total == 0
    assert len(c.horizons) == 40
    assert c.traces is None


def test_campaign_keeps_traces_on_request():
    m = fixtures.chain2()
    c = run_campaign(m, 3, seed=11, keep_traces=True)
    assert len(c.traces) == 3
    assert c.traces[0].text() != c.traces[1].text()


def test_campaign_custom_metrics():
    m = fixtures.chain2()
    spec = MetricSpec("event_pair", name="a_to_b",
                      first=("start", "a"), second=("end", "b"))
    c = run_campaign(m, 10, seed=2, metrics=[spec])
    vals = c.values("a_to_b")
    assert len(vals) == 10
    assert all(to_ticks(4) <= v <= to_ticks(6) for v in vals)
    assert c.reports["a_to_b"].mean == sum(vals) / (10 * SCALE)


def test_run_campaign_rejects_zero_runs():
    with pytest.raises(ValueError):
        run_campaign(fixtures.chain2(), 0, seed=1)


def test_campaign_compiles_once_and_reads_each_trace_once(monkeypatch):
    """Graphs are built once per campaign, each (task, frequency) window
    once, and no metric re-reads the events: the loop gathered the facts."""
    calls = {"busy_intervals": 0, "expand_comm_tasks": 0, "task_duration": 0}

    def counted(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counted(metrics, "busy_intervals")
    counted(simulator, "expand_comm_tasks")
    counted(simulator, "task_duration")
    m = fixtures.mapping_stream(count=5)
    c = run_campaign(m, 4, seed=3, keep_traces=True)

    keys = {(e.job, e.task, e.resource) for t in c.traces for e in t.events if e.kind == "start"}
    assert calls["busy_intervals"] == 0
    assert calls["expand_comm_tasks"] == len(m.job_types)
    assert 0 < calls["task_duration"] <= len(keys)


def test_a_shared_compiled_model_gives_the_same_trace():
    m = fixtures.diamond()
    compiled = CompiledModel(m)
    for i in range(5):
        shared = simulate(m, stream_for(17, i), compiled=compiled)
        assert shared.text() == simulate(m, stream_for(17, i)).text()


def test_each_processor_runs_a_task_at_its_own_frequency():
    """Windows are kept per (job, task, resource): task a takes 4 units on
    PE0 at frequency 1 and 2 units on PE1 at frequency 2 in the same run."""
    f1, f2 = Fraction(1), Fraction(2)
    pes = [Processor("PE0", [f1], {f1: (0.1, 0.9)}), Processor("PE1", [f2], {f2: (0.1, 0.9)})]
    job = JobType("j", [TaskSpec("a", WorkInterval.of(4, 4)), TaskSpec("b", WorkInterval.of(1, 1))])
    gen = Generator("j", "periodic", period=to_ticks(1), count=2)
    m = SystemModel([job], Platform(pes), [gen], Deployment(policy="fifo_global"))
    starts = {}
    ran = {}
    for e in simulate(m, stream_for(1, 0)).events:
        if e.kind == "start":
            starts[(e.instance, e.task)] = e.time
        elif e.kind == "end":
            ran[(e.instance, e.task)] = (e.resource, e.time - starts[(e.instance, e.task)])
    assert ran == {
        (0, "a"): ("PE0", to_ticks(4)),
        (0, "b"): ("PE1", to_ticks("0.5")),
        (1, "a"): ("PE1", to_ticks(2)),
        (1, "b"): ("PE1", to_ticks("0.5")),
    }


def test_equal_frequencies_on_a_slot_are_one_object():
    """A task pinned to its processor's lowest frequency runs at that
    slot's own lowest-frequency object, and two tasks pinned to one higher
    frequency share one object, although every pin is an object of its own.
    So each slot's trace logs a single freq_set, from the identity test."""
    f1, f2 = Fraction(1), Fraction(2)
    pes = [Processor(f"PE{i}", [f1, f2], {f1: (0.1, 0.9), f2: (0.2, 2.0)}) for i in range(2)]
    job = JobType("j", [TaskSpec(t, WorkInterval.of(1, 2)) for t in ("a", "b", "c", "d")],
                  [DataEdge("a", "b"), DataEdge("c", "d")])
    dep = Deployment(policy="fifo_local", mapping={"a": "PE0", "b": "PE0", "c": "PE1", "d": "PE1"},
                     task_frequency={"a": Fraction(1), "c": Fraction(2), "d": Fraction("2")})
    m = SystemModel([job], Platform(pes), [Generator("j", "periodic", period=to_ticks(10), count=2)],
                    dep)
    assert validate_model(m) == []
    cm = CompiledModel(m)
    a, b, c, d = range(4)
    assert cm.pinned[a] is not cm.lowest[0] and cm.pinned[c] is not cm.pinned[d]
    assert cm.freq[a][0] is cm.freq[b][0] is cm.lowest[0]
    assert cm.freq[c][1] is cm.freq[d][1] and cm.freq[c][1] == f2
    t = simulate(m, stream_for(1, 0))
    assert [e.line().split(" ", 1)[1] for e in t.events if e.kind == "freq_set"] == [
        "freq_set pe=PE0 f=1", "freq_set pe=PE1 f=2"]
    assert sum(e.kind == "start" for e in t.events) == 8


def test_strict_scan_never_visits_a_completed_instance(monkeypatch):
    """The simulator hands strict_pick only its live instances, so the scan
    is as long as the backlog, not the campaign."""
    sizes = []

    def checked(live, compiled, r):
        assert all(any(s != DONE for s in st) for st in live.values())
        sizes.append(len(live))
        return strict_pick(live, compiled, r)

    monkeypatch.setattr(schedulers, "strict_pick", checked)
    m = fixtures.mapping_stream(period=4500, policy="strict_priority_local", count=40)
    m.deployment.priorities = {f"blk{i:02d}": 16 - i for i in range(16)}
    assert validate_model(m) == []
    t = simulate(m, stream_for(3, 0))
    assert len(t.facts.last_ends) == 40 and not t.overflow_count
    assert sizes and max(sizes) <= m.deployment.queue_capacity
