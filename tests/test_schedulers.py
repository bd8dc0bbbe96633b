"""Scheduling policies: dispatch order, work conservation, hold-back."""

from fractions import Fraction

import pytest

from taskdse.model import (
    COMMUNICATION,
    Deployment,
    Interconnect,
    JobType,
    Platform,
    Processor,
    TaskSpec,
    WorkInterval,
)
from taskdse.schedulers import (
    LINK,
    LOCAL,
    SHARED,
    Dispatch,
    SchedulerState,
    TaskGraph,
    TaskRef,
    apply_dispatch,
    enqueue,
    next_dispatch,
    processor_order,
    queue_key,
    ready_order,
    release,
)


def _platform(n=2, ics=()):
    f = Fraction(1)
    pes = [Processor(f"PE{i}", [f], {f: (0.1, 0.9)}) for i in range(n)]
    return Platform(pes, interconnects=list(ics))


def _task(tid, kind="computation", ic=None):
    return TaskSpec(tid, WorkInterval.of(1, 1), kind=kind, interconnect=ic)


def _enqueue(st, ref, dep):
    return enqueue(st, ref, queue_key(_task(ref.task), dep))


def test_ready_order_is_instance_then_job_then_task():
    refs = [TaskRef(1, "a", "x"), TaskRef(0, "b", "y"), TaskRef(0, "a", "z")]
    assert ready_order(refs) == [TaskRef(0, "a", "z"), TaskRef(0, "b", "y"), TaskRef(1, "a", "x")]


def test_fifo_global_drains_in_arrival_order_to_lowest_pe():
    plat = _platform(2)
    dep = Deployment(policy="fifo_global")
    st = SchedulerState()
    r1, r2, r3 = TaskRef(0, "j", "a"), TaskRef(0, "j", "b"), TaskRef(0, "j", "c")
    for r in (r1, r2, r3):
        st = _enqueue(st, r, dep)

    d1 = next_dispatch(st, dep, processor_order(plat))
    assert d1 == Dispatch(r1, "PE0", Fraction(1), (SHARED, 0))
    st = apply_dispatch(st, d1)
    d2 = next_dispatch(st, dep, processor_order(plat))
    assert d2 == Dispatch(r2, "PE1", Fraction(1), (SHARED, 0))
    st = apply_dispatch(st, d2)
    assert next_dispatch(st, dep, processor_order(plat)) is None  # both PEs busy

    st = release(st, "PE0")
    d3 = next_dispatch(st, dep, processor_order(plat))
    assert d3 == Dispatch(r3, "PE0", Fraction(1), (SHARED, 0))


def test_fifo_local_respects_mapping():
    plat = _platform(2)
    dep = Deployment(policy="fifo_local", mapping={"a": "PE1", "b": "PE0"})
    st = SchedulerState()
    ra, rb = TaskRef(0, "j", "a"), TaskRef(0, "j", "b")
    st = _enqueue(st, ra, dep)
    st = _enqueue(st, rb, dep)
    d1 = next_dispatch(st, dep, processor_order(plat))
    assert d1.resource == "PE0" and d1.ref == rb  # PE0 considered first
    st = apply_dispatch(st, d1)
    d2 = next_dispatch(st, dep, processor_order(plat))
    assert d2.resource == "PE1" and d2.ref == ra


def test_priority_global_serves_higher_level_first():
    plat = _platform(1)
    dep = Deployment(policy="fifo_priority_global", priorities={"hi": 2, "lo": 1})
    st = SchedulerState()
    st = _enqueue(st, TaskRef(0, "j", "lo"), dep)
    st = _enqueue(st, TaskRef(0, "j", "hi"), dep)
    d = next_dispatch(st, dep, processor_order(plat))
    assert d.ref.task == "hi"


def test_one_map_serves_three_levels_highest_first():
    plat = _platform(1)
    dep = Deployment(policy="fifo_priority_global", priorities={"lo": 1, "mid": 5, "hi": 9})
    st = SchedulerState()
    for tid in ("mid", "lo", "hi", "mid2"):  # mid2 has no level: 0, below lo
        st = _enqueue(st, TaskRef(0, "j", tid), dep)
    assert [key for key, _refs in st.queues] == [(SHARED, -9), (SHARED, -5), (SHARED, -1), (SHARED, 0)]
    served = []
    while (d := next_dispatch(st, dep, processor_order(plat))) is not None:
        served.append(d.ref.task)
        st = release(apply_dispatch(st, d), d.resource)
    assert served == ["hi", "mid", "lo", "mid2"]
    assert st == SchedulerState()  # drained queues leave no entry behind


def test_queue_key_resolves_each_policy():
    mapping, priorities = {"t": "PE1"}, {"t": 3}
    task = _task("t")
    assert queue_key(task, Deployment("fifo_global", mapping, priorities)) == (SHARED, 0)
    assert queue_key(task, Deployment("fifo_priority_global", mapping, priorities)) == (SHARED, -3)
    assert queue_key(task, Deployment("fifo_local", mapping, priorities)) == (LOCAL, "PE1")
    assert queue_key(task, Deployment("strict_priority_local", mapping, priorities)) is None
    comm = _task("a->b", kind=COMMUNICATION, ic="bus")
    for policy in ("fifo_global", "fifo_priority_global", "fifo_local", "strict_priority_local"):
        assert queue_key(comm, Deployment(policy, mapping, priorities)) == (LINK, "bus")


def test_unknown_policy_fails_when_the_task_graph_is_built():
    job = JobType("j", [_task("a")])
    with pytest.raises(ValueError, match="unknown policy"):
        TaskGraph(job, Deployment(policy="round_robin"))


def test_strict_priority_local_holds_back():
    plat = _platform(1)
    dep = Deployment(policy="strict_priority_local", mapping={"top": "PE0", "low": "PE0"},
                     priorities={"top": 2, "low": 1})
    st = SchedulerState()

    # top not yet enabled: the PE must idle rather than run low
    pending = {"PE0": [(TaskRef(0, "j", "top"), False), (TaskRef(0, "j", "low"), True)]}
    d = next_dispatch(st, dep, processor_order(plat), strict_view=lambda pe: pending[pe])
    assert d is None

    pending = {"PE0": [(TaskRef(0, "j", "top"), True), (TaskRef(0, "j", "low"), True)]}
    d = next_dispatch(st, dep, processor_order(plat), strict_view=lambda pe: pending[pe])
    assert d.ref.task == "top"


def test_strict_priority_local_finishes_instance_before_next():
    plat = _platform(1)
    dep = Deployment(policy="strict_priority_local", mapping={"t": "PE0"}, priorities={"t": 1})
    st = SchedulerState()
    pending = {"PE0": [(TaskRef(1, "j", "t"), True), (TaskRef(0, "j", "t"), True)]}
    d = next_dispatch(st, dep, processor_order(plat), strict_view=lambda pe: pending[pe])
    assert d.ref.instance == 0


def test_communication_tasks_queue_on_interconnect():
    ic = Interconnect("bus", rate=Fraction(1))
    plat = _platform(1, ics=[ic])
    dep = Deployment(policy="fifo_global")
    comm = _task("a->b", kind=COMMUNICATION, ic="bus")
    st = enqueue(SchedulerState(), TaskRef(0, "j", "a->b"), queue_key(comm, dep))

    d = next_dispatch(st, dep, processor_order(plat))
    assert d.resource == "bus" and d.frequency is None
    st = apply_dispatch(st, d)
    assert next_dispatch(st, dep, processor_order(plat)) is None
    st = release(st, "bus")
    assert st == SchedulerState()


def test_off_processors_never_dispatch():
    f = Fraction(1)
    pes = [Processor("PE0", [f], {f: (0.1, 0.9)}, initially_on=False),
           Processor("PE1", [f], {f: (0.1, 0.9)})]
    plat = Platform(pes)
    dep = Deployment(policy="fifo_global")
    st = _enqueue(SchedulerState(), TaskRef(0, "j", "a"), dep)
    d = next_dispatch(st, dep, processor_order(plat))
    assert d.resource == "PE1"


def test_scheduler_state_is_hashable_value():
    dep = Deployment(policy="fifo_global")
    a = _enqueue(SchedulerState(), TaskRef(0, "j", "a"), dep)
    b = _enqueue(SchedulerState(), TaskRef(0, "j", "a"), dep)
    assert a == b and hash(a) == hash(b)
