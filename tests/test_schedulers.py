"""Scheduling policies: dispatch order, work conservation, hold-back, and
the in-place kernel against a functional reference."""

import random
from fractions import Fraction

import pytest

from taskdse import reachability, schedulers, simulator

from taskdse.model import (
    COMMUNICATION,
    DataEdge,
    Deployment,
    Interconnect,
    JobType,
    Platform,
    Processor,
    SystemModel,
    TaskSpec,
    WorkInterval,
)
from taskdse.schedulers import (
    DONE,
    LINK,
    LOCAL,
    PENDING,
    QUEUED,
    RUNNING,
    SHARED,
    Dispatch,
    SchedulerState,
    TaskRef,
    admit,
    apply_dispatch,
    enqueue,
    finish,
    freeze,
    next_dispatch,
    queue_key,
    release,
    strict_pick,
    thaw,
)
from taskdse.simulator import CompiledModel

from test_parity import priority_variants, two_jobs


def _platform(n=2, ics=()):
    f = Fraction(1)
    pes = [Processor(f"PE{i}", [f], {f: (0.1, 0.9)}) for i in range(n)]
    return Platform(pes, interconnects=list(ics))


def _task(tid, kind="computation", ic=None):
    return TaskSpec(tid, WorkInterval.of(1, 1), kind=kind, interconnect=ic)


def _compile(plat, dep, jobs):
    """Compile `jobs` (job name -> task ids or TaskSpecs) under `dep`;
    returns the compiled model and ref(instance, job, task), the TaskRef of
    a task."""
    job_types = [JobType(name, [t if isinstance(t, TaskSpec) else _task(t) for t in tasks])
                 for name, tasks in jobs.items()]
    cm = CompiledModel(SystemModel(job_types, plat, [], dep))
    codes = {names: code for code, names in enumerate(cm.names)}
    return cm, lambda instance, job, task: TaskRef(instance, codes[(job, task)])


def _enqueue(work, ref, cm):
    enqueue(work, ref, cm.queue[ref.code])


def _backlog(cm, instances=4):
    """A backlog of `instances` instances with every task PENDING."""
    return {i: [PENDING] * len(cm.tasks) for i in range(instances)}


def test_admit_and_finish_return_refs_in_instance_then_code_order():
    """The tasks one event enables come out in (instance, code) order, which
    the engines enqueue as they are, even when the job declares its tasks
    and edges out of that order."""
    tasks = [_task(t) for t in ("e", "f", "a", "c", "b", "d")]
    edges = [DataEdge("a", "e"), DataEdge("a", "c"), DataEdge("a", "b"),
             DataEdge("c", "d"), DataEdge("b", "d")]
    model = SystemModel([JobType("j", tasks, edges)], _platform(1), [], Deployment())
    cm = CompiledModel(model)
    code = {task: c for c, (_job, task) in enumerate(cm.names)}
    assert [task for _job, task in cm.names] == ["a", "b", "c", "d", "e", "f"]

    live: dict = {}
    assert admit(cm, "j", live, 3, 2) == [TaskRef(3, code["a"]), TaskRef(3, code["f"])]
    assert admit(cm, "j", live, 1, 2) == [TaskRef(1, code["a"]), TaskRef(1, code["f"])]
    assert admit(cm, "j", live, 2, 2) is None and list(live) == [3, 1]  # full: overflow
    assert finish(cm, live, TaskRef(3, code["a"])) == [
        TaskRef(3, code["b"]), TaskRef(3, code["c"]), TaskRef(3, code["e"])]
    assert finish(cm, live, TaskRef(3, code["c"])) == []  # d still waits for b
    assert finish(cm, live, TaskRef(3, code["b"])) == [TaskRef(3, code["d"])]
    for t in ("d", "e", "f"):
        assert finish(cm, live, TaskRef(3, code[t])) == []
    assert list(live) == [1]  # instance 3 completed and left the backlog


def test_fifo_global_drains_in_arrival_order_to_lowest_pe():
    plat = _platform(2)
    dep = Deployment(policy="fifo_global")
    cm, ref = _compile(plat, dep, {"j": ["a", "b", "c"]})
    assert cm.resources == ["PE0", "PE1"]
    assert cm.queue == [0, 0, 0]  # the one shared queue
    st, live = thaw(cm.idle), _backlog(cm)
    r1, r2, r3 = ref(0, "j", "a"), ref(0, "j", "b"), ref(0, "j", "c")
    for r in (r1, r2, r3):
        _enqueue(st, r, cm)

    d1 = next_dispatch(st, cm, live)
    assert d1 == Dispatch(r1, 0, Fraction(1), 0)  # PE0
    apply_dispatch(st, d1, live)
    d2 = next_dispatch(st, cm, live)
    assert d2 == Dispatch(r2, 1, Fraction(1), 0)  # PE1
    apply_dispatch(st, d2, live)
    assert next_dispatch(st, cm, live) is None  # both PEs busy

    release(st, 0)
    d3 = next_dispatch(st, cm, live)
    assert d3 == Dispatch(r3, 0, Fraction(1), 0)


def test_fifo_local_respects_mapping():
    plat = _platform(2)
    dep = Deployment(policy="fifo_local", mapping={"a": "PE1", "b": "PE0"})
    cm, ref = _compile(plat, dep, {"j": ["a", "b"]})
    assert cm.queue == [1, 0] and cm.serves == [(0,), (1,)]  # each PE its own slot
    st, live = thaw(cm.idle), _backlog(cm)
    ra, rb = ref(0, "j", "a"), ref(0, "j", "b")
    _enqueue(st, ra, cm)
    _enqueue(st, rb, cm)
    d1 = next_dispatch(st, cm, live)
    assert cm.resources[d1.resource] == "PE0" and d1.ref == rb  # PE0 considered first
    apply_dispatch(st, d1, live)
    d2 = next_dispatch(st, cm, live)
    assert cm.resources[d2.resource] == "PE1" and d2.ref == ra


def test_priority_global_serves_higher_level_first():
    plat = _platform(1)
    dep = Deployment(policy="fifo_priority_global", priorities={"hi": 2, "lo": 1})
    cm, ref = _compile(plat, dep, {"j": ["lo", "hi"]})
    st, live = thaw(cm.idle), _backlog(cm)
    _enqueue(st, ref(0, "j", "lo"), cm)
    _enqueue(st, ref(0, "j", "hi"), cm)
    d = next_dispatch(st, cm, live)
    assert d.ref == ref(0, "j", "hi")


def test_one_map_serves_three_levels_highest_first():
    plat = _platform(1)
    dep = Deployment(policy="fifo_priority_global", priorities={"lo": 1, "mid": 5, "hi": 9})
    cm, ref = _compile(plat, dep, {"j": ["mid", "lo", "hi", "mid2"]})
    st, live = thaw(cm.idle), _backlog(cm)
    for tid in ("mid", "lo", "hi", "mid2"):  # mid2 has no level: 0, below lo
        _enqueue(st, ref(0, "j", tid), cm)
    # one slot per level, numbered from the highest level down: service order
    assert [cm.queue[ref(0, "j", tid).code] for tid in ("hi", "mid", "lo", "mid2")] == [0, 1, 2, 3]
    assert cm.serves == [(0, 1, 2, 3)]
    assert freeze(st).queues == ((ref(0, "j", "hi"),), (ref(0, "j", "mid"),),
                                 (ref(0, "j", "lo"),), (ref(0, "j", "mid2"),))
    served = []
    while (d := next_dispatch(st, cm, live)) is not None:
        served.append(cm.names[d.ref.code][1])
        apply_dispatch(st, d, live)
        release(st, d.resource)
    assert served == ["hi", "mid", "lo", "mid2"]
    assert freeze(st) == cm.idle  # drained queues leave the idle state


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


def test_unknown_policy_fails_when_the_model_is_compiled():
    with pytest.raises(ValueError, match="unknown policy"):
        _compile(_platform(1), Deployment(policy="round_robin"), {"j": ["a"]})


def test_strict_priority_local_holds_back():
    dep = Deployment(policy="strict_priority_local",
                     mapping={"pre": "PE1", "top": "PE0", "low": "PE0"},
                     priorities={"top": 2, "low": 1})
    job = JobType("j", [_task(t) for t in ("pre", "top", "low")], [DataEdge("pre", "top")])
    cm = CompiledModel(SystemModel([job], _platform(2), [], dep))
    assert cm.queue == [None, None, None] and cm.idle.queues == ()
    low, pre, top = (TaskRef(0, code) for code in range(3))
    st, live = thaw(cm.idle), {}
    admit(cm, "j", live, 0, 1)

    # top not yet enabled: PE0 must idle rather than run low; PE1 runs pre
    d = next_dispatch(st, cm, live)
    assert d == Dispatch(pre, 1, Fraction(1), None)
    apply_dispatch(st, d, live)
    assert next_dispatch(st, cm, live) is None

    release(st, 1)
    assert finish(cm, live, pre) == [top]
    d = next_dispatch(st, cm, live)
    assert d == Dispatch(top, 0, Fraction(1), None)


def test_strict_priority_local_finishes_instance_before_next():
    """The scan serves the instance admitted first, whatever its index."""
    plat = _platform(1)
    dep = Deployment(policy="strict_priority_local", mapping={"t": "PE0"}, priorities={"t": 1})
    cm, ref = _compile(plat, dep, {"j": ["t"]})
    st, live = thaw(cm.idle), {}
    admit(cm, "j", live, 1, 2)
    admit(cm, "j", live, 0, 2)
    d = next_dispatch(st, cm, live)
    assert d.ref == ref(1, "j", "t")


def _strict_oracle(cm, live, r):
    """The hold-back choice by brute force: among the waiting tasks on
    processor slot r of the oldest instance that has one, the highest
    priority, the lowest code among equals, and whether it is enabled."""
    for i, st in live.items():
        waiting = [k for k in range(len(cm.tasks)) if k in cm.on_pe[r] and st[k] < RUNNING]
        if waiting:
            top = max(cm.priority[k] for k in waiting)
            k = min(k for k in waiting if cm.priority[k] == top)
            return TaskRef(i, k), all(st[p] == DONE for p in cm.preds[k])
    return None


@pytest.mark.parametrize("priorities", ["given", "equal", "random"])
@pytest.mark.parametrize("name", [n for n in priority_variants() if n.endswith("-strict_priority_local")])
def test_strict_pick_matches_a_brute_force_oracle(name, priorities):
    """On random backlogs of the strict-priority variants, with their own
    priorities, all equal ones and random ties, strict_pick returns the
    oracle's choice, and next_dispatch on an otherwise busy platform starts
    it at its pinned or lowest frequency when it is enabled and holds
    otherwise."""
    rng = random.Random(f"{name} {priorities}")
    m = priority_variants()[name]
    if priorities != "given":
        m.deployment.priorities = {t.id: rng.randint(0, 1) if priorities == "random" else 0
                                   for jt in m.job_types for t in jt.tasks}
    cm = CompiledModel(m)
    picked = held = 0
    for _ in range(300):
        live = {i: [rng.choice((PENDING, QUEUED, RUNNING, DONE)) for _ in cm.tasks]
                for i in rng.sample(range(6), rng.randint(0, 4))}  # admission order, not index order
        for r, lowest in enumerate(cm.lowest):
            want = _strict_oracle(cm, live, r)
            assert schedulers.strict_pick(live, cm, r) == want
            busy = SchedulerState(cm.idle.queues, tuple(None if s == r else TaskRef(9, 0)
                                                        for s in range(len(cm.resources))))
            d = next_dispatch(busy, cm, live)
            if want is not None and want[1]:
                pinned = cm.pinned[want[0].code]
                assert d == Dispatch(want[0], r, lowest if pinned is None else pinned, None)
                picked += 1
            else:
                assert d is None
                held += want is not None
    assert picked and held


@pytest.mark.parametrize("policy", ["fifo_local", "strict_priority_local"])
def test_the_backlog_is_indexed_by_task_code(policy):
    """An instance's statuses cover every task code, and the other job
    type's codes read DONE, so the hold-back scan and the dispatcher never
    return them and finishing the last own task completes the instance."""
    cm = CompiledModel(two_jobs(policy))
    codes = {job: {c for c, (name, _task) in enumerate(cm.names) if name == job}
             for job in ("alpha", "beta")}
    own = {0: codes["beta"], 1: codes["alpha"]}
    st, live = thaw(cm.idle), {}
    for inst, job in ((0, "beta"), (1, "alpha")):
        for ref in admit(cm, job, live, inst, 2):
            _enqueue(st, ref, cm)
    for inst, statuses in live.items():
        assert len(statuses) == len(cm.tasks)
        others = set(range(len(cm.tasks))) - own[inst]
        assert {c for c, s in enumerate(statuses) if s == DONE} == others

    ended = set()
    while live:
        for r in range(len(cm.lowest)):
            pick = strict_pick(live, cm, r)
            assert pick is None or pick[0].code in own[pick[0].instance]
        while (d := next_dispatch(st, cm, live)) is not None:
            assert d.ref.code in own[d.ref.instance]
            apply_dispatch(st, d, live)
        r, ref = min((r, ref) for r, ref in enumerate(st[1]) if ref is not None)
        release(st, r)
        newly = finish(cm, live, ref)
        ended.add(ref)
        last = {c for i, c in ended if i == ref.instance} == own[ref.instance]
        assert (ref.instance not in live) == last and not (last and newly)
        for n in newly:
            _enqueue(st, n, cm)
    assert len(ended) == len(cm.tasks)


def test_communication_tasks_queue_on_interconnect():
    ic = Interconnect("bus", rate=Fraction(1))
    plat = _platform(1, ics=[ic])
    dep = Deployment(policy="fifo_global")
    comm = _task("a->b", kind=COMMUNICATION, ic="bus")
    cm, ref = _compile(plat, dep, {"j": [comm]})
    assert cm.resources == ["PE0", "bus"] and cm.links == ((0, 1),)
    st, live = thaw(cm.idle), _backlog(cm)
    _enqueue(st, ref(0, "j", "a->b"), cm)

    d = next_dispatch(st, cm, live)
    assert d == Dispatch(ref(0, "j", "a->b"), 1, None, 0)
    assert cm.resources[d.resource] == "bus"
    apply_dispatch(st, d, live)
    assert next_dispatch(st, cm, live) is None
    release(st, d.resource)
    assert freeze(st) == cm.idle


def test_slots_number_processors_then_interconnects_by_id():
    f = Fraction(1)
    pes = [Processor(pid, [f], {f: (0.1, 0.9)}, initially_on=pid != "PE1")
           for pid in ("PE2", "PE0", "PE1")]
    ics = [Interconnect("busB", rate=f), Interconnect("busA", rate=Fraction(2))]
    dep = Deployment(policy="fifo_local", mapping={"a": "PE2", "b": "PE0"})
    jobs = {"j": ["a", "b", _task("x", COMMUNICATION, "busB"), _task("y", COMMUNICATION, "busA")]}
    cm, ref = _compile(Platform(pes, interconnects=ics), dep, jobs)
    assert cm.resources == ["PE0", "PE2", "busA", "busB"] and cm.lowest == [f, f]
    # queue slots in service order: PE0's and PE2's queues, then busA's and busB's
    assert [cm.queue[ref(0, "j", t).code] for t in ("b", "a", "y", "x")] == [0, 1, 2, 3]
    assert cm.serves == [(0,), (1,)] and cm.links == ((2, 2), (3, 3))
    assert cm.idle == (((),) * 4, (None,) * 4)


def test_off_processors_never_dispatch():
    f = Fraction(1)
    pes = [Processor("PE0", [f], {f: (0.1, 0.9)}, initially_on=False),
           Processor("PE1", [f], {f: (0.1, 0.9)})]
    plat = Platform(pes)
    dep = Deployment(policy="fifo_global")
    cm, ref = _compile(plat, dep, {"j": ["a"]})
    assert cm.resources == ["PE1"]
    st, live = thaw(cm.idle), _backlog(cm)
    _enqueue(st, ref(0, "j", "a"), cm)
    d = next_dispatch(st, cm, live)
    assert cm.resources[d.resource] == "PE1"


def test_scheduler_state_is_hashable_value():
    """Two frozen states built alike are equal and hash equal."""
    dep = Deployment(policy="fifo_global")
    cm, ref = _compile(_platform(1), dep, {"j": ["a"]})
    frozen = []
    for _ in range(2):
        st = thaw(cm.idle)
        _enqueue(st, ref(0, "j", "a"), cm)
        frozen.append(freeze(st))
    a, b = frozen
    assert a == b and hash(a) == hash(b)
    assert a == SchedulerState(((ref(0, "j", "a"),),), (None,))
    assert cm.idle == SchedulerState(((),), (None,))  # thawing left it as it was


@pytest.mark.parametrize("name", ["next_dispatch", "apply_dispatch", "enqueue", "release",
                                  "admit", "finish"])
def test_both_engines_call_the_one_kernel(name):
    """The simulator and the formal engine share one copy of the kernel and
    of the rules that fill and empty the backlog."""
    kernel = getattr(schedulers, name)
    assert getattr(simulator, name) is kernel
    assert getattr(reachability, name) is kernel


# the functional kernel the in-place one replaced: each step returns a new
# frozen state; it is the reference the working state is checked against


def _put(entries: tuple, i: int, value) -> tuple:
    return entries[:i] + (value,) + entries[i + 1:]


def reference_enqueue(state, ref, slot):
    if slot is None:
        return state
    return SchedulerState(_put(state.queues, slot, state.queues[slot] + (ref,)), state.running)


def reference_apply(state, d):
    queues, running = state
    ref, r, _freq, s = d
    if s is not None:
        queues = _put(queues, s, queues[s][1:])
    return SchedulerState(queues, _put(running, r, ref))


def reference_release(state, resource):
    return SchedulerState(state.queues, _put(state.running, resource, None))


def _kernel_models():
    """Compiled models with several queue slots, links and resources."""
    f = Fraction(1)
    plat = _platform(3, ics=[Interconnect("busA", rate=f), Interconnect("busB", rate=f)])
    jobs = {"j": ["a", "b", "c", _task("x", COMMUNICATION, "busA")],
            "k": ["d", _task("y", COMMUNICATION, "busB"), _task("z", COMMUNICATION, "busA")]}
    mapping = {"a": "PE0", "b": "PE1", "c": "PE2", "d": "PE0"}
    return [_compile(plat, dep, jobs)[0] for dep in (
        Deployment(policy="fifo_global"),
        Deployment(policy="fifo_priority_global", priorities={"a": 3, "b": 1, "d": 3}),
        Deployment(policy="fifo_local", mapping=mapping),
    )]


KERNEL_MODELS = _kernel_models()


def check_against_reference(cm, ops):
    """Apply `ops`, (kind, argument) pairs of integers, to a thawed idle
    state and to the reference; the frozen working state must equal the
    reference state after every step, and both forms dispatch alike."""
    work, ref_state = thaw(cm.idle), cm.idle
    live = _backlog(cm)
    for kind, arg in ops:
        if kind == 0:
            code = arg % len(cm.tasks)
            task = TaskRef(arg // len(cm.tasks) % 4, code)
            enqueue(work, task, cm.queue[code])
            ref_state = reference_enqueue(ref_state, task, cm.queue[code])
        elif kind == 1:
            d = next_dispatch(work, cm, live)
            assert d == next_dispatch(ref_state, cm, live)
            if d is not None:
                apply_dispatch(work, d, live)
                ref_state = reference_apply(ref_state, d)
        else:
            r = arg % len(cm.resources)
            release(work, r)
            ref_state = reference_release(ref_state, r)
        frozen = freeze(work)
        assert frozen == ref_state and hash(frozen) == hash(ref_state)
        assert all(type(q) is tuple for q in frozen.queues) and type(frozen.running) is tuple


@pytest.mark.parametrize("model", range(len(KERNEL_MODELS)))
def test_in_place_kernel_matches_functional_reference(model):
    rng = random.Random(model)
    for _ in range(40):
        ops = [(rng.randrange(3), rng.randrange(1000)) for _ in range(rng.randrange(1, 60))]
        check_against_reference(KERNEL_MODELS[model], ops)


try:
    from hypothesis import given, strategies as hs
except ImportError:  # the seeded sequences above still run
    given = None

if given is not None:
    @given(hs.sampled_from(range(len(KERNEL_MODELS))),
           hs.lists(hs.tuples(hs.integers(0, 2), hs.integers(0, 999)), max_size=80))
    def test_in_place_kernel_matches_functional_reference_on_any_sequence(model, ops):
        check_against_reference(KERNEL_MODELS[model], ops)
