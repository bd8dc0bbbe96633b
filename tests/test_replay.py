"""Every simulated run is a run of the formal model: a replay oracle.

`replay` walks one simulated trace through the zone engine's successor
relation, `reachability._successors`, with symmetry off.  Each arrival,
overflow or end event picks the label that matches it, (ARRIVE, g),
(OVERFLOW, g) or (END, slot, TaskRef), the global clock (T,) is pinned to
the event's time on that step's zone, and the successor is laid out as
`_push` does, with no store and no canonical form.  Before each event the
formal configuration must run exactly the tasks the trace has running, so a
start the simulator fires and the formal settle step does not (or the other
way round) is caught at the next event.

The simulator numbers instances by (time, generator, index) and the formal
engine by `inst_of[(generator, k)]`; the replay maps them by counting each
generator's arrivals, which needs every generator's count to equal the
model's instance bound.  An overflowing arrival ends a formal run, so a run
that overflows is rejected with the reason "overflow".
"""

from collections import Counter

from taskdse import fixtures
from taskdse.reachability import (
    ARRIVE,
    END,
    OVERFLOW,
    T,
    DState,
    Network,
    ReachOptions,
    _index,
    _invariants,
    _layout,
    _successors,
    _terminal,
)
from taskdse.rng import stream_for
from taskdse.schedulers import TaskRef
from taskdse.simulator import simulate
from taskdse.timebase import to_ticks
from taskdse.zones import constrain_one, elapse, enc, new_zero, relayout
from test_random_models import every_family, two_generator_models, window_models

SEED = 31
FIXTURE_RUNS = 40
FAMILY_RUNS = 10


def replay(net: Network, trace) -> str:
    """The verdict on `trace`: "accepted" when it is a run of the formal
    model, else why the first event that leaves the model does so."""
    cm = net.compiled
    code_of = {name: code for code, name in enumerate(cm.names)}
    slot_of = {res: r for r, res in enumerate(cm.resources)}
    d = DState((0,) * len(net.model.generators), (), cm.idle)
    idx = _index(_layout(net, d))
    mat = new_zero(len(idx) + 1)
    elapse(mat)
    assert _invariants(net, d, idx, mat)
    inst_of: dict[int, int] = {}  # simulator instance -> formal instance
    arrived = [0] * len(net.model.generators)
    running: list = [None] * len(cm.resources)
    for time, kind, inst, job, task, res, _freq, gidx in trace.log:
        if kind == "start":
            running[slot_of[res]] = TaskRef(inst_of[inst], code_of[job, task])
            continue
        if kind == "freq_set":
            continue
        if tuple(running) != d.sched.running:
            return "dispatch differs"
        if kind == "end":
            r = slot_of[res]
            want = (END, r, running[r])
            running[r] = None
        else:  # arrival or overflow
            arrived[gidx] += 1
            inst_of[inst] = net.inst_of[(gidx, arrived[gidx])]
            want = (ARRIVE if kind == "arrival" else OVERFLOW, gidx)
        for label, zg, step in _successors(net, d, mat, idx):
            if label == want:
                break
        else:
            return "no transition"
        if label[0] == OVERFLOW:
            return "overflow"
        t = idx[(T,)]
        if not (constrain_one(zg, t, 0, enc(time)) and constrain_one(zg, 0, t, enc(-time))):
            return "time"
        d2, _completed = step
        lay2 = _layout(net, d2)
        z2 = relayout(zg, [0] + [idx.get(p, 0) for p in lay2])
        elapse(z2)
        idx2 = _index(lay2)
        if not _invariants(net, d2, idx2, z2):
            return "invariant"
        d, mat, idx = d2, z2, idx2
    if any(running) or not _terminal(net, d):
        return "not terminal"
    return "accepted"


def replay_runs(model, runs: int, seed: int = SEED) -> Counter:
    """Verdicts of `runs` simulated runs of `model`, each checked against
    whether the run overflowed."""
    assert all(g.count == model.instance_bound for g in model.generators)
    net = Network(model, ReachOptions(symmetry=False))
    verdicts: Counter = Counter()
    for i in range(runs):
        t = simulate(model, stream_for(seed, i), compiled=net.compiled)
        got = replay(net, t)
        assert got == ("overflow" if t.overflow_count else "accepted"), (i, got)
        verdicts[got] += 1
    return verdicts


def overflowing_stream_chain():
    """stream_chain with a backlog of one and arrivals every 3 +- 2 units:
    every run overflows."""
    m = fixtures.stream_chain()
    m.deployment.queue_capacity = 1
    m.generators[0].period = to_ticks(3)
    return m


def fixture_models() -> dict:
    stream = fixtures.mapping_stream(count=3)
    stream.instance_bound = 3
    return {
        "chain2": fixtures.chain2(),
        "indep2": fixtures.indep2(),
        "diamond": fixtures.diamond(),
        "stream_chain": fixtures.stream_chain(),
        "band16(4)": fixtures.band16(4),
        "mapping_stream": stream,
    }


def test_every_fixture_run_replays_through_the_formal_model():
    total: Counter = Counter()
    for m in fixture_models().values():
        total += replay_runs(m, FIXTURE_RUNS)
    assert total == {"accepted": 240}


def test_a_run_whose_task_outlasts_its_window_is_rejected():
    """The oracle is not vacuous: moving chain2's last end a unit past the
    latest time its window allows leaves the model."""
    m = fixtures.chain2()
    net = Network(m, ReachOptions(symmetry=False))
    t = simulate(m, stream_for(SEED, 0))
    assert replay(net, t) == "accepted"
    last = t.log[-1]
    assert last[1] == "end"
    t.log[-1] = (last[0] + to_ticks(5), *last[1:])
    assert replay(net, t) == "time"


def test_overflowed_runs_are_rejected_as_overflow():
    assert replay_runs(overflowing_stream_chain(), 50) == {"overflow": 50}


def test_every_random_family_run_replays_or_overflows():
    """The three families of `every_family()`, the two-generator family and
    the window family: every run without overflow is accepted and every
    overflowed one rejected."""
    models = every_family() + two_generator_models() + window_models()
    assert len(models) == 424
    total: Counter = Counter()
    for n, m in enumerate(models):
        total += replay_runs(m, FAMILY_RUNS, seed=SEED + n)
    assert total == {"accepted": 3787, "overflow": 453}
