"""Exact formal bounds on the fixture models.

Expected windows are independent hand derivations:
  chain2     [4,6]   serial sum of [1,2]+[3,4]
  indep2     [2,4]   max of [1,3] and [2,4] on two processors
  diamond    [4,7]   s + max(m1, m2) + j with s=[1,2], m=[2,3]/[1,4], j=[1,1]
  stream     [15,23] FIFO pipeline recurrence over three jittered instances
  band16     P blocks of [82,118] over ceil(16/P) sequential rounds
"""

import dataclasses
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from taskdse import fixtures, reachability, schedulers, simulator
from taskdse.generators import Generator
from taskdse.model import (
    DataEdge,
    Deployment,
    Interconnect,
    JobType,
    Platform,
    Processor,
    SystemModel,
    TaskSpec,
    WorkInterval,
    validate_model,
)
from taskdse.reachability import (
    END,
    MIRROR,
    OVERFLOW,
    RUN,
    BudgetExceeded,
    DState,
    Network,
    ReachOptions,
    SearchCapExceeded,
    _index,
    _layout,
    _renamed,
    reach_bounds,
)
from taskdse.schedulers import DONE, SchedulerState, strict_view
from taskdse.zones import clock_window, relayout, zone_includes
from test_parity import priority_variants, two_jobs
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
    12: (164, 236),
    16: (82, 118),
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


def symmetry_cases() -> dict:
    """Every fixture whose unreduced search takes seconds at most, the
    priority variants and two_jobs under both per-processor policies."""
    out = {"chain2": fixtures.chain2(), "indep2": fixtures.indep2(),
           "diamond": fixtures.diamond(), "stream_chain": fixtures.stream_chain()}
    out.update({f"band16({p})": fixtures.band16(p) for p in (1, 2, 4, 8, 12)})
    out.update(priority_variants())
    out.update({f"two_jobs-{p}": two_jobs(p) for p in ("fifo_local", "strict_priority_local")})
    return out


def symmetry_off_cases() -> dict:
    """symmetry_cases and mapping_stream at K=1, at its default period 7000
    and at 4500; each full search takes about 5 s."""
    return {**symmetry_cases(),
            **{f"mapping_stream period {p}": fixtures.mapping_stream(period=p) for p in (7000, 4500)}}


@pytest.mark.parametrize("name", sorted(symmetry_off_cases()))
def test_symmetry_off_gives_identical_bounds(name):
    m = symmetry_off_cases()[name]
    a = reach_bounds(m, ReachOptions(clock_budget=40))
    b = reach_bounds(m, ReachOptions(clock_budget=40, symmetry=False))
    assert (a.makespan, a.latency, a.instance_latency) == (b.makespan, b.latency, b.instance_latency)
    assert (a.overflow_reachable, a.terminal_reached) == (b.overflow_reachable, b.terminal_reached)
    assert a.states <= b.states and b.classes == ()


def test_symmetry_off_keeps_the_full_band16_search():
    """band16(4) reduces by its class PE1-PE3; switched off, the search is
    the full one, with the counters it had before the reduction existed."""
    on = reach_bounds(fixtures.band16(4))
    off = reach_bounds(fixtures.band16(4), ReachOptions(symmetry=False))
    assert (off.states, off.merges) == (115, 51)
    assert (on.states, on.merges, on.classes) == (48, 9, (3,))
    assert (on.makespan, on.latency, on.instance_latency) == \
        (off.makespan, off.latency, off.instance_latency)


def test_processor_classes_of_the_fixtures():
    """band16(12): PE1-PE3 hold two blocks each, PE4-PE11 one; PE0 also
    holds the framing tasks.  mapping_stream and blockwise(4) pin the same
    work to every processor."""
    sizes = lambda m: [len(cls) for cls in Network(m).orbits]
    assert sizes(fixtures.band16(12)) == [3, 8]
    assert sizes(fixtures.band16(16)) == [15]
    assert sizes(fixtures.mapping_stream()) == [4]
    assert sizes(fixtures.blockwise(4)) == [4]
    assert sizes(fixtures.mapping_stream(policy="fifo_global")) == []
    assert sizes(fixtures.band16(4)) == [3]
    assert Network(fixtures.band16(4), ReachOptions(symmetry=False)).orbits == []


def two_copies() -> SystemModel:
    """src on PE0 feeds a1 -> b1 on PE1 and a2 -> b2 on PE2, whose ends
    feed snk on PE0: PE1 and PE2 are interchangeable."""
    f1 = Fraction(1)
    pes = [Processor(f"PE{i}", [f1], {f1: (0.1, 0.9)}) for i in range(3)]
    tasks = [TaskSpec("src", WorkInterval.of(0, 1)), TaskSpec("snk", WorkInterval.of(0, 1))]
    edges = []
    mapping = {"src": "PE0", "snk": "PE0"}
    for i in (1, 2):
        tasks += [TaskSpec(f"a{i}", WorkInterval.of(2, 3)), TaskSpec(f"b{i}", WorkInterval.of(1, 2))]
        edges += [DataEdge("src", f"a{i}"), DataEdge(f"a{i}", f"b{i}"), DataEdge(f"b{i}", "snk")]
        mapping.update({f"a{i}": f"PE{i}", f"b{i}": f"PE{i}"})
    gen = Generator("job", "periodic", period=U(4), count=2)
    return SystemModel([JobType("job", tasks, edges)],
                       Platform(pes, interconnects=[Interconnect("bus", Fraction(8))]), [gen],
                       Deployment(policy="fifo_local", mapping=mapping), instance_bound=2)


def _frequency(m):
    f2 = Fraction(2)
    m.platform.processors[2] = Processor("PE2", [f2], {f2: (0.2, 2.0)})


def _window(m):
    m.job_types[0].tasks[-1] = TaskSpec("b2", WorkInterval.of(1, 3))


def _pin(m):
    m.deployment.task_frequency = {"b2": Fraction(1)}


def _bus(m):
    m.job_types[0].edges[0] = DataEdge("src", "a1", 64)
    m.deployment.edge_interconnect = {("src", "a1"): "bus"}


def _join(m):
    m.job_types[0].edges.append(DataEdge("a1", "b2"))


def _global(m):
    m.deployment.policy = "fifo_global"


@pytest.mark.parametrize("breaks", [_frequency, _window, _pin, _bus, _join, _global])
def test_one_broken_symmetry_gives_no_class(breaks):
    assert [len(cls) for cls in Network(two_copies()).orbits] == [2]
    m = two_copies()
    breaks(m)
    assert not validate_model(m)
    assert Network(m).orbits == []
    a, b = reach_bounds(m), reach_bounds(m, ReachOptions(symmetry=False))
    assert (a.makespan, a.latency, a.instance_latency) == (b.makespan, b.latency, b.instance_latency)
    assert (a.states, a.zones, a.merges) == (b.states, b.zones, b.merges)


def test_members_next_to_moved_tasks_are_not_moved():
    """a1 and a2 (PE1, PE2) both feed x (PE3) and y (PE4).  Each pair alone
    looks interchangeable, but a swap of PE1 and PE2 would also have to fix
    x and y, which the other pair moves, so neither pair is a class."""
    m = two_copies()
    job = m.job_types[0]
    f1 = Fraction(1)
    m.platform.processors += [Processor(f"PE{i}", [f1], {f1: (0.1, 0.9)}) for i in (3, 4)]
    job.tasks = [t for t in job.tasks if t.id[0] != "b"]
    job.tasks += [TaskSpec("x", WorkInterval.of(1, 2)), TaskSpec("y", WorkInterval.of(1, 2))]
    job.edges = [e for e in job.edges if "b" not in e.src + e.dst]
    job.edges += [DataEdge(a, z) for a in ("a1", "a2") for z in ("x", "y")]
    job.edges += [DataEdge(z, "snk") for z in ("x", "y")]
    m.deployment.mapping = {"src": "PE0", "snk": "PE0", "a1": "PE1", "a2": "PE2", "x": "PE3", "y": "PE4"}
    assert not validate_model(m)
    assert Network(m).orbits == []


class _Compared(Exception):
    pass


def first_compared_state(m, monkeypatch) -> tuple:
    """(configuration, clock index, zone) of the first state in which the
    search compares two members of a class for a mirrored completion."""
    seen = []

    def stop(net, d, idx, mat, o, r):
        seen.append((d, idx, mat))
        raise _Compared

    with monkeypatch.context() as mp:
        mp.setattr(reachability, "_mirrors", stop)
        with pytest.raises(_Compared):
            reach_bounds(m, ReachOptions(clock_budget=40))
    return seen[0]


def run_clock(idx, d: DState, member):
    ref = d.sched.running[member]
    return idx[(RUN, ref.instance, ref.code)]


def test_blocks_started_by_split_mirror_each_other(monkeypatch):
    """When split ends on band16(12), every processor starts its first block
    at the same instant and PE1-PE3 queue their second one, so swapping any
    two members of a class maps the state onto itself."""
    m = fixtures.band16(12)
    d, idx, mat = first_compared_state(m, monkeypatch)
    net = Network(m)
    assert all(ref is not None for ref in d.sched.running)
    assert len({clock_window(mat, run_clock(idx, d, mem)) for cls in net.orbits for mem in cls}) == 1
    for cls in net.orbits:
        for o in cls:
            for r in cls:
                assert reachability._mirrors(net, d, idx, mat, o, r)


@pytest.mark.parametrize("entry", ["row", "column"])
def test_one_asymmetric_zone_entry_breaks_the_mirror(monkeypatch, entry):
    """Tightening the bound between the global clock and one run clock, in
    its row or in its column, leaves every other entry symmetric in the two
    run clocks, and the swap no longer maps the zone onto itself."""
    m = fixtures.band16(12)
    d, idx, mat = first_compared_state(m, monkeypatch)
    net = Network(m)
    o, r = net.orbits[0][:2]
    a, t = run_clock(idx, d, o), idx[(reachability.T,)]
    assert reachability._mirrors(net, d, idx, mat, o, r)
    bent = mat.copy()
    at = (a, t) if entry == "row" else (t, a)
    bent[at] -= 2  # the same bound, one tick tighter
    assert not reachability._mirrors(net, d, idx, bent, o, r)
    assert not renamed_mirrors(net, d, idx, bent, o, r)


def test_equal_statuses_with_unequal_run_clocks_do_not_mirror(monkeypatch):
    """Two members whose statuses match but whose running blocks started at
    different times are no mirror images of each other.  mapping_stream
    reaches such pairs; the reduced band16(12) search no longer does."""
    calls = []
    check = reachability._mirrors

    def recorded(net, d, idx, mat, o, r):
        got = check(net, d, idx, mat, o, r)
        calls.append((net, d, idx, mat, o, r, got))
        return got

    monkeypatch.setattr(reachability, "_mirrors", recorded)
    reach_bounds(fixtures.mapping_stream())
    unequal = [got for net, d, idx, mat, o, r, got in calls
               if permuted(net, ((o, r), (r, o)), d).live == d.live
               and clock_window(mat, run_clock(idx, d, o)) != clock_window(mat, run_clock(idx, d, r))]
    assert unequal and not any(unequal)
    assert any(got for *_args, got in calls)


def test_local_queues_in_another_order_do_not_mirror(monkeypatch):
    """After the arrival on blockwise(4), each processor runs its first read
    and queues its other three; reversing one queue keeps every status,
    running task and clock but breaks the mirror."""
    m = fixtures.blockwise(4)
    d, idx, mat = first_compared_state(m, monkeypatch)
    net = Network(m)
    (cls,) = net.orbits
    o, r = cls[0], cls[1]
    assert reachability._mirrors(net, d, idx, mat, o, r)
    queues = list(d.sched.queues)
    (q,) = net.compiled.serves[o]
    assert len(queues[q]) == 3
    queues[q] = queues[q][::-1]
    d2 = DState(d.arrivals, d.live, SchedulerState(tuple(queues), d.sched.running))
    assert not reachability._mirrors(net, d2, idx, mat, o, r)


def class_permutations(net: Network) -> list:
    """Every permutation of each class's members, the identity included, as
    a list of (src, dst) moves of processor slots."""
    return [[(src, dst) for cls, image in zip(net.orbits, combo)
             for src, dst in zip(cls, image) if src != dst]
            for combo in itertools.product(*(itertools.permutations(cls) for cls in net.orbits))]


def permuted(net: Network, moves, d: DState) -> DState:
    return _renamed(net, d, moves)[0]


def renamed_zone(net: Network, moves, idx: dict, mat):
    """The zone of a renamed state, laid out by `idx`: each run clock
    follows its task code, through one relayout."""
    code_map = {c: e for src, dst in moves for c, e in zip(net.codes[src], net.codes[dst])}
    src_of = {(p if p[0] != RUN else (RUN, p[1], code_map.get(p[2], p[2]))): i
              for p, i in idx.items()}
    return relayout(mat, [0] + [src_of[p] for p in sorted(src_of)])


def test_local_queue_order_stays_in_the_canonical_key(monkeypatch):
    """In the same state, all 24 permutations of the class give one
    configuration, before and after one member's queue is reversed.  Once it
    is reversed, the statuses alone no longer pick the member that holds it,
    so only the queue in the sort key brings every image back to one form."""
    m = fixtures.blockwise(4)
    d, idx, mat = first_compared_state(m, monkeypatch)
    net = Network(m)
    (cls,) = net.orbits
    queues = list(d.sched.queues)
    (q,) = net.compiled.serves[cls[0]]
    queues[q] = queues[q][::-1]
    reversed_one = DState(d.arrivals, d.live, SchedulerState(tuple(queues), d.sched.running))
    perms = class_permutations(net)
    assert len(perms) == 24
    for state in (d, reversed_one):
        images = {permuted(net, moves, state) for moves in perms}
        assert len(images) == (1 if state is d else 4)
        forms = {reachability._canonical(net, image)[0] for image in images}
        assert len(forms) == 1


def renamed_mirrors(net: Network, d: DState, idx: dict, mat, o, r) -> bool:
    """The mirror check `_mirrors` replaced, kept as its reference: apply
    the swap of o and r through `_renamed` and compare every part of the
    state, the zone through one relayout."""
    swap = ((o, r), (r, o))
    return permuted(net, swap, d) == d and np.array_equal(renamed_zone(net, swap, idx, mat), mat)


@pytest.mark.parametrize("name, m", [("band16(4)", fixtures.band16(4)),
                                     ("blockwise(4)", fixtures.blockwise(4)),
                                     ("mapping_stream", fixtures.mapping_stream())])
def test_mirror_check_agrees_with_the_renamed_swap(name, m, monkeypatch):
    """In every explored state where the search compares members, every
    pair of running members of a class gets the same answer from
    `_mirrors` as from the renamed swap."""
    net = Network(m)
    check = reachability._mirrors
    states = {}

    def recorded(net, d, idx, mat, o, r):
        states.setdefault((d, mat.tobytes()), (d, idx, mat.copy()))
        return check(net, d, idx, mat, o, r)

    monkeypatch.setattr(reachability, "_mirrors", recorded)
    reach_bounds(m)
    answers = []
    for d, idx, mat in states.values():
        for cls in net.orbits:
            busy = [mem for mem in cls if d.sched.running[mem] is not None]
            for o, r in itertools.permutations(busy, 2):
                got = check(net, d, idx, mat, o, r)
                assert got == renamed_mirrors(net, d, idx, mat, o, r), name
                answers.append(got)
    assert True in answers and False in answers


@pytest.mark.parametrize("m", [fixtures.band16(12), fixtures.mapping_stream(), fixtures.blockwise(4)],
                         ids=["band16(12)", "mapping_stream", "blockwise(4)"])
def test_one_relayout_per_successor(m, monkeypatch):
    """Each successor's zone is carried from the firing zone into its
    canonical layout by a single relayout: band16(12) pushes 174
    successors, mapping_stream 270 and blockwise(4) 671, each with one.
    Each layout is built once, for the initial state and for each pushed
    successor; the frontier keeps its clock index, so a popped state is
    not laid out again."""
    counts = {"relayout": 0, "_push": 0, "_layout": 0}
    for name in counts:
        def counted(*args, _fn=getattr(reachability, name), _name=name):
            counts[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(reachability, name, counted)
    reach_bounds(m)
    assert counts["relayout"] == counts["_push"] > 0
    assert counts["_layout"] == counts["_push"] + 1


def test_search_leaves_every_stored_state_frozen(monkeypatch):
    """Every configuration the store keeps holds its scheduler state as
    tuples of tuples, and no later successor changes it: its hash and its
    text after the search are those it had when it was stored."""
    models = [fixtures.mapping_stream(), fixtures.blockwise(4), fixtures.band16(3)]
    models[2].deployment.policy = "fifo_global"
    stores = []
    insert = reachability._Store.insert

    def recorded(self, d, mat):
        if not stores or stores[-1][0] is not self:
            stores.append((self, {}))
        stores[-1][1].setdefault(id(d), (d, hash(d), repr(d)))
        return insert(self, d, mat)

    monkeypatch.setattr(reachability._Store, "insert", recorded)
    for m in models:
        reach_bounds(m)
    assert len(stores) == len(models)
    for store, seen in stores:
        assert len(seen) >= len(store.zones)
        for d in store.zones:
            assert type(d.sched.queues) is tuple and type(d.sched.running) is tuple
            assert all(type(q) is tuple for q in d.sched.queues)
        for d, h, text in seen.values():
            assert hash(d) == h and repr(d) == text


def recorded_steps(monkeypatch) -> list:
    """From here on, every `_successors` call appends the list of the
    (label, zg, step) triples it yields."""
    successors, calls = reachability._successors, []

    def recorded(*args):
        calls.append([])
        for triple in successors(*args):
            calls[-1].append(triple)
            yield triple

    monkeypatch.setattr(reachability, "_successors", recorded)
    return calls


def test_mirrored_completions_are_counted(monkeypatch):
    """band16(12) expands 174 of the 452 completions its guards allow and
    skips 278 mirror images: one END label each, and one MIRROR label, with
    neither zone nor step, per completion `mirrored` counts.  With symmetry
    off nothing is skipped."""
    calls = recorded_steps(monkeypatch)
    r = reach_bounds(fixtures.band16(12))
    steps = [t for call in calls for t in call]
    ends = [t for t in steps if t[0][0] == END]
    mirrors = [t for t in steps if t[0][0] == MIRROR]
    assert (len(ends), len(mirrors)) == (174, r.mirrored) == (174, 278)
    assert all(zg is None and step is None for _label, zg, step in mirrors)
    assert all(zg is not None and step is not None for _label, zg, step in ends)
    calls.clear()
    assert reach_bounds(fixtures.band16(12), ReachOptions(symmetry=False)).mirrored == 0
    assert calls and not any(label[0] == MIRROR for call in calls for label, _zg, _step in call)


def test_band16_12_expands_at_most_200_completions(monkeypatch):
    """Mirror images never reach `_after_end`: 174 completions do, of the
    452 the search builds without the skip."""
    calls = 0
    after_end = reachability._after_end

    def counted(*args):
        nonlocal calls
        calls += 1
        return after_end(*args)

    monkeypatch.setattr(reachability, "_after_end", counted)
    reach_bounds(fixtures.band16(12))
    assert calls <= 200


def two_classes() -> SystemModel:
    """src on PE0 feeds x1..x4 on PE1..PE4, which feed snk on PE0.  x1, x2
    take [2, 3] and x3, x4 take [1, 5], so PE1, PE2 and PE3, PE4 form two
    classes whose tasks all start together and look alike in every status,
    queue and clock.  Only their windows tell the classes apart, so a swap
    across the classes would pass the mirror check."""
    f1 = Fraction(1)
    pes = [Processor(f"PE{i}", [f1], {f1: (0.1, 0.9)}) for i in range(5)]
    tasks = [TaskSpec("src", WorkInterval.of(0, 1)), TaskSpec("snk", WorkInterval.of(0, 1))]
    tasks += [TaskSpec(f"x{i}", WorkInterval.of(2, 3) if i < 3 else WorkInterval.of(1, 5))
              for i in range(1, 5)]
    edges = [DataEdge(a, b) for i in range(1, 5) for a, b in (("src", f"x{i}"), (f"x{i}", "snk"))]
    mapping = {"src": "PE0", "snk": "PE0", **{f"x{i}": f"PE{i}" for i in range(1, 5)}}
    gen = Generator("job", "periodic", period=U(10), count=1)
    return SystemModel([JobType("job", tasks, edges)], Platform(pes), [gen],
                       Deployment(policy="fifo_local", mapping=mapping))


def mirror_cases() -> dict:
    return {**symmetry_cases(), "band16(16)": fixtures.band16(16),
            "blockwise(4)": fixtures.blockwise(4), "mapping_stream": fixtures.mapping_stream(),
            "two_classes": two_classes()}


@pytest.mark.parametrize("name", sorted(mirror_cases()))
def test_skipping_mirrors_changes_no_result(name, monkeypatch):
    """With the mirror check switched off, every result and counter is the
    same; only `mirrored` reads 0."""
    m = mirror_cases()[name]
    assert not validate_model(m)
    on = reach_bounds(m, ReachOptions(clock_budget=40))
    monkeypatch.setattr(reachability, "_mirrors", lambda *args: False)
    off = reach_bounds(m, ReachOptions(clock_budget=40))
    assert off.mirrored == 0
    assert dataclasses.replace(on, mirrored=0) == off


def stabiliser(net: Network, d: DState) -> list:
    """Every permutation of each class's members that maps d onto itself,
    the identity included, found by listing all of them."""
    return [moves for moves in class_permutations(net) if permuted(net, moves, d) == d]


def final_stores(monkeypatch) -> list:
    """From here on, every search appends its zone store to the list."""
    stores = []
    init = reachability._Store.__init__

    def recorded(store, merge):
        init(store, merge)
        stores.append(store)

    monkeypatch.setattr(reachability._Store, "__init__", recorded)
    return stores


def check_no_permuted_covers(net: Network, store) -> int:
    """Assert that no zone of the store includes the image of another zone
    of its configuration under any permutation that maps the configuration
    onto itself; returns the number of zone pairs checked."""
    pairs = 0
    for d, zs in store.zones.items():
        idx, perms = _index(_layout(net, d)), stabiliser(net, d)
        for a, b in itertools.permutations(zs, 2):
            pairs += 1
            assert not any(zone_includes(b, renamed_zone(net, moves, idx, a)) for moves in perms), d
    return pairs


@pytest.mark.parametrize("name", ["band16(4)", "blockwise(4)", "mapping_stream", "two_classes"])
def test_no_stored_zone_covers_a_permuted_zone(name, monkeypatch):
    """Brute-force check that sorting members by their discrete key alone
    leaves no symmetric cover in the store, with merging on and off.  These
    classes have at most 4 members, so each configuration's whole
    stabiliser (at most 24 permutations) is listed.  two_classes, the one
    case with two classes, keeps one zone per configuration, so it leaves no
    pair to check."""
    m = mirror_cases()[name]
    net = Network(m)
    stores = final_stores(monkeypatch)
    pairs = 0
    for merge in (True, False):
        reach_bounds(m, ReachOptions(merge=merge))
        pairs += check_no_permuted_covers(net, stores[-1])
    assert pairs or name == "two_classes"


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


def check_layouts(monkeypatch) -> list:
    """From here on, every layout a search builds must fit the clock count
    its Network checked against the budget; returns the widths seen."""
    layout, widths = reachability._layout, []

    def checked(net, d):
        lay = layout(net, d)
        assert len(lay) <= net.clocks, (d, lay, net.clocks)
        widths.append(len(lay))
        return lay

    monkeypatch.setattr(reachability, "_layout", checked)
    return widths


def check_antichains(monkeypatch):
    """From here on, after every insert the zone it returns is stored
    exactly once and no stored zone of the configuration includes another
    one.  Inserts are the store's only writes, so only pairs with the
    stored zone can break the antichain."""
    insert = reachability._Store.insert

    def checked(store, d, mat):
        new = insert(store, d, mat)
        zs = store.zones[d]
        if new is not None:
            assert sum(z is new for z in zs) == 1, d
            assert not any(zone_includes(new, z) or zone_includes(z, new)
                           for z in zs if z is not new), d
        return new

    monkeypatch.setattr(reachability._Store, "insert", checked)


def layout_cases() -> dict:
    """mirror_cases and stream_chain at capacity 1, where overflow is reachable."""
    m = fixtures.stream_chain()
    m.deployment.queue_capacity = 1
    return {**mirror_cases(), "stream_chain capacity 1": m}


@pytest.mark.parametrize("name", sorted(layout_cases()))
def test_layouts_fit_the_clock_count(name, monkeypatch):
    """The budget is checked once, before the search; no layout reached
    holds more clocks than that count."""
    widths = check_layouts(monkeypatch)
    r = reach_bounds(layout_cases()[name], ReachOptions(clock_budget=40))
    assert widths and r.overflow_reachable == (name == "stream_chain capacity 1")


@pytest.mark.parametrize("name", sorted(mirror_cases()))
def test_store_stays_an_antichain(name, monkeypatch):
    check_antichains(monkeypatch)
    for merge in (True, False):
        reach_bounds(mirror_cases()[name], ReachOptions(clock_budget=40, merge=merge))


def test_overflow_reachable_flagged(monkeypatch):
    """An arrival into a full backlog yields an OVERFLOW label without a
    step, and the result flags overflow exactly when one is yielded: at
    capacity 1, on mapping_stream with two arrivals one time unit apart and
    on stream_chain, but not on stream_chain at its default capacity."""
    m = fixtures.mapping_stream(period=4000)
    m.deployment.queue_capacity = 1
    m.instance_bound = 2
    for g in m.generators:
        g.count = 2
        g.jitter = 0
        g.period = U(1)
    chain, full = fixtures.stream_chain(), fixtures.stream_chain()
    full.deployment.queue_capacity = 1
    calls = recorded_steps(monkeypatch)
    for model, flagged in ((m, True), (full, True), (chain, False)):
        calls.clear()
        r = reach_bounds(model)
        overflows = [step for call in calls for label, _zg, step in call if label[0] == OVERFLOW]
        assert all(step is None for step in overflows)
        assert r.overflow_reachable == bool(overflows) == flagged


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
    job type, and each (task, frequency) window at most once."""
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


def backlog_cases() -> dict:
    """Models whose backlog fills: stream_chain at capacity 1, where
    overflow is reachable, mapping_stream at period 4500 with K=2, and two
    generators under fifo_local and under the strict scan."""
    chain = fixtures.stream_chain()
    chain.deployment.queue_capacity = 1
    stream = fixtures.mapping_stream(period=4500)
    stream.instance_bound = 2
    return {"stream_chain capacity 1": chain, "mapping_stream 4500 K=2": stream,
            "two_jobs fifo_local": two_jobs("fifo_local"),
            "two_jobs strict": two_jobs("strict_priority_local")}


@pytest.mark.parametrize("name", sorted(backlog_cases()))
def test_stored_states_hold_only_the_live_backlog(name, monkeypatch):
    """Every stored configuration keeps its admitted, incomplete instances,
    none of them all DONE, and at most queue_capacity.  Each step keeps
    them in admission order under strict_priority_local, whose hold-back
    scan reads that order, and in instance order otherwise."""
    m = backlog_cases()[name]
    strict = m.deployment.policy == "strict_priority_local"
    seen, orders = [], []
    insert = reachability._Store.insert

    def recorded(store, d, mat):
        seen.append(d)
        return insert(store, d, mat)

    def ordered(step):
        def wrapped(net, d, *args):
            out = step(net, d, *args)
            if out is not None:
                before, after = ([i for i, _st in x.live] for x in (d, out[0]))
                orders.append((before, after))
            return out
        return wrapped

    monkeypatch.setattr(reachability._Store, "insert", recorded)
    for step in ("_after_end", "_after_arrival"):
        monkeypatch.setattr(reachability, step, ordered(getattr(reachability, step)))
    r = reach_bounds(m)
    assert r.terminal_reached and any(d.live for d in seen)
    # served in admission order, two_jobs keeps a backlog from its first
    # arrival to its last, as its simulated runs do; the others drain it
    assert any(not d.live for d in seen[1:]) == (name != "two_jobs strict")
    for before, after in orders:
        admitted = [i for i in before if i in after] + [i for i in after if i not in before]
        assert after == (admitted if strict else sorted(after)), (before, after)
    # two generators: a later-numbered instance is admitted first somewhere
    assert any(after != sorted(after) for _before, after in orders) == (name == "two_jobs strict")
    for d in seen:
        assert len({i for i, _st in d.live}) == len(d.live), d
        assert all(min(st) != DONE for _i, st in d.live), d
        assert len(d.live) <= m.deployment.queue_capacity, d


def test_formal_strict_scan_never_visits_a_completed_instance(monkeypatch):
    """The formal engine hands strict_view only its live instances, so the
    scan is as long as the backlog, not the analysed prefix."""
    sizes, visited = [], set()

    def checked(live, graphs, r):
        assert all(any(s != DONE for s in st) for st in live.values())
        sizes.append(len(live))
        visited.update(live)
        return strict_view(live, graphs, r)

    monkeypatch.setattr(schedulers, "strict_view", checked)
    m = two_jobs("strict_priority_local")
    r = reach_bounds(m)
    assert r.terminal_reached and sorted(r.instance_latency) == list(range(6))
    assert visited == set(range(6)) and max(sizes) <= m.deployment.queue_capacity
