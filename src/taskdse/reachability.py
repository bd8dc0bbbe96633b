"""Zone-graph reachability: exact makespan and response-time bounds.

The product of generators, scheduler and running tasks is searched as symbolic
states (discrete configuration, clock zone).  Zones are difference bound
matrices over a per-configuration clock layout, and configurations are kept
dispatch-stable: every start the policy allows fires inside the transition
that enabled it.  Arrivals and completions only move forward, so the discrete
space is acyclic and the search terminates without any widening.  The bounds
cover the first K instances of each generator (`instance_bound`) in runs
without overflow, since an overflowing arrival ends its run here.  Each
endpoint is attained by some run of the timed-automaton semantics, which
takes the events of one instant in every order; a simulated run handles ends
before arrivals and need not attain it.  ROADMAP items 1 and 2 plan the fixes.

Three ingredients keep the zone count tractable:

  * inclusion pruning: a zone covered by a stored zone is dropped;
  * exact union merging: when the entrywise hull of two zones provably equals
    their set union, the pair is replaced by the hull.  Interleavings of
    independent task completions generate exponentially many orderings whose
    union is one convex set, and this collapses them to a single zone while
    keeping all bounds exact;
  * processor-symmetry reduction: under the per-processor policies, identical
    processors whose pinned tasks are interchangeable form classes, tuples of
    processor slots read from the compiled model, and each successor is
    stored as one representative of its orbit under permutations of a
    class: the members are sorted by their discrete state alone, so the
    canonical form renames the configuration only, and the zone is laid out
    once, into the renamed clocks (scalarset reduction, sound with an
    approximate canonical form: Hendriks et al., "Adding Symmetry Reduction
    to Uppaal", FORMATS 2003).
    A completion is skipped as a mirror image when swapping its member with
    an already expanded member of the class maps the state onto itself.
    Both are sound because a permutation maps the successors of a state onto
    the successors of its image (Ip & Dill, "Better Verification Through
    Symmetry", FMSD 1996), and every such permutation fixes the global,
    makespan, response and generator clocks, so every bound stays exact.

Clock layout per configuration, in canonical order: the global clock, the
makespan anchor (reset at the first arrival), one response clock per admitted
incomplete instance, one clock per running task, and the generator's own
clocks (inter-arrival or sliding-window banks).  Clocks of finished tasks,
completed instances and exhausted generators are projected away.

`_successors` is the successor relation on symbolic states (Bengtsson & Yi,
"Timed Automata: Semantics, Algorithms and Tools", 2004) and `reach_bounds`
its driver.  Labels: task ends (END, slot, ref), or (MIRROR, slot, ref) for
mirror images; arrivals (ARRIVE, gidx), or (OVERFLOW, gidx) past capacity.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .generators import GLOBAL, arrival_rule, own_clocks
from .model import COMMUNICATION, LOCAL_POLICIES, SystemModel, TimeInterval
from .schedulers import (
    SchedulerState,
    TaskGraph,
    TaskRef,
    admit,
    apply_dispatch,
    enqueue,
    finish,
    freeze,
    freeze_backlog,
    next_dispatch,
    release,
    thaw,
)
from .simulator import CompiledModel
from .zones import (
    clock_window,
    constrain_one,
    constrain_upper,
    elapse,
    enc,
    new_zero,
    relayout,
    zone_includes,
    LE_ZERO,
    _mat_add,
)

# clock tags are (group, ...) tuples; the groups number the canonical layout
# order, so a sorted list of tags is the layout
T, M, RESP, RUN, GEN = range(5)
END, MIRROR, ARRIVE, OVERFLOW = range(4)


class BudgetExceeded(RuntimeError):
    pass


class SearchCapExceeded(RuntimeError):
    pass


@dataclass
class ReachOptions:
    clock_budget: int = 25
    state_cap: int = 2_000_000
    merge: bool = True  # exact union merging (off: plain inclusion antichain)
    symmetry: bool = True  # canonicalise under processor classes (off: full search)


@dataclass
class ReachResult:
    makespan: TimeInterval | None
    latency: TimeInterval | None
    instance_latency: dict[int, TimeInterval]
    overflow_reachable: bool
    terminal_reached: bool
    states: int  # configurations expanded
    zones: int  # zones stored at the end
    merges: int
    classes: tuple[int, ...] = ()  # sizes of the processor classes the search is reduced by
    mirrored: int = 0  # completions skipped as mirror images of expanded ones


@dataclass(frozen=True)
class DState:
    arrivals: tuple  # arrivals so far, per generator
    live: tuple  # (instance, task status tuple) per admitted, incomplete instance: freeze_backlog
    sched: object  # SchedulerState


def _processor_classes(compiled: CompiledModel, policy: str) -> tuple[list[tuple[int, ...]], dict]:
    """(classes, codes): tuples of two or more interchangeable processor
    slots, and `codes[r]`, member r's pinned task codes in code order.

    Only the per-processor policies qualify: each processor then has its own
    queue or hold-back scan.  Two processors are interchangeable when they
    have the same lowest frequency and, position by position, their pinned
    tasks have the same job type, window, priority and pinned frequency and
    the same neighbours, where a neighbour is either a task of the same
    processor (compared by position) or a task that no class moves (compared
    by code).  A task next to a transfer never qualifies, because link
    queues are shared and ordered by code.
    """
    if policy not in LOCAL_POLICIES:
        return [], {}
    cands = {}  # slot -> (codes, signature, codes of outside neighbours)
    for r, lowest in enumerate(compiled.lowest):
        pinned = [(g, i) for g in compiled.graphs.values() for i in g.on_pe.get(r, ())]
        codes = tuple(g.first + i for g, i in pinned)
        own = {c: k for k, c in enumerate(codes)}
        sig, outside = [lowest], set()
        for g, i in pinned:
            c = g.first + i
            ends = []
            for ns in (g.preds[i], g.succs[i]):
                ns = [g.first + n for n in ns]
                outside.update(n for n in ns if n not in own)
                ends.append(tuple(sorted((0, own[n]) if n in own else (1, n) for n in ns)))
            sig.append((g.name, compiled.durations[c][r], compiled.priority[c], compiled.pinned[c],
                        tuple(ends)))
        if codes and all(compiled.tasks[n].kind != COMMUNICATION for n in outside):
            cands[r] = (codes, tuple(sig), outside)
    # a member next to a task that another member moves could only move with
    # it, so it is dropped and the rest regrouped until no such member is left
    while True:
        groups: dict[tuple, list[int]] = {}
        for r, (_codes, sig, _outside) in cands.items():
            groups.setdefault(sig, []).append(r)
        classes = [rs for rs in groups.values() if len(rs) > 1]
        moved = {c for rs in classes for r in rs for c in cands[r][0]}
        bad = [r for rs in classes for r in rs if cands[r][2] & moved]
        if not bad:
            return [tuple(rs) for rs in classes], {r: cands[r][0] for rs in classes for r in rs}
        for r in bad:
            del cands[r]


class Network:
    """The formal engine's view of one model: the shared CompiledModel, the
    arrival rules and instance numbering of the first K instances, `clocks`
    (the most any layout holds, checked against the budget here) and the
    processor classes: `orbits`, tuples of slots that `_canonical` sorts
    and `_mirrors` swaps, `class_of` (slot -> class index) and `codes`
    (slot -> pinned task codes).  A member's status positions and queue are
    its slot's `on_pe` and `serves` entries in the compiled model."""

    def __init__(self, model: SystemModel, options: ReachOptions | None = None):
        self.model = model
        options = options or ReachOptions()
        self.compiled = CompiledModel(model)
        graphs = self.compiled.graphs
        # rules[gidx][a]: rule of arrival a + 1; instance_bound caps the count
        self.rules = [[arrival_rule(g, k) for k in range(1, min(g.count, model.instance_bound) + 1)]
                      for g in model.generators]
        self.inst_graph: list[TaskGraph] = []
        self.inst_of: dict[tuple[int, int], int] = {}
        for gidx, g in enumerate(model.generators):
            for k in range(1, len(self.rules[gidx]) + 1):
                self.inst_of[(gidx, k)] = len(self.inst_graph)
                self.inst_graph.append(graphs[g.job_type])

        gen_clocks = sum(own_clocks(g) for g in model.generators)
        concurrent = min(len(self.inst_graph), model.deployment.queue_capacity)
        self.clocks = 2 + concurrent + len(self.compiled.resources) + gen_clocks
        if self.clocks > options.clock_budget:
            raise BudgetExceeded(
                f"model may need {self.clocks} clocks (budget {options.clock_budget})"
            )

        self.orbits, self.codes = (_processor_classes(self.compiled, model.deployment.policy)
                                   if options.symmetry else ([], {}))
        self.class_of = {r: k for k, cls in enumerate(self.orbits) for r in cls}


# ---------------------------------------------------------------------------
# discrete-state helpers


def _clock(gidx: int, clock: int) -> tuple:
    """Layout purpose of a generator rule's clock."""
    return (T,) if clock == GLOBAL else (GEN, gidx, clock)


def _layout(net: Network, d: DState) -> tuple:
    ps = [(T,), (M,)]
    ps.extend((RESP, i) for i, _st in d.live)
    for ref in d.sched.running:
        if ref is not None:
            ps.append((RUN, ref.instance, ref.code))
    for gidx, g in enumerate(net.model.generators):
        if d.arrivals[gidx] < len(net.rules[gidx]):
            ps.extend((GEN, gidx, s) for s in range(own_clocks(g)))
    ps.sort()
    return tuple(ps)


def _index(lay: tuple) -> dict:
    return {p: i + 1 for i, p in enumerate(lay)}


def _terminal(net: Network, d: DState) -> bool:
    return not d.live and all(a == len(rules) for a, rules in zip(d.arrivals, net.rules))


def _settle(net: Network, arrivals: tuple, live: dict, work, refs: list):
    """Queue `refs`, fire every start the policy allows on the working state
    `work` and the backlog map `live`, and freeze the successor; returns
    (d2, run clocks created)."""
    compiled, graphs = net.compiled, net.inst_graph
    for ref in refs:
        enqueue(work, ref, compiled.queue[ref.code])
    resets = []
    while (disp := next_dispatch(work, compiled, live, graphs)) is not None:
        apply_dispatch(work, disp, live, graphs)
        resets.append((RUN, *disp.ref))
    return DState(arrivals, freeze_backlog(live, compiled), freeze(work)), resets


def _after_end(net: Network, d: DState, resource: int, ref: TaskRef):
    """End `ref` on `resource`; returns (d2, resets, the instance it
    completed or None)."""
    live = {i: list(st) for i, st in d.live}
    work = thaw(d.sched)
    release(work, resource)
    d2, resets = _settle(net, d.arrivals, live, work, finish(net.inst_graph[ref.instance], live, ref))
    return d2, resets, (None if ref.instance in live else ref.instance)


def _after_arrival(net: Network, d: DState, gidx: int):
    """Admit arrival k of generator gidx; returns (d2, resets, None) like
    `_after_end`, or None when the backlog is full and the arrival overflows."""
    k = d.arrivals[gidx] + 1
    inst = net.inst_of[(gidx, k)]
    live = {i: list(st) for i, st in d.live}
    refs = admit(net.inst_graph[inst], live, inst, net.model.deployment.queue_capacity)
    if refs is None:
        return None
    arrivals = tuple(a + 1 if i == gidx else a for i, a in enumerate(d.arrivals))
    resets = []
    reset = net.rules[gidx][k - 1].reset
    if reset is not None:
        resets.append((GEN, gidx, reset))
    if sum(d.arrivals) == 0:
        resets.append((M,))

    d2, more = _settle(net, arrivals, live, thaw(d.sched), refs)
    return d2, resets + more, None


# ---------------------------------------------------------------------------
# zone plumbing


def _invariants(net: Network, d: DState, idx: dict, mat) -> bool:
    """Intersect with every location invariant; False when that empties it.
    Each invariant is an upper bound on one clock, so one pass applies all."""
    clocks, bounds = [], []
    for r, ref in enumerate(d.sched.running):
        if ref is not None:
            clocks.append(idx[(RUN, ref.instance, ref.code)])
            bounds.append(enc(net.compiled.durations[ref.code][r][1]))
    for gidx, rules in enumerate(net.rules):
        a = d.arrivals[gidx]
        dl = rules[a].deadline if a < len(rules) else None
        if dl is not None:
            clocks.append(idx[_clock(gidx, dl.clock)])
            bounds.append(enc(dl.ticks))
    return constrain_upper(mat, clocks, bounds)


def _member_key(net: Network, d: DState, r: int) -> tuple:
    """Member slot r's statuses across the live instances and its local
    queue (none under the hold-back scan), both read position by position,
    so members with equal keys look alike."""
    graphs, codes = net.inst_graph, net.codes[r]
    status = tuple(st[p] for i, st in d.live for p in graphs[i].on_pe.get(r, ()))
    queue = tuple((ref.instance, codes.index(ref.code))
                  for s in net.compiled.serves[r] for ref in d.sched.queues[s])
    return status, queue


def _canonical(net: Network, d: DState) -> tuple[DState, dict]:
    """Representative of configuration d under permutations of each
    processor class, and `back`: each renamed task code -> the code it came
    from ({} when no member moves).

    Each class's members are sorted by `_member_key` alone, and the sort is
    applied through `_renamed`.  Members with equal keys keep their slot
    order, so the form is approximate: one orbit may leave several zones in
    a configuration, never a wrong one, since every permutation fixes each
    clock a bound reads.
    """
    moves = []
    for cls in net.orbits:
        keys = [_member_key(net, d, r) for r in cls]
        order = sorted(range(len(cls)), key=keys.__getitem__)
        moves += [(cls[src], cls[dst]) for dst, src in enumerate(order) if dst != src]
    return _renamed(net, d, moves) if moves else (d, {})


def _renamed(net: Network, d: DState, moves) -> tuple[DState, dict]:
    """d with each (src, dst) move of processor slots applied, and `back`
    (each renamed task code -> the code it came from): src's statuses,
    running task and local queue go onto dst, and task codes are renamed
    position by position."""
    code_map = {}
    for src, dst in moves:
        code_map.update(zip(net.codes[src], net.codes[dst]))

    def ref(x):
        return None if x is None else TaskRef(x.instance, code_map.get(x.code, x.code))

    live = []
    for i, st in d.live:
        on_pe, new = net.inst_graph[i].on_pe, list(st)
        for src, dst in moves:
            for p, q in zip(on_pe.get(src, ()), on_pe.get(dst, ())):
                new[q] = st[p]
        live.append((i, tuple(new)))
    queues, running, serves = list(d.sched.queues), list(d.sched.running), net.compiled.serves
    for src, dst in moves:
        running[dst] = ref(d.sched.running[src])
        for qs, qd in zip(serves[src], serves[dst]):
            queues[qd] = tuple(map(ref, d.sched.queues[qs]))
    sched = SchedulerState(tuple(queues), tuple(running))
    return DState(d.arrivals, tuple(live), sched), {v: k for k, v in code_map.items()}


def _mirrors(net: Network, d: DState, idx: dict, mat, o: int, r: int) -> bool:
    """True when swapping member slots o and r of one class, both running a
    task, maps (d, mat) onto itself.

    Equal member keys mean the swap fixes the statuses, the running tasks
    and the local queues, and then it exchanges exactly the two run clocks
    a and b.  So the zone must be symmetric in a and b: row a equals row b
    and column a equals column b once entries a and b are exchanged.  The
    three entries between the two clocks and against clock 0 differ in
    nearly every zone the swap does not fix, so they are compared first.
    """
    running = d.sched.running
    ro, rr = running[o], running[r]
    a, b = idx[(RUN, ro.instance, ro.code)], idx[(RUN, rr.instance, rr.code)]
    if not (mat[a, b] == mat[b, a] and mat[a, 0] == mat[b, 0] and mat[0, a] == mat[0, b]):
        return False
    if _member_key(net, d, o) != _member_key(net, d, r):
        return False
    swap = list(range(len(mat)))
    swap[a], swap[b] = b, a
    return np.array_equal(mat[a, swap], mat[b]) and np.array_equal(mat[swap, a], mat[:, b])


def _hull_is_union(h, a, b) -> bool:
    """Exact check that hull h (entrywise max of a, b) adds no new points.

    h differs from the union iff some point of h violates one bound of a and
    one bound of b; only bounds the hull strictly relaxed can be violated, so
    the pair search runs over the entries (i, j) where h > a and (k, l) where
    h > b.  It is closed form, with no copy and no closure:

    - h is canonical, so cutting it with the complement of a's bound,
      c_j - c_i ~ not a[i, j], changes entry (k, l) only to
      min(h[k, l], h[k, j] + not a[i, j] + h[i, l]).
    - The cut is never empty, because h[i, j] > a[i, j].
    - The cut meets the complement of b's bound iff that entry exceeds
      b[k, l] (enc_add(enc_neg(e), x) >= LE_ZERO holds exactly when x > e),
      and h[k, l] already does.

    So h is not the union exactly when some pair has
    h[k, j] + not a[i, j] + h[i, l] > b[k, l], with + the bound sum enc_add
    and not e = enc_neg(e) = LE_ZERO - e.  Every pair is tested in one
    broadcast, the (k, l) pairs down the rows and the (i, j) across.
    """
    ti, tj = np.nonzero(h > a)
    tk, tl = np.nonzero(h > b)
    if len(ti) == 0 or len(tk) == 0:
        return True  # hull collapses to one operand
    via = _mat_add(_mat_add(h[tk[:, None], tj], LE_ZERO - a[ti, tj]), h[ti, tl[:, None]])
    return not (via > b[tk, tl][:, None]).any()


def _family_hull(mats: list):
    """Hull of a completion family, exact by construction; None if no match.

    Interleaving the ends of concurrently running tasks produces one zone per
    completion order whose union is convex even though no proper subset's
    union is, so pairwise merging stalls from three concurrent tasks up.  The
    family shape is recognizable: against the m-way hull, each zone relaxes
    entries in a single clock row (its "ended last" clock) with non-negative
    bounds, and every relaxed entry points at another family row.  A point
    escaping the union would then need every family clock to strictly exceed
    some other family clock, contradicting whichever of them is minimal, so
    the hull adds no points and can replace the family without any search.

    Returns (hull, member indices) over the largest conforming subset.
    """
    idxs = list(range(len(mats)))
    while len(idxs) >= 2:
        h = mats[idxs[0]].copy()
        for i in idxs[1:]:
            np.maximum(h, mats[i], out=h)
        infos = {}
        drop = []
        for i in idxs:
            ta = np.argwhere(h > mats[i])
            if len(ta) == 0:
                return h, idxs  # hull equals this member, union is trivial
            rows = {int(p) for p, _q in ta}
            if len(rows) != 1:
                drop.append(i)
                continue
            r = rows.pop()
            if any(int(mats[i][p, q]) < LE_ZERO for p, q in ta):
                drop.append(i)
                continue
            infos[i] = (r, {int(q) for _p, q in ta})
        if not drop:
            rset = {info[0] for info in infos.values()}
            drop = [i for i in idxs if not infos[i][1] <= rset]
            if not drop:
                return h, idxs
        idxs = [i for i in idxs if i not in drop]
    return None


class _Store:
    """Per-configuration zone antichains with inclusion pruning and merging:
    `zones[d]` lists configuration d's zones in the order they were stored,
    and the frontier queues each stored zone itself, with its clock index.
    The zones of a configuration are compared clock by clock, in the member
    order that `_canonical` picked for it."""

    def __init__(self, merge: bool):
        self.zones: dict[DState, list[np.ndarray]] = {}
        self.merge = merge
        self.merges = 0

    def insert(self, d: DState, mat: np.ndarray) -> np.ndarray | None:
        """Store a zone; returns the zone stored (mat or a hull holding it)
        when it must be (re)explored, None when a stored zone covers mat."""
        zs = self.zones.setdefault(d, [])
        if any(zone_includes(om, mat) for om in zs):
            return None
        while True:
            zs[:] = [om for om in zs if not zone_includes(mat, om)]
            h = self._merge_one(zs, mat) if self.merge else None
            if h is None:
                break
            mat = h
        zs.append(mat)
        return mat

    def _merge_one(self, zs: list, mat: np.ndarray):
        """Hull of mat and one stored zone, else of a completion family with
        mat, after taking the merged zones out of zs; None if none merges."""
        for k, om in enumerate(zs):
            h = np.maximum(mat, om)
            if _hull_is_union(h, mat, om):
                del zs[k]
                self.merges += 1
                return h
        got = _family_hull(zs + [mat]) if zs else None
        if got is None or len(zs) not in got[1]:
            return None  # the incoming zone must join, or nothing is stored anew
        h, members = got
        self.merges += len(members) - 1
        zs[:] = [om for k, om in enumerate(zs) if k not in members]
        return h

    def total(self) -> int:
        return sum(len(zs) for zs in self.zones.values())


def _widen(cur: TimeInterval | None, lo: int, hi: int | None) -> TimeInterval:
    """Smallest interval holding cur and [lo, hi]; hi None is unbounded."""
    hi = math.inf if hi is None else hi
    if cur is None:
        return TimeInterval(lo, hi)
    return TimeInterval(min(cur.lo, lo), max(cur.hi, hi))


# ---------------------------------------------------------------------------
# search


def _successors(net: Network, d: DState, mat, idx: dict):
    """Yield (label, zg, step) per transition out of (d, mat): ends, in
    ascending (ref, slot), then arrivals, in generator order.  zg is mat
    copied under the guard and step what `_after_end` or `_after_arrival`
    returns; a MIRROR label has neither, an OVERFLOW label no step."""
    expanded: dict[int, list[int]] = {}
    for ref, r in sorted((ref, r) for r, ref in enumerate(d.sched.running) if ref is not None):
        if r in net.class_of:
            seen = expanded.setdefault(net.class_of[r], [])
            if any(_mirrors(net, d, idx, mat, o, r) for o in seen):
                yield (MIRROR, r, ref), None, None
                continue
            seen.append(r)
        lo, _hi = net.compiled.durations[ref.code][r]
        zg = mat.copy()
        if constrain_one(zg, 0, idx[(RUN, ref.instance, ref.code)], enc(-lo)):
            yield (END, r, ref), zg, _after_end(net, d, r, ref)
    for gidx, (a, rules) in enumerate(zip(d.arrivals, net.rules)):
        if a == len(rules):
            continue
        zg = mat.copy()
        gd = rules[a].guard
        if gd is not None and not constrain_one(
                zg, 0, idx[_clock(gidx, gd.clock)], enc(-gd.ticks, strict=gd.strict)):
            continue
        step = _after_arrival(net, d, gidx)
        yield ((OVERFLOW, gidx) if step is None else (ARRIVE, gidx)), zg, step


def reach_bounds(model: SystemModel, options: ReachOptions | None = None) -> ReachResult:
    """Exact bounds on makespan and per-instance response times.

    Assumes a model that passes validate_model.  Raises BudgetExceeded
    before the search when the model may need more clocks than the budget,
    and SearchCapExceeded when more than state_cap configurations get
    expanded.
    """
    opts = options or ReachOptions()
    net = Network(model, opts)
    store = _Store(opts.merge)
    makespan = latency = None
    per_inst: dict[int, TimeInterval] = {}
    overflow = False

    d0 = DState((0,) * len(model.generators), (), net.compiled.idle)
    idx0 = _index(_layout(net, d0))
    z0 = new_zero(len(idx0) + 1)
    elapse(z0)
    if not _invariants(net, d0, idx0, z0):
        raise ValueError("initial state violates its own invariants")
    frontier = deque([(d0, store.insert(d0, z0), idx0)])
    explored = mirrored = 0

    while frontier:
        d, mat, idx = frontier.popleft()
        if not any(z is mat for z in store.zones[d]):
            continue  # superseded by a merge or a wider zone
        explored += 1
        if explored > opts.state_cap:
            raise SearchCapExceeded(f"more than {opts.state_cap} configurations")

        for label, zg, step in _successors(net, d, mat, idx):
            if label[0] == MIRROR:
                mirrored += 1
            elif label[0] == OVERFLOW:
                overflow = True  # absorbing: the run is flagged, not continued
            else:
                d2, resets, completed = step
                if completed is not None:
                    rlo, rhi = clock_window(zg, idx[(RESP, completed)])
                    per_inst[completed] = _widen(per_inst.get(completed), rlo, rhi)
                    latency = _widen(latency, rlo, rhi)
                if _terminal(net, d2):
                    makespan = _widen(makespan, *clock_window(zg, idx[(M,)]))
                else:
                    _push(net, store, frontier, d2, zg, idx, resets)

    return ReachResult(
        makespan=makespan,
        latency=latency,
        instance_latency=dict(sorted(per_inst.items())),
        overflow_reachable=overflow,
        terminal_reached=makespan is not None,
        states=explored,
        zones=store.total(),
        merges=store.merges,
        classes=tuple(len(cls) for cls in net.orbits),
        mirrored=mirrored,
    )


def _push(net, store, frontier, d2, zg, old_idx, resets):
    """Store d2 in canonical form, its zone carried from the firing zone zg
    by one relayout: a renamed run clock reads its source's clock."""
    back = {}
    if net.orbits:
        d2, back = _canonical(net, d2)
    lay2 = _layout(net, d2)
    rs = set(resets)
    srcs = [0]
    for p in lay2:
        if p[0] == RUN and p[2] in back:
            p = (RUN, p[1], back[p[2]])
        srcs.append(0 if p in rs else old_idx.get(p, 0))
    z2 = relayout(zg, srcs)
    # invariants are single-clock upper bounds, so checking them before the
    # delay as well would give the same zone: (Z & I)^ & I == Z^ & I
    elapse(z2)
    idx2 = _index(lay2)
    if not _invariants(net, d2, idx2, z2):
        return
    stored = store.insert(d2, z2)
    if stored is not None:
        frontier.append((d2, stored, idx2))
