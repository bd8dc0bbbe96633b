"""Zone-graph reachability: exact makespan and response-time bounds.

The product of generators, scheduler and running tasks is searched as symbolic
states (discrete configuration, clock zone).  Zones are difference bound
matrices over a per-configuration clock layout, and configurations are kept
dispatch-stable: every start the policy allows fires inside the transition
that enabled it.  Arrivals and completions only move forward, so the discrete
space is acyclic and the search terminates without any widening; every
reported bound is therefore both sound and attained by some run.

Three ingredients keep the zone count tractable:

  * inclusion pruning: a zone covered by a stored zone is dropped;
  * exact union merging: when the entrywise hull of two zones provably equals
    their set union, the pair is replaced by the hull.  Interleavings of
    independent task completions generate exponentially many orderings whose
    union is one convex set, and this collapses them to a single zone while
    keeping all bounds exact;
  * processor-symmetry reduction: under the per-processor policies, identical
    processors whose pinned tasks are interchangeable form classes, and each
    successor is stored as one representative of its orbit under
    permutations of a class: the members are sorted by their discrete state
    alone (scalarset reduction, sound with an approximate canonical form:
    Hendriks et al., "Adding Symmetry Reduction to Uppaal", FORMATS 2003).
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
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from functools import partial
from typing import NamedTuple

import numpy as np

from .generators import GLOBAL, arrival_rule, own_clocks
from .model import COMMUNICATION, SystemModel, TimeInterval
from .schedulers import (
    DONE,
    RUNNING,
    SchedulerState,
    TaskGraph,
    TaskRef,
    admit,
    apply_dispatch,
    enqueue,
    finish,
    next_dispatch,
    release,
    strict_view,
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
    insts: tuple  # per instance: None until admitted, else task status tuple
    sched: object  # SchedulerState


class Member(NamedTuple):
    """One processor of a class: its slot, its local queue slot (None under
    the hold-back scan), its pinned task codes in code order and, per
    instance, those codes' positions in the instance's statuses."""

    slot: int
    queue: int | None
    codes: tuple[int, ...]
    pos: tuple[tuple[int, ...], ...]


def _processor_classes(compiled: CompiledModel, policy: str) -> list[list[tuple[int, tuple]]]:
    """Classes of interchangeable processors, each a list of (processor slot,
    pinned task codes in code order), classes of two or more only.

    Only the per-processor policies qualify: each processor then has its own
    queue or hold-back scan.  Two processors are interchangeable when they
    have the same lowest frequency and, position by position, their pinned
    tasks have the same job type, window, priority and pinned frequency and
    the same neighbours, where a neighbour is either a task of the same
    processor (compared by position) or a task that no class moves (compared
    by code).  A task next to a transfer never qualifies, because link
    queues are shared and ordered by code.
    """
    if policy not in ("fifo_local", "strict_priority_local"):
        return []
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
            sig.append((g.name, compiled.window(c, r), compiled.priority[c], compiled.pinned[c],
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
            return [[(r, cands[r][0]) for r in rs] for rs in classes]
        for r in bad:
            del cands[r]


class Network:
    """The formal engine's view of one model: the shared CompiledModel, the
    arrival rules and instance numbering of the first K instances, `clocks`
    (the most any layout holds, checked against the budget here) and the
    processor classes (`orbits`, whose members `_canonical` sorts and
    `_mirrors` swaps; `member_of`: slot -> (class index, member))."""

    def __init__(self, model: SystemModel, options: ReachOptions | None = None):
        self.model = model
        self.options = options or ReachOptions()
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
        if self.clocks > self.options.clock_budget:
            raise BudgetExceeded(
                f"model may need {self.clocks} clocks (budget {self.options.clock_budget})"
            )

        self.orbits: list[tuple[Member, ...]] = []
        if self.options.symmetry:
            for cls in _processor_classes(self.compiled, model.deployment.policy):
                self.orbits.append(tuple(
                    Member(r, self.compiled.queue[codes[0]], codes,
                           tuple(tuple(c - g.first for c in codes if g.first <= c < g.first + len(g.tasks))
                                 for g in self.inst_graph))
                    for r, codes in cls))
        self.member_of = {m.slot: (k, m) for k, cls in enumerate(self.orbits) for m in cls}


# ---------------------------------------------------------------------------
# discrete-state helpers


def _clock(gidx: int, clock: int) -> tuple:
    """Layout purpose of a generator rule's clock."""
    return (T,) if clock == GLOBAL else (GEN, gidx, clock)


def _layout(net: Network, d: DState) -> tuple:
    ps = [(T,), (M,)]
    for i, st in enumerate(d.insts):
        if isinstance(st, tuple) and any(s != DONE for s in st):
            ps.append((RESP, i))
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


def _backlog(insts) -> int:
    return sum(1 for st in insts if isinstance(st, tuple) and any(s != DONE for s in st))


def _terminal(net: Network, d: DState) -> bool:
    if any(a < len(rules) for a, rules in zip(d.arrivals, net.rules)):
        return False
    return all(isinstance(st, tuple) and all(s == DONE for s in st) for st in d.insts)


def _freeze(arrivals, insts, sched) -> DState:
    return DState(
        tuple(arrivals),
        tuple(tuple(s) if isinstance(s, list) else s for s in insts),
        sched,
    )


def _cascade(net: Network, insts: list, sched):
    """Fire every start the policy allows; returns created run clocks."""
    resets = []
    live = {i: st for i, st in enumerate(insts)
            if st is not None and any(s != DONE for s in st)}
    view = partial(strict_view, live, net.inst_graph)
    while True:
        disp = next_dispatch(sched, net.compiled, view)
        if disp is None:
            return sched, resets
        ref = disp.ref
        sched = apply_dispatch(sched, disp)
        st = list(insts[ref.instance])
        st[ref.code - net.inst_graph[ref.instance].first] = RUNNING
        insts[ref.instance] = live[ref.instance] = st
        resets.append((RUN, ref.instance, ref.code))


def _after_end(net: Network, d: DState, resource: int, ref: TaskRef):
    graph = net.inst_graph[ref.instance]
    insts = list(d.insts)
    st = insts[ref.instance] = list(insts[ref.instance])
    sched = release(d.sched, resource)
    newly = finish(graph, st, ref)
    for nref in newly or ():
        sched = enqueue(sched, nref, net.compiled.queue[nref.code])
    sched, resets = _cascade(net, insts, sched)
    d2 = _freeze(d.arrivals, insts, sched)
    return d2, resets, (ref.instance if newly is None else None)


def _after_arrival(net: Network, d: DState, gidx: int):
    """Admit arrival k of generator gidx; returns (d2, resets)."""
    k = d.arrivals[gidx] + 1
    arrivals = tuple(a + 1 if i == gidx else a for i, a in enumerate(d.arrivals))
    inst = net.inst_of[(gidx, k)]
    insts = list(d.insts)
    resets = []
    reset = net.rules[gidx][k - 1].reset
    if reset is not None:
        resets.append((GEN, gidx, reset))
    if sum(d.arrivals) == 0:
        resets.append((M,))

    graph = net.inst_graph[inst]
    insts[inst], sources = admit(graph, inst)
    sched = d.sched
    for ref in sources:
        sched = enqueue(sched, ref, net.compiled.queue[ref.code])
    sched, more = _cascade(net, insts, sched)
    return _freeze(arrivals, insts, sched), resets + more


# ---------------------------------------------------------------------------
# zone plumbing


def _invariants(net: Network, d: DState, idx: dict, mat) -> bool:
    """Intersect with every location invariant; False when that empties it.
    Each invariant is an upper bound on one clock, so one pass applies all."""
    clocks, bounds = [], []
    for r, ref in enumerate(d.sched.running):
        if ref is not None:
            clocks.append(idx[(RUN, ref.instance, ref.code)])
            bounds.append(enc(net.compiled.window(ref.code, r)[1]))
    for gidx, rules in enumerate(net.rules):
        a = d.arrivals[gidx]
        dl = rules[a].deadline if a < len(rules) else None
        if dl is not None:
            clocks.append(idx[_clock(gidx, dl.clock)])
            bounds.append(enc(dl.ticks))
    return constrain_upper(mat, clocks, bounds)


class _Renaming:
    """A permutation of class members: each (src, dst) move puts src's
    statuses, running task and local queue onto dst, renaming task codes
    position by position, and the zone follows through one relayout of the
    renamed run clocks."""

    def __init__(self, moves):
        self.moves = moves
        self.code_map = {}
        for src, dst in moves:
            self.code_map.update(zip(src.codes, dst.codes))

    def ref(self, ref):
        return None if ref is None else TaskRef(ref.instance, self.code_map.get(ref.code, ref.code))

    def insts(self, insts) -> tuple:
        out = list(insts)
        for i, st in enumerate(insts):
            if st is not None:
                new = list(st)
                for src, dst in self.moves:
                    for p, q in zip(src.pos[i], dst.pos[i]):
                        new[q] = st[p]
                out[i] = tuple(new)
        return tuple(out)

    def running(self, running) -> tuple:
        out = list(running)
        for src, dst in self.moves:
            out[dst.slot] = self.ref(running[src.slot])
        return tuple(out)

    def queues(self, queues) -> tuple:
        out = list(queues)
        for src, dst in self.moves:
            if dst.queue is not None:
                out[dst.queue] = tuple(map(self.ref, queues[src.queue]))
        return tuple(out)

    def zone(self, idx: dict, mat):
        src_of = {(p if p[0] != RUN else (RUN, p[1], self.code_map.get(p[2], p[2]))): i
                  for p, i in idx.items()}
        return relayout(mat, [0] + [src_of[p] for p in sorted(src_of)])


def _canonical(net: Network, d: DState, idx: dict, mat):
    """Representative of (d, mat) under permutations of each processor class.

    A member's key is its statuses across all instances and its local queue,
    both read position by position.  Each class's members are sorted by that
    key alone, and the sort is applied as one `_Renaming`.  Members with
    equal keys keep their slot order, so the form is approximate: one orbit
    may leave several zones in a configuration, never a wrong one, since
    every permutation fixes each clock a bound reads.
    """
    queues = d.sched.queues
    moves = []
    for cls in net.orbits:
        keys = []
        for m in cls:
            status = tuple(st[p] for st, ps in zip(d.insts, m.pos) if st is not None for p in ps)
            queue = () if m.queue is None else tuple(
                (ref.instance, m.codes.index(ref.code)) for ref in queues[m.queue])
            keys.append((status, queue))
        order = sorted(range(len(cls)), key=keys.__getitem__)
        moves += [(cls[src], cls[dst]) for dst, src in enumerate(order) if dst != src]
    if not moves:
        return d, mat
    perm = _Renaming(moves)
    sched = SchedulerState(perm.queues(queues), perm.running(d.sched.running))
    return DState(d.arrivals, perm.insts(d.insts), sched), perm.zone(idx, mat)


def _mirrors(d: DState, idx: dict, mat, o: Member, r: Member) -> bool:
    """True when swapping members o and r of one class, r running a task,
    maps (d, mat) onto itself.  The three zone entries the swap exchanges,
    between the two run clocks and each against clock 0, differ in nearly
    every zone the swap does not fix, so they are compared first; then the
    statuses, running tasks and local queues, and last the whole zone."""
    running = d.sched.running
    ro, rr = running[o.slot], running[r.slot]
    a, b = idx[(RUN, ro.instance, ro.code)], idx[(RUN, rr.instance, rr.code)]
    if not (mat[a, b] == mat[b, a] and mat[a, 0] == mat[b, 0] and mat[0, a] == mat[0, b]):
        return False
    swap = _Renaming(((o, r), (r, o)))
    return (swap.insts(d.insts) == d.insts and swap.running(running) == running
            and swap.queues(d.sched.queues) == d.sched.queues
            and np.array_equal(swap.zone(idx, mat), mat))


def _shift(mat, old_idx: dict, new_lay: tuple, resets) -> np.ndarray:
    """Project a firing-instant zone onto the successor's clock layout."""
    rs = set(resets)
    srcs = [0] + [0 if p in rs else old_idx.get(p, 0) for p in new_lay]
    return relayout(mat, srcs)


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
    """Per-configuration zone antichains with inclusion pruning and merging.
    The zones of a configuration are compared clock by clock, in the member
    order that `_canonical` picked for it."""

    def __init__(self, merge: bool):
        self.zones: dict[DState, dict[bytes, np.ndarray]] = {}
        self.merge = merge
        self.merges = 0

    def get(self, d: DState, b: bytes):
        return self.zones.get(d, {}).get(b)

    def insert(self, d: DState, mat: np.ndarray) -> bytes | None:
        """Store a zone; returns its key when it must be (re)explored."""
        zs = self.zones.setdefault(d, {})
        b = mat.tobytes()
        if b in zs:
            return None
        if any(zone_includes(om, mat) for om in zs.values()):
            return None
        while True:
            for ob in [ob for ob, om in zs.items() if zone_includes(mat, om)]:
                del zs[ob]
            h = self._merge_one(zs, mat) if self.merge else None
            if h is None:
                break
            mat = h
        b = mat.tobytes()
        zs[b] = mat
        return b

    def _merge_one(self, zs: dict, mat: np.ndarray):
        """Hull of mat and one stored zone, else of a completion family with
        mat, after taking the merged zones out of zs; None if none merges."""
        for ob, om in zs.items():
            h = np.maximum(mat, om)
            if _hull_is_union(h, mat, om):
                del zs[ob]
                self.merges += 1
                return h
        keys = list(zs)
        got = _family_hull([zs[k] for k in keys] + [mat]) if keys else None
        if got is None or len(keys) not in got[1]:
            return None  # incoming zone must join, or there is no new key
        h, members = got
        self.merges += len(members) - 1
        for i in members:
            if i < len(keys):
                del zs[keys[i]]
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
    makespan = None
    per_inst: dict[int, TimeInterval] = {}
    overflow = terminal = False

    d0 = DState((0,) * len(model.generators), (None,) * len(net.inst_graph), net.compiled.idle)
    lay0 = _layout(net, d0)
    z0 = new_zero(len(lay0) + 1)
    elapse(z0)
    if not _invariants(net, d0, _index(lay0), z0):
        raise ValueError("initial state violates its own invariants")
    frontier: deque = deque()
    b0 = store.insert(d0, z0)
    frontier.append((d0, b0))
    explored = mirrored = 0

    while frontier:
        d, b = frontier.popleft()
        mat = store.get(d, b)
        if mat is None:
            continue  # superseded by a merge or a wider zone
        explored += 1
        if explored > opts.state_cap:
            raise SearchCapExceeded(f"more than {opts.state_cap} configurations")
        lay = _layout(net, d)
        idx = _index(lay)

        # task completions, canonical order, skipping mirror images of
        # completions already expanded in this state
        expanded: dict[int, list[Member]] = {}
        for ref, r in sorted((ref, r) for r, ref in enumerate(d.sched.running) if ref is not None):
            if r in net.member_of:
                k, m = net.member_of[r]
                seen = expanded.setdefault(k, [])
                if any(_mirrors(d, idx, mat, o, m) for o in seen):
                    mirrored += 1
                    continue
                seen.append(m)
            lo, _hi = net.compiled.window(ref.code, r)
            zg = mat.copy()
            if not constrain_one(zg, 0, idx[(RUN, ref.instance, ref.code)], enc(-lo)):
                continue
            d2, resets, completed = _after_end(net, d, r, ref)
            if completed is not None:
                rlo, rhi = clock_window(zg, idx[(RESP, completed)])
                per_inst[completed] = _widen(per_inst.get(completed), rlo, rhi)
            if _terminal(net, d2):
                mlo, mhi = clock_window(zg, idx[(M,)])
                makespan = _widen(makespan, mlo, mhi)
                terminal = True
                continue
            _push(net, store, frontier, d2, zg, idx, resets)

        # arrivals, generator order
        for gidx, rules in enumerate(net.rules):
            a = d.arrivals[gidx]
            if a == len(rules):
                continue
            zg = mat.copy()
            gd = rules[a].guard
            if gd is not None and not constrain_one(
                    zg, 0, idx[_clock(gidx, gd.clock)], enc(-gd.ticks, strict=gd.strict)):
                continue
            if _backlog(d.insts) >= net.model.deployment.queue_capacity:
                overflow = True
                continue  # absorbing: the run is flagged, not continued
            d2, resets = _after_arrival(net, d, gidx)
            _push(net, store, frontier, d2, zg, idx, resets)

    latency = None
    for iv in per_inst.values():
        latency = _widen(latency, iv.lo, iv.hi)
    return ReachResult(
        makespan=makespan,
        latency=latency,
        instance_latency=dict(sorted(per_inst.items())),
        overflow_reachable=overflow,
        terminal_reached=terminal,
        states=explored,
        zones=store.total(),
        merges=store.merges,
        classes=tuple(len(cls) for cls in net.orbits),
        mirrored=mirrored,
    )


def _push(net, store, frontier, d2, zg, old_idx, resets):
    lay2 = _layout(net, d2)
    z2 = _shift(zg, old_idx, lay2, resets)
    # invariants are single-clock upper bounds, so checking them before the
    # delay as well would give the same zone: (Z & I)^ & I == Z^ & I
    elapse(z2)
    idx2 = _index(lay2)
    if not _invariants(net, d2, idx2, z2):
        return
    if net.orbits:
        d2, z2 = _canonical(net, d2, idx2, z2)
    b2 = store.insert(d2, z2)
    if b2 is not None:
        frontier.append((d2, b2))
