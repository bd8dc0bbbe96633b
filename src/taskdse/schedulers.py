"""Deterministic scheduling policies shared by both analysis engines.

The policy state is a frozen value (plain tuples), so the formal engine can
hash it into discrete states and the simulator can mutate-by-replacement; both
therefore run the exact same decision code.  Tie-breaks are total: tasks that
become ready at the same instant enqueue in (instance index, job name, task id)
order, and free processors are considered in ascending id order.

The enabling rules live here too: both engines track each admitted instance
as a list of PENDING/QUEUED/RUNNING/DONE task statuses over one TaskGraph, and
`admit`, `finish` and `strict_view` decide which task instances become ready.

Policies for computation tasks:

  fifo_global            one central queue, any free processor
  fifo_priority_global   one queue per priority level, higher level first
  fifo_local             one queue per processor via the fixed mapping
  strict_priority_local  a processor runs its highest-priority incomplete
                         task or idles until that task is enabled (hold-back)

Communication tasks always queue FIFO on their annotated interconnect,
whatever the policy.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .model import COMMUNICATION, Deployment, JobType, Platform, TaskSpec

PENDING, QUEUED, RUNNING, DONE = 0, 1, 2, 3


class TaskRef(NamedTuple):
    """One task instance: (instance index, job, task) is also the tie-break key."""

    instance: int
    job: str
    task: str


def ready_order(refs: list[TaskRef]) -> list[TaskRef]:
    """Canonical enqueue order for simultaneously enabled tasks."""
    return sorted(refs)


class TaskGraph:
    """Static structure of one job type after expand_comm_tasks.

    Tasks are addressed by their position in `tasks`; `preds`, `succs`,
    `sources` and `on_pe` (computation tasks mapped to each processor, in
    task order) hold positions too.
    """

    def __init__(self, job: JobType, dep: Deployment):
        self.name = job.name
        self.tasks = job.tasks
        self.index = {t.id: i for i, t in enumerate(job.tasks)}
        preds, succs = job.preds(), job.succs()
        self.preds = [[self.index[p] for p in preds[t.id]] for t in job.tasks]
        self.succs = [[self.index[s] for s in succs[t.id]] for t in job.tasks]
        self.sources = [i for i, p in enumerate(self.preds) if not p]
        self.on_pe: dict[str, list[int]] = {}
        for i, t in enumerate(job.tasks):
            pe = dep.mapping.get(t.id)
            if t.kind != COMMUNICATION and pe is not None:
                self.on_pe.setdefault(pe, []).append(i)

    def task(self, task_id: str) -> TaskSpec:
        return self.tasks[self.index[task_id]]


def admit(graph: TaskGraph, instance: int) -> tuple[list[int], list[TaskRef]]:
    """Statuses of a freshly admitted instance and its queued source tasks."""
    st = [PENDING] * len(graph.tasks)
    for i in graph.sources:
        st[i] = QUEUED
    return st, ready_order([TaskRef(instance, graph.name, graph.tasks[i].id) for i in graph.sources])


def finish(graph: TaskGraph, st: list[int], ref: TaskRef) -> list[TaskRef] | None:
    """Mark `ref` DONE; None when that completes its instance, else the
    successors it enables, now QUEUED and in ready order."""
    st[graph.index[ref.task]] = DONE
    if all(s == DONE for s in st):
        return None
    newly = [
        TaskRef(ref.instance, ref.job, graph.tasks[k].id)
        for k in graph.succs[graph.index[ref.task]]
        if st[k] == PENDING and all(st[p] == DONE for p in graph.preds[k])
    ]
    for nref in newly:
        st[graph.index[nref.task]] = QUEUED
    return ready_order(newly)


def strict_view(insts, graphs, pe_id: str) -> list[tuple[TaskRef, bool]]:
    """Incomplete task instances mapped to `pe_id` as (ref, enabled) pairs.

    `insts[i]` is instance i's status list (anything else when it is not
    admitted) and `graphs[i]` its TaskGraph; strict_priority_local picks
    among these pairs.
    """
    out = []
    for i, st in enumerate(insts):
        if not isinstance(st, (tuple, list)):
            continue
        graph = graphs[i]
        for k in graph.on_pe.get(pe_id, ()):
            if st[k] in (RUNNING, DONE):
                continue
            enabled = all(st[p] == DONE for p in graph.preds[k])
            out.append((TaskRef(i, graph.name, graph.tasks[k].id), enabled))
    return out


@dataclass(frozen=True)
class Dispatch:
    ref: TaskRef
    resource: str
    frequency: Fraction | None  # None on interconnects


class SchedulerState(NamedTuple):
    queue: tuple[TaskRef, ...] = ()  # fifo_global
    level_queues: tuple[tuple[int, tuple[TaskRef, ...]], ...] = ()  # priority, desc
    local_queues: tuple[tuple[str, tuple[TaskRef, ...]], ...] = ()  # per pe, asc id
    ic_queues: tuple[tuple[str, tuple[TaskRef, ...]], ...] = ()
    running: tuple[tuple[str, TaskRef], ...] = ()  # resource -> task, asc id

    def occupant(self, resource: str) -> TaskRef | None:
        for rid, ref in self.running:
            if rid == resource:
                return ref
        return None


def empty_state(platform: Platform) -> SchedulerState:
    ics = tuple((ic.id, ()) for ic in sorted(platform.interconnects, key=lambda i: i.id))
    return SchedulerState(ic_queues=ics)


def _tuple_map_set(entries: tuple, key, value) -> tuple:
    out = [e for e in entries if e[0] != key]
    out.append((key, value))
    out.sort(key=lambda e: e[0])
    return tuple(out)


def _tuple_map_get(entries: tuple, key, default=()):
    for k, v in entries:
        if k == key:
            return v
    return default


def enqueue(state: SchedulerState, ref: TaskRef, task: TaskSpec, dep: Deployment) -> SchedulerState:
    """Queue one enabled task instance according to the deployment policy."""
    if task.kind == COMMUNICATION:
        q = _tuple_map_get(state.ic_queues, task.interconnect)
        return state._replace(ic_queues=_tuple_map_set(state.ic_queues, task.interconnect, q + (ref,)))

    policy = dep.policy
    if policy == "fifo_global":
        return state._replace(queue=state.queue + (ref,))
    if policy == "fifo_priority_global":
        level = dep.priorities.get(ref.task, 0)
        q = _tuple_map_get(state.level_queues, level)
        return state._replace(level_queues=_tuple_map_set(state.level_queues, level, q + (ref,)))
    if policy == "fifo_local":
        pe = dep.mapping[ref.task]
        q = _tuple_map_get(state.local_queues, pe)
        return state._replace(local_queues=_tuple_map_set(state.local_queues, pe, q + (ref,)))
    if policy == "strict_priority_local":
        # hold-back policy keeps no queue; dispatch scans the incomplete set
        return state
    raise ValueError(f"unknown policy {policy}")


def frequency_for(task_id: str, pe_id: str, dep: Deployment, platform: Platform) -> Fraction:
    """A computation task's frequency on `pe_id`: its pinned one, else the lowest."""
    f = dep.task_frequency.get(task_id)
    if f is not None:
        return f
    return platform.processor(pe_id).min_frequency()


def next_dispatch(
    state: SchedulerState,
    dep: Deployment,
    platform: Platform,
    strict_view=None,
) -> Dispatch | None:
    """First dispatch the policy fires in `state`, or None if none does.

    Engines call this repeatedly (applying each dispatch) until it returns
    None; that exhausts every work-conserving start without letting time pass.
    `strict_view(pe_id)` is required by strict_priority_local: it returns the
    processor's incomplete mapped task instances as (ref, enabled) pairs.
    Both engines pass the module's strict_view bound to their statuses.
    """
    busy = {rid for rid, _ in state.running}
    pes = [p for p in platform.active_processors() if p.id not in busy]
    pes.sort(key=lambda p: p.id)

    policy = dep.policy
    for pe in pes:
        if policy == "fifo_global":
            if state.queue:
                ref = state.queue[0]
                return Dispatch(ref, pe.id, frequency_for(ref.task, pe.id, dep, platform))
        elif policy == "fifo_priority_global":
            for level, q in sorted(state.level_queues, key=lambda e: -e[0]):
                if q:
                    return Dispatch(q[0], pe.id, frequency_for(q[0].task, pe.id, dep, platform))
        elif policy == "fifo_local":
            q = _tuple_map_get(state.local_queues, pe.id)
            if q:
                ref = q[0]
                return Dispatch(ref, pe.id, frequency_for(ref.task, pe.id, dep, platform))
        elif policy == "strict_priority_local":
            pending = strict_view(pe.id)
            if pending:
                # priority is primary within an instance, instance index outer
                best = min(pending, key=lambda p: (p[0].instance, -dep.priorities.get(p[0].task, 0), p[0]))
                ref, enabled = best
                if enabled:
                    return Dispatch(ref, pe.id, frequency_for(ref.task, pe.id, dep, platform))
                # hold: this processor waits for its top task
        else:
            raise ValueError(f"unknown policy {policy}")

    for iid, q in state.ic_queues:
        if q and all(rid != iid for rid, _ in state.running):
            return Dispatch(q[0], iid, None)
    return None


def apply_dispatch(state: SchedulerState, d: Dispatch, dep: Deployment, is_comm: bool) -> SchedulerState:
    """Remove the dispatched task from its queue and mark the resource busy."""
    if is_comm:
        q = _tuple_map_get(state.ic_queues, d.resource)
        state = state._replace(ic_queues=_tuple_map_set(state.ic_queues, d.resource, q[1:]))
    else:
        policy = dep.policy
        if policy == "fifo_global":
            state = state._replace(queue=state.queue[1:])
        elif policy == "fifo_priority_global":
            level = dep.priorities.get(d.ref.task, 0)
            q = _tuple_map_get(state.level_queues, level)
            state = state._replace(level_queues=_tuple_map_set(state.level_queues, level, q[1:]))
        elif policy == "fifo_local":
            q = _tuple_map_get(state.local_queues, d.resource)
            state = state._replace(local_queues=_tuple_map_set(state.local_queues, d.resource, q[1:]))
        # strict_priority_local keeps no queue
    return state._replace(running=_tuple_map_set(state.running, d.resource, d.ref))


def release(state: SchedulerState, resource: str) -> SchedulerState:
    running = tuple(e for e in state.running if e[0] != resource)
    return state._replace(running=running)
