"""Deterministic scheduling policies shared by both analysis engines.

The policy state has two forms.  `SchedulerState` is the frozen value
(plain tuples) that the formal engine hashes into its discrete states; the
working state is its open form, one list per queue slot and one list of
running tasks, and `enqueue`, `apply_dispatch` and `release` change it in
place.  `thaw` opens a frozen state and `freeze` closes a working one: the
simulator thaws the idle state once per run and never freezes, and the formal
engine thaws a configuration's state, applies one transition and freezes the
successor's.  `next_dispatch` only reads queue heads, running tasks and the
backlog, so it serves both forms and both engines run the same decision code.

Tasks are addressed by integer codes that a compiled model assigns in (job
name, task id) order.  Tie-breaks are total: tasks that become ready at the
same instant enqueue in (instance index, task code) order, which is (instance
index, job name, task id) order, and free processors are considered in
ascending id order.

The backlog rules live here too: both engines keep the backlog as one map,
in admission order, from each admitted, incomplete instance to its
PENDING/QUEUED/RUNNING/DONE task statuses over one TaskGraph.  Only `admit`
(up to the queue capacity), `apply_dispatch` and `finish` write it; the
hold-back scan `strict_view` reads it in that order, and `freeze_backlog`
keeps that order where the scan reads it.

Policies for computation tasks:

  fifo_global            one central queue, any free processor
  fifo_priority_global   one queue per priority level, higher level first
  fifo_local             one queue per processor via the fixed mapping
  strict_priority_local  a processor runs the highest-priority incomplete
                         task of the oldest instance with one on it, or idles
                         until that task is enabled (hold-back)

Communication tasks always queue FIFO on their annotated interconnect,
whatever the policy.  `queue_key` resolves the policy once per task into the
key of the one queue it waits in.  A compiled model numbers those keys and
the resources as integer slots, so the state is one FIFO per queue slot and
one running task (or None) per resource slot, and only the hold-back scan
looks at the policy again.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .model import COMMUNICATION, Deployment, JobType, TaskSpec

PENDING, QUEUED, RUNNING, DONE = 0, 1, 2, 3

# The hot paths build TaskRef, Dispatch and SchedulerState values with
# tuple.__new__ instead of the NamedTuple constructors, which are Python-level
# functions; the values, their equality and their hashes are the same.
_new = tuple.__new__


class TaskRef(NamedTuple):
    """One task instance: (instance index, task code) is also the tie-break key."""

    instance: int
    code: int


SHARED, LOCAL, LINK = 0, 1, 2  # queue kinds, in service order


def queue_key(task: TaskSpec, dep: Deployment) -> tuple | None:
    """The queue `task` waits in under the deployment's policy.

    Keys sort in service order: shared levels from the highest priority down,
    then per-processor queues, then interconnects by id.  None means no queue:
    strict_priority_local scans the incomplete tasks instead.
    """
    if task.kind == COMMUNICATION:
        return (LINK, task.interconnect)
    policy = dep.policy
    if policy == "fifo_global":
        return (SHARED, 0)
    if policy == "fifo_priority_global":
        return (SHARED, -dep.priorities.get(task.id, 0))
    if policy == "fifo_local":
        return (LOCAL, dep.mapping[task.id])
    if policy == "strict_priority_local":
        return None
    raise ValueError(f"unknown policy {policy}")


class TaskGraph:
    """Static structure of one job type after expand_comm_tasks.

    `tasks` is sorted by id and task i has code `first + i`; `preds`,
    `succs`, `sources` and `on_pe` (computation tasks mapped to each
    processor, keyed by its slot in `slots`) hold positions i, which also
    index an instance's statuses.  `succs` and `sources` are in position
    order, so the tasks one event enables come out in code order.
    """

    def __init__(self, job: JobType, dep: Deployment, first: int, slots: dict[str, int]):
        self.name = job.name
        self.first = first
        self.tasks = sorted(job.tasks, key=lambda t: t.id)
        index = {t.id: i for i, t in enumerate(self.tasks)}
        preds, succs = job.preds(), job.succs()
        self.preds = [[index[p] for p in preds[t.id]] for t in self.tasks]
        self.succs = [sorted(index[s] for s in succs[t.id]) for t in self.tasks]
        self.sources = [i for i, p in enumerate(self.preds) if not p]
        self.on_pe: dict[int, list[int]] = {}
        for i, t in enumerate(self.tasks):
            r = slots.get(dep.mapping.get(t.id))
            if t.kind != COMMUNICATION and r is not None:
                self.on_pe.setdefault(r, []).append(i)


def admit(graph: TaskGraph, live: dict, instance: int, capacity: int) -> list[TaskRef] | None:
    """Enter `instance` into the backlog `live` unless `capacity` instances fill
    it; returns its queued sources in code order, or None on overflow."""
    if len(live) >= capacity:
        return None
    st = live[instance] = [PENDING] * len(graph.tasks)
    for i in graph.sources:
        st[i] = QUEUED
    return [_new(TaskRef, (instance, graph.first + i)) for i in graph.sources]


def finish(graph: TaskGraph, live: dict, ref: TaskRef) -> list[TaskRef]:
    """Mark `ref` DONE in the backlog `live`; returns the successors it
    enables, now QUEUED and in code order.  When that completes the
    instance, it leaves `live` and nothing is enabled."""
    inst, code = ref
    st = live[inst]
    i = code - graph.first
    st[i] = DONE
    if min(st) == DONE:  # DONE is the largest status
        del live[inst]
        return []
    newly = []
    for k in graph.succs[i]:
        if st[k] != PENDING:
            continue
        for p in graph.preds[k]:
            if st[p] != DONE:
                break
        else:
            st[k] = QUEUED
            newly.append(_new(TaskRef, (inst, graph.first + k)))
    return newly


def strict_view(live: dict, graphs, r: int) -> list[tuple[TaskRef, bool]]:
    """The waiting tasks on processor slot `r` of the oldest instance in the
    backlog `live` that has any, as (ref, enabled) pairs in code order.
    `live` maps each admitted, incomplete instance i, in admission order, to
    its statuses, and `graphs[i]` is its TaskGraph; the scan stops there."""
    for i, st in live.items():
        graph = graphs[i]
        out = [(_new(TaskRef, (i, graph.first + k)), all(st[p] == DONE for p in graph.preds[k]))
               for k in graph.on_pe.get(r, ()) if st[k] < RUNNING]
        if out:
            return out
    return []


def freeze_backlog(live: dict, compiled) -> tuple:
    """`live` as (instance, status tuple) pairs: in admission order where the
    hold-back scan reads it, else in instance order, so that it splits no state."""
    items = live.items() if compiled.strict else sorted(live.items())
    return tuple((i, tuple(st)) for i, st in items)


class Dispatch(NamedTuple):
    ref: TaskRef
    resource: int  # resource slot
    frequency: Fraction | None  # None on interconnects
    queue: int | None  # the queue slot it pops; None under the hold-back scan


class SchedulerState(NamedTuple):
    queues: tuple[tuple[TaskRef, ...], ...]  # one FIFO per queue slot
    running: tuple[TaskRef | None, ...]  # one task or None per resource slot


# the open form of a SchedulerState: (queues, running), each a list
Work = tuple[list[list[TaskRef]], list[TaskRef | None]]


def thaw(state: SchedulerState) -> Work:
    """Working state holding `state`'s queues and running tasks as lists."""
    return [list(q) for q in state.queues], list(state.running)


def freeze(work: Work) -> SchedulerState:
    """Frozen, hashable copy of working state `work`."""
    queues, running = work
    return _new(SchedulerState, (tuple(map(tuple, queues)), tuple(running)))


def enqueue(work: Work, ref: TaskRef, slot: int | None) -> None:
    """Append one enabled task instance to queue `slot` (None: no queue)."""
    if slot is not None:
        work[0][slot].append(ref)


def next_dispatch(state, compiled, live: dict, graphs) -> Dispatch | None:
    """First dispatch the policy fires in `state`, frozen or working, or
    None if none does.

    `compiled` is the model's simulator.CompiledModel: its processor slots
    with their lowest frequencies and served queue slots, its link queues,
    per-code priorities and frequency rule.  Engines call this repeatedly
    (applying each dispatch) until it returns None; that exhausts every
    work-conserving start without letting time pass.  Under
    strict_priority_local a free processor r takes the top-priority task of
    `strict_view(live, graphs, r)`, the lowest code among equals, or idles
    until that task is enabled.
    """
    queues, running = state
    strict = compiled.strict
    for r, lowest in enumerate(compiled.lowest):
        if running[r] is not None:
            continue
        if strict:
            pending = strict_view(live, graphs, r)
            if pending:
                ref, enabled = min(pending, key=lambda p: -compiled.priority[p[0].code])
                if enabled:
                    return _new(Dispatch, (ref, r, compiled.frequency(ref.code, lowest), None))
                # hold: this processor waits for its top task
            continue
        for s in compiled.serves[r]:
            q = queues[s]
            if q:
                return _new(Dispatch, (q[0], r, compiled.frequency(q[0].code, lowest), s))

    for s, r in compiled.links:
        q = queues[s]
        if q and running[r] is None:
            return _new(Dispatch, (q[0], r, None, s))
    return None


def apply_dispatch(work: Work, d: Dispatch, live: dict, graphs) -> None:
    """Pop the dispatched task off its queue, mark the resource busy and the
    task RUNNING in the backlog `live`."""
    ref, r, _freq, s = d
    if s is not None:
        del work[0][s][0]
    work[1][r] = ref
    inst, code = ref
    live[inst][code - graphs[inst].first] = RUNNING


def release(work: Work, resource: int) -> None:
    """Mark the resource free."""
    work[1][resource] = None
