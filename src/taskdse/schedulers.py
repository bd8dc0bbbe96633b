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
name, task id) order, and every per-task table and status list is indexed by
them.  Tie-breaks are total: tasks that become ready at the same instant
enqueue in (instance index, task code) order, which is (instance index, job
name, task id) order, and free processors are considered in ascending id
order.

The backlog rules live here too: both engines keep the backlog as one map,
in admission order, from each admitted, incomplete instance to its
PENDING/QUEUED/RUNNING/DONE task statuses, one per task code of the model;
the codes of other job types read DONE, so nothing needs the instance's job
to skip them.  Only `admit` (up to the queue capacity), `apply_dispatch` and
`finish` write it; the hold-back scan `strict_pick` reads it in that
order, and `freeze_backlog` keeps that order where the scan reads it.

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
looks at the policy again, walking the processor's compiled rank order.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .model import COMMUNICATION, Deployment, TaskSpec

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


def admit(compiled, job: str, live: dict, instance: int, capacity: int) -> list[TaskRef] | None:
    """Enter `instance`, of job type `job`, into the backlog `live` unless
    `capacity` instances fill it; returns its queued sources in code order,
    or None on overflow."""
    if len(live) >= capacity:
        return None
    live[instance] = list(compiled.fresh[job])
    return [_new(TaskRef, (instance, c)) for c in compiled.sources[job]]


def finish(compiled, live: dict, ref: TaskRef) -> list[TaskRef]:
    """Mark `ref` DONE in the backlog `live`; returns the successors it
    enables, now QUEUED and in code order.  When that completes the
    instance, it leaves `live` and nothing is enabled."""
    inst, code = ref
    st = live[inst]
    st[code] = DONE
    if min(st) == DONE:  # DONE is the largest status; other jobs' codes read it
        del live[inst]
        return []
    preds = compiled.preds
    newly = []
    for k in compiled.succs[code]:
        if st[k] != PENDING:
            continue
        for p in preds[k]:
            if st[p] != DONE:
                break
        else:
            st[k] = QUEUED
            newly.append(_new(TaskRef, (inst, k)))
    return newly


def strict_pick(live: dict, compiled, r: int) -> tuple[TaskRef, bool] | None:
    """(ref, enabled) for the first code of `compiled.rank[r]` still waiting
    in the oldest instance of the backlog `live` that has one, or None when
    none has.  `live` maps each admitted, incomplete instance, in admission
    order, to its statuses; the scan stops at that instance."""
    rank = compiled.rank[r]
    for i, st in live.items():
        for k in rank:
            if st[k] < RUNNING:
                return _new(TaskRef, (i, k)), all(st[p] == DONE for p in compiled.preds[k])
    return None


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


def next_dispatch(state, compiled, live: dict) -> Dispatch | None:
    """First dispatch the policy fires in `state`, frozen or working, or
    None if none does.

    `compiled` is the model's simulator.CompiledModel: its per-processor
    served queue slots, link queues and per-slot frequencies.  Engines call
    this repeatedly (applying each dispatch) until it returns None; that
    exhausts every work-conserving start without letting time pass.  Under
    strict_priority_local a free processor r takes the task
    `strict_pick(live, compiled, r)` returns, or idles until it is enabled.
    """
    queues, running = state
    strict, freq = compiled.strict, compiled.freq
    for r, serves in enumerate(compiled.serves):
        if running[r] is not None:
            continue
        if strict:
            pick = strict_pick(live, compiled, r)
            if pick is not None and pick[1]:
                return _new(Dispatch, (pick[0], r, freq[pick[0].code][r], None))
            continue  # nothing waits here, or it holds for its top task
        for s in serves:
            q = queues[s]
            if q:
                return _new(Dispatch, (q[0], r, freq[q[0].code][r], s))

    for s, r in compiled.links:
        q = queues[s]
        if q and running[r] is None:
            return _new(Dispatch, (q[0], r, None, s))
    return None


def apply_dispatch(work: Work, d: Dispatch, live: dict) -> None:
    """Pop the dispatched task off its queue, mark the resource busy and the
    task RUNNING in the backlog `live`."""
    ref, r, _freq, s = d
    if s is not None:
        del work[0][s][0]
    work[1][r] = ref
    inst, code = ref
    live[inst][code] = RUNNING


def release(work: Work, resource: int) -> None:
    """Mark the resource free."""
    work[1][resource] = None
