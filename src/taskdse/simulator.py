"""Monte-Carlo discrete-event simulation of one system model.

Each run takes arrival times and task durations from its draw source (run i
of a campaign: `rng.stream_for(seed, i)`) and replays the deployment's
scheduling policy exactly as the formal engine encodes it (same compiled
model with its code-indexed task tables, same enabling rules and policy
kernel, same tick arithmetic).  The formal bounds cover the first K
instances of each generator in runs without overflow, and only their
completion times are claimed to fall inside them (ROADMAP item 1 plans to
cover the rest).

Event processing is strictly sequential and fully deterministic: the heap
holds only ends and arrivals, ordered (time, rank, tiebreak) with ends first
at equal time.  Each event is one kernel step, `admit` or `finish`, and one
settle step that queues the tasks it enabled and fires every start the
policy allows before the next event is popped.

A run is one pass: the loop logs each event as a plain tuple in Event field
order and fills the metric facts (metrics.TraceFacts) in their final shape
as it handles the events, so no metric reads the log again.  A task's end
entry on the heap carries its slot, start time and frequency, so each end
records the whole run, (start, end, frequency), on its resource.  Event
objects are built only when a trace's events are read, for trace files and
event_pair metrics.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

from .generators import sample_arrivals
from .metrics import (
    MetricSpec,
    PowerTable,
    Report,
    TIME_KINDS,
    TraceFacts,
    default_metrics,
    extract,
    summarize,
)
from .model import COMMUNICATION, SystemModel, expand_comm_tasks, task_duration
from .rng import stream_for
from .schedulers import (
    DONE,
    LINK,
    LOCAL,
    PENDING,
    QUEUED,
    SHARED,
    SchedulerState,
    admit,
    apply_dispatch,
    enqueue,
    finish,
    next_dispatch,
    queue_key,
    release,
    thaw,
)
from .timebase import SCALE, format_ticks_fixed

END, ARRIVAL = 0, 1  # heap ranks: ends go first at equal time


class Event(NamedTuple):
    time: int
    kind: str
    instance: int = -1
    job: str = ""
    task: str = ""
    resource: str = ""
    frequency: object = None  # Fraction on processor starts
    generator: int = -1

    def line(self) -> str:
        t = format_ticks_fixed(self.time)
        if self.kind == "arrival" or self.kind == "overflow":
            return f"{t} {self.kind} gen={self.generator} inst={self.instance} job={self.job}"
        if self.kind == "freq_set":
            return f"{t} freq_set pe={self.resource} f={self.frequency}"
        head = f"{t} {self.kind} inst={self.instance} job={self.job} task={self.task} on={self.resource}"
        if self.kind == "start" and self.frequency is not None:
            head += f" f={self.frequency}"
        return head


@dataclass
class TimedTrace:
    """One run's events, observation horizon, overflow count and metric facts.

    `log` holds the events in processing order, as Events or as plain tuples
    in Event field order (the form the simulator's loop appends); `events`
    wraps them into Events on first read.  `facts` holds what every metric
    but event_pair reads: the arrivals, last ends and task runs, clipped at
    the horizon, that the loop gathered.
    """

    log: list
    horizon: int
    overflow_count: int
    facts: TraceFacts

    @cached_property
    def events(self) -> list[Event]:
        return [tuple.__new__(Event, e) for e in self.log]

    def text(self) -> str:
        return "".join(e.line() + "\n" for e in self.events)


class CompiledModel:
    """One model compiled for both engines, built once per campaign or search.

    Resource slots are the powered-on processors by id (`lowest`: their
    lowest frequencies), then the interconnects by id; `resources` names
    them for output only.  Task codes run in (job name, task id) order and
    index `names`, `tasks`, `preds`, `succs` (ascending), `queue` (queue slot
    or None), `priority` and `pinned` (frequency or None); `on_pe[r]` lists
    the computation codes mapped to processor slot r, in code order, and
    `rank[r]` the same codes by descending priority, code order among
    equals.  Per job type, `sources[job]` lists its source codes and
    `fresh[job]` is a new instance's status list over every code: QUEUED on
    its sources, PENDING on its other tasks and DONE on other job types'
    codes.  Queue slots number the distinct queue keys in service order;
    `serves[r]` lists those processor slot r serves, and `links` pairs each
    link queue with its interconnect's slot.  `idle` is the empty scheduler
    state.  `freq[code][r]` is computation task `code`'s frequency on
    processor slot r, pinned or else the slot's lowest, one object per value
    on a slot; `freq[code]` is None for a transfer.  `durations[code][r]` is
    the (lo, hi) window of task `code` on resource slot r: every processor
    slot for a computation task, every slot for a transfer.
    """

    def __init__(self, model: SystemModel):
        dep, platform = model.deployment, model.platform
        pes = sorted(platform.active_processors(), key=lambda p: p.id)
        self.resources = [p.id for p in pes] + sorted(ic.id for ic in platform.interconnects)
        self.lowest = [p.min_frequency() for p in pes]
        slots = {name: r for r, name in enumerate(self.resources)}
        self.tasks, self.names, self.preds, self.succs = [], [], [], []
        self.on_pe: list[list[int]] = [[] for _ in pes]
        self.sources: dict[str, list[int]] = {}
        for jt in sorted(model.job_types, key=lambda jt: jt.name):
            job = expand_comm_tasks(jt, dep, platform)
            tasks = sorted(job.tasks, key=lambda t: t.id)
            code = {t.id: c for c, t in enumerate(tasks, len(self.tasks))}
            preds, succs = job.preds(), job.succs()
            for t in tasks:
                self.preds.append([code[p] for p in preds[t.id]])
                self.succs.append(sorted(code[s] for s in succs[t.id]))
                r = slots.get(dep.mapping.get(t.id))
                if t.kind != COMMUNICATION and r is not None and r < len(pes):  # a processor
                    self.on_pe[r].append(code[t.id])
            self.tasks += tasks
            self.names += [(job.name, t.id) for t in tasks]
            self.sources[job.name] = [code[t.id] for t in tasks if not preds[t.id]]
        self.fresh: dict[str, list[int]] = {}
        for job, sources in self.sources.items():
            st = self.fresh[job] = [PENDING if name == job else DONE for name, _t in self.names]
            for c in sources:
                st[c] = QUEUED
        keys = [queue_key(t, dep) for t in self.tasks]
        order = sorted({k for k in keys if k is not None})
        self.queue = [None if k is None else order.index(k) for k in keys]
        self.serves = [tuple(s for s, k in enumerate(order) if k[0] == SHARED or k == (LOCAL, p.id))
                       for p in pes]
        self.links = tuple((s, slots[k[1]]) for s, k in enumerate(order) if k[0] == LINK)
        self.idle = SchedulerState(((),) * len(order), (None,) * len(self.resources))
        self.priority = [dep.priorities.get(t.id, 0) for t in self.tasks]
        self.pinned = [dep.task_frequency.get(t.id) for t in self.tasks]
        self.strict = dep.policy == "strict_priority_local"
        self.rank = [sorted(codes, key=lambda c: -self.priority[c]) for codes in self.on_pe]
        self.freq, self.durations = [], []
        interned = [{f: f} for f in self.lowest]  # per processor slot: one object per frequency
        for task, pin in zip(self.tasks, self.pinned):
            self.freq.append(None if task.kind == COMMUNICATION else
                             [lowest if pin is None else own.setdefault(pin, pin)
                              for lowest, own in zip(self.lowest, interned)])
            freqs = [None] * len(self.resources) if self.freq[-1] is None else self.freq[-1]
            windows = dict.fromkeys(freqs)  # one task_duration call per distinct frequency
            for f in windows:
                d = task_duration(task, f)
                windows[f] = (d.lo, d.hi)
            self.durations.append([windows[f] for f in freqs])


def simulate(model: SystemModel, draws, horizon: int | None = None,
             compiled: CompiledModel | None = None) -> TimedTrace:
    """One run of `model` on `draws`, any object whose `uniform_ticks(lo, hi)`
    returns a tick in [lo, hi]: one call per sampled arrival, up front in
    generator order, then one per task start, point windows included.
    `compiled` is the model's CompiledModel, built here when not given.

    The scheduler's idle state is thawed once into a working state that the
    kernel changes in place, and never frozen.  The loop logs each event as
    a plain tuple and fills the metric-fact dicts directly, so after the run
    only the horizon clip and the busy sums remain."""
    cm = CompiledModel(model) if compiled is None else compiled
    names, queue, resources, durations = cm.names, cm.queue, cm.resources, cm.durations
    jobs = [g.job_type for g in model.generators]

    # arrivals are drawn up front, generator declaration order, then numbered
    # globally by (time, generator, index) so instance ids are canonical
    raw = sorted((t, gidx, k) for gidx, g in enumerate(model.generators)
                 for k, t in enumerate(sample_arrivals(g, draws)))
    # strictly increasing, so already the heap one push per arrival builds
    heap: list = [(t, ARRIVAL, (gidx, inst), -1, 0, None) for inst, (t, gidx, _k) in enumerate(raw)]

    # admitted, incomplete instances -> task statuses; its size is the backlog
    live: dict[int, list[int]] = {}
    sched = thaw(cm.idle)  # the scheduler's working state, changed in place
    last_freq: list = [None] * len(cm.lowest)  # per processor slot
    log: list[tuple] = []  # events in Event field order
    overflow_count = 0
    # the metric facts in their final shape: a resource enters `runs` at its
    # first end, the order trace_facts gives, and `runs_of[r]` is slot r's
    # list in that dict once it has one
    arrivals: dict[int, tuple[str, int]] = {}
    last_ends: dict[int, int] = {}
    runs: dict[str, list[tuple]] = {}
    runs_of: list = [None] * len(resources)

    def cascade(now: int, refs: list):
        """Queue the tasks the event enabled, then fire every start allowed."""
        for ref in refs:
            enqueue(sched, ref, queue[ref.code])
        while (d := next_dispatch(sched, cm, live)) is not None:
            ref, r, freq, _queue = d
            apply_dispatch(sched, d, live)
            inst, code = ref
            lo, hi = durations[code][r]
            dur = draws.uniform_ticks(lo, hi)
            res = resources[r]
            if freq is not None and freq is not last_freq[r]:
                last_freq[r] = freq
                log.append((now, "freq_set", -1, "", "", res, freq, -1))
            job, task = names[code]
            log.append((now, "start", inst, job, task, res, freq, -1))
            heapq.heappush(heap, (now + dur, END, ref, r, now, freq))

    # heap entries: (time, rank, key, resource slot, start, frequency); the
    # key, (generator, instance) for an arrival and the TaskRef for an end,
    # breaks every tie, so the run fields an end carries are never compared
    while heap:
        now, rank, key, r, start, freq = heapq.heappop(heap)
        if rank == ARRIVAL:
            gidx, inst = key
            job = jobs[gidx]
            refs = admit(cm, job, live, inst, model.deployment.queue_capacity)
            if refs is None:
                overflow_count += 1
                log.append((now, "overflow", inst, job, "", "", None, gidx))
                continue
            log.append((now, "arrival", inst, job, "", "", None, gidx))
            arrivals[inst] = (job, now)
            cascade(now, refs)
        else:  # end
            ref = key
            inst, code = ref
            release(sched, r)
            job, task = names[code]
            res = resources[r]
            log.append((now, "end", inst, job, task, res, None, -1))
            last_ends[inst] = now
            own = runs_of[r]
            if own is None:
                own = runs_of[r] = runs[res] = []
            own.append((start, now, freq))
            cascade(now, finish(cm, live, ref))

    # events stay in processing order: non-decreasing time, ends handled
    # before arrivals before starts at each instant, and each dispatch
    # cascade recorded right after its trigger.  Re-sorting by kind rank
    # would lift a zero-width task's end above its own start and break
    # per-resource nesting.  The last event is therefore the latest.
    end = log[-1][0] if log else 0
    h = end if horizon is None else horizon
    if h < end:
        for res, own in runs.items():
            runs[res] = [(min(st, h), min(en, h), f) for st, en, f in own]
    busy_ticks = {res: sum(en - st for st, en, _f in own) for res, own in runs.items()}
    return TimedTrace(log, h, overflow_count, TraceFacts(arrivals, last_ends, runs, busy_ticks))


@dataclass
class CampaignResult:
    """Per-run metric samples plus aggregate reports.

    `per_run[label][i]` is run i's (key, value) sample list; time-valued
    samples are integer ticks, aggregates are floats in time units.
    """

    runs: int
    seed: int
    per_run: dict[str, list[list[tuple[str, object]]]]
    reports: dict[str, Report]
    horizons: list[int]
    overflow_runs: int
    overflow_total: int
    traces: list[TimedTrace] | None = None

    def values(self, label: str) -> list:
        return [v for samples in self.per_run[label] for _k, v in samples]


def run_campaign(model: SystemModel, runs: int, seed: int,
                 metrics: list[MetricSpec] | None = None,
                 horizon: int | None = None, keep_traces: bool = False) -> CampaignResult:
    """Independent runs; run i uses the rng stream (seed, i), so campaigns are
    reproducible and insensitive to how runs are distributed over workers."""
    if runs < 1:
        raise ValueError("runs must be >= 1")
    specs = default_metrics(model) if metrics is None else metrics
    per_run: dict[str, list] = {s.label: [] for s in specs}
    horizons: list[int] = []
    overflow_runs = 0
    overflow_total = 0
    traces: list[TimedTrace] | None = [] if keep_traces else None
    compiled = CompiledModel(model)
    prices = PowerTable(model.platform)
    for i in range(runs):
        t = simulate(model, stream_for(seed, i), horizon, compiled)
        horizons.append(t.horizon)
        overflow_total += t.overflow_count
        overflow_runs += 1 if t.overflow_count else 0
        for s in specs:
            per_run[s.label].append(extract(t, s, prices))
        if traces is not None:
            traces.append(t)
    reports = {}
    for s in specs:
        flat = [v for samples in per_run[s.label] for _k, v in samples]
        if s.kind in TIME_KINDS:
            flat = [v / SCALE for v in flat]
        reports[s.label] = summarize(flat, metric=s.label)
    return CampaignResult(runs, seed, per_run, reports, horizons,
                          overflow_runs, overflow_total, traces)
