"""Monte-Carlo discrete-event simulation of one system model.

Each run draws arrival times and task durations uniformly from the model's
windows and replays the deployment's scheduling policy exactly as the formal
engine encodes it (same task graph, enabling rules and policy kernel, same
tick arithmetic).  The formal bounds cover the first K instances of each
generator in runs without overflow, and only their completion times are
claimed to fall inside them (ROADMAP item 1 plans to cover the rest).

Event processing is strictly sequential and fully deterministic: the heap
holds only ends and arrivals, ordered (time, rank, tiebreak) with ends first
at equal time.  Each event is one kernel step, `admit` or `finish`, and one
settle step that queues the tasks it enabled and fires every start the
policy allows before the next event is popped.

A run is one pass: the loop logs each event as a plain tuple in Event field
order and fills the metric facts (metrics.TraceFacts) in their final shape
as it handles the events, so no metric reads the log again.  Event objects
are built only when a trace's events are read, for trace files and
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
    trace_facts,
)
from .model import COMMUNICATION, SystemModel, expand_comm_tasks, task_duration
from .rng import stream_for
from .schedulers import (
    LINK,
    LOCAL,
    SHARED,
    SchedulerState,
    TaskGraph,
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
    """One run's events, overflow count and observation horizon.

    `log` holds the events in processing order, as Events or as plain tuples
    in Event field order (the form the simulator's loop appends); `events`
    wraps them into Events on first read.  `gathered` holds the metric facts
    when the simulator's loop collected them; otherwise `facts` derives them
    from the events on first use.
    """

    log: list
    horizon: int = 0
    overflow_count: int = 0
    seed: int | None = None
    run_index: int = 0
    model_hash: str = ""
    gathered: TraceFacts | None = None

    @cached_property
    def events(self) -> list[Event]:
        return [tuple.__new__(Event, e) for e in self.log]

    @cached_property
    def facts(self) -> TraceFacts:
        """Arrivals, last ends, clipped busy intervals and start frequencies,
        shared by every metric."""
        return trace_facts(self) if self.gathered is None else self.gathered

    def lines(self) -> list[str]:
        head = []
        if self.seed is not None:
            head.append(f"# seed {self.seed}")
            head.append(f"# run {self.run_index}")
        if self.model_hash:
            head.append(f"# model {self.model_hash}")
        head.append("# rng splitmix64")
        return head + [e.line() for e in self.events]

    def text(self) -> str:
        return "\n".join(self.lines()) + "\n"


class CompiledModel:
    """One model compiled for both engines, built once per campaign or search.

    Resource slots are the powered-on processors by id (`lowest`: their
    lowest frequencies), then the interconnects by id; `resources` names
    them for output only.  Task codes run in (job name, task id) order and
    index `names`, `tasks`, `queue` (queue slot or None), `priority` and
    `pinned` (frequency or None).  Queue slots number the distinct queue keys
    in service order; `serves[r]` lists those processor slot r serves, and
    `links` pairs each link queue with its interconnect's slot.  `idle` is
    the empty scheduler state.  `durations[code][r]` is the (lo, hi) window
    of task `code` on resource slot r: every processor slot for a
    computation task, every slot for a transfer.
    """

    def __init__(self, model: SystemModel):
        dep, platform = model.deployment, model.platform
        pes = sorted(platform.active_processors(), key=lambda p: p.id)
        self.resources = [p.id for p in pes] + sorted(ic.id for ic in platform.interconnects)
        self.lowest = [p.min_frequency() for p in pes]
        slots = {name: r for r, name in enumerate(self.resources)}
        self.graphs: dict[str, TaskGraph] = {}
        self.tasks = []
        for jt in sorted(model.job_types, key=lambda jt: jt.name):
            graph = TaskGraph(expand_comm_tasks(jt, dep, platform), dep, len(self.tasks), slots)
            self.graphs[jt.name] = graph
            self.tasks += graph.tasks
        self.names = [(g.name, t.id) for g in self.graphs.values() for t in g.tasks]
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
        self.durations = []
        for code, task in enumerate(self.tasks):
            if task.kind == COMMUNICATION:
                freqs = [None] * len(self.resources)
            else:
                freqs = [self.frequency(code, lowest) for lowest in self.lowest]
            windows = {}  # one task_duration call per distinct frequency
            for f in freqs:
                if f not in windows:
                    d = task_duration(task, f)
                    windows[f] = (d.lo, d.hi)
            self.durations.append([windows[f] for f in freqs])

    def frequency(self, code: int, lowest):
        """A computation task's frequency on a processor whose lowest is
        `lowest`: its pinned one, else the lowest."""
        f = self.pinned[code]
        return lowest if f is None else f


def simulate(model: SystemModel, seed: int, run_index: int = 0,
             horizon: int | None = None, model_hash: str = "",
             compiled: CompiledModel | None = None) -> TimedTrace:
    """Run `run_index` of the campaign seeded with `seed`; `compiled` is the
    model's CompiledModel, built here when not given.

    The scheduler's idle state is thawed once into a working state that the
    kernel changes in place, and never frozen.  The loop logs each event as
    a plain tuple and fills the metric-fact dicts directly, so after the run
    only the horizon clip and the busy sums remain."""
    rng = stream_for(seed, run_index)
    cm = CompiledModel(model) if compiled is None else compiled
    graphs, names, queue, resources, durations = cm.graphs, cm.names, cm.queue, cm.resources, cm.durations

    # arrivals are drawn up front, generator declaration order, then numbered
    # globally by (time, generator, index) so instance ids are canonical
    raw = sorted((t, gidx, k) for gidx, g in enumerate(model.generators)
                 for k, t in enumerate(sample_arrivals(g, rng)))
    inst_graph: list[TaskGraph] = [graphs[model.generators[gidx].job_type] for _t, gidx, _k in raw]
    # strictly increasing, so already the heap one push per arrival builds
    heap: list = [(t, ARRIVAL, (gidx, inst), None) for inst, (t, gidx, _k) in enumerate(raw)]

    # admitted, incomplete instances -> task statuses; its size is the backlog
    live: dict[int, list[int]] = {}
    sched = thaw(cm.idle)  # the scheduler's working state, changed in place
    last_freq: list = [None] * len(cm.lowest)  # per processor slot
    log: list[tuple] = []  # events in Event field order
    overflow_count = 0
    # the metric facts in their final shape: a resource enters `busy` at its
    # first end and `start_freqs` at its first start, the order trace_facts
    # gives.  Per resource slot, `busy_of` and `freqs_of` hold its lists in
    # those dicts once it has them, and `started` its task's start time
    arrivals: dict[int, tuple[str, int]] = {}
    last_ends: dict[int, int] = {}
    busy: dict[str, list[tuple[int, int]]] = {}
    start_freqs: dict[str, list] = {}
    busy_of: list = [None] * len(resources)
    freqs_of: list = [None] * len(resources)
    started = [0] * len(resources)

    def cascade(now: int, refs: list):
        """Queue the tasks the event enabled, then fire every start allowed."""
        for ref in refs:
            enqueue(sched, ref, queue[ref.code])
        while (d := next_dispatch(sched, cm, live, inst_graph)) is not None:
            ref, r, freq, _queue = d
            apply_dispatch(sched, d, live, inst_graph)
            inst, code = ref
            lo, hi = durations[code][r]
            dur = lo if lo == hi else rng.uniform_ticks(lo, hi)
            res = resources[r]
            if freq is not None:
                last = last_freq[r]
                # `is` and the None test spare Fraction.__eq__
                if last is not freq and (last is None or last != freq):
                    last_freq[r] = freq
                    log.append((now, "freq_set", -1, "", "", res, freq, -1))
            job, task = names[code]
            log.append((now, "start", inst, job, task, res, freq, -1))
            started[r] = now
            freqs = freqs_of[r]
            if freqs is None:
                freqs = freqs_of[r] = start_freqs[res] = []
            freqs.append(freq)
            heapq.heappush(heap, (now + dur, END, ref, r))

    # heap entries: (time, rank, key, resource slot); the key, (generator,
    # instance) for an arrival and the TaskRef for an end, breaks ties
    while heap:
        now, rank, key, r = heapq.heappop(heap)
        if rank == ARRIVAL:
            gidx, inst = key
            graph = inst_graph[inst]
            refs = admit(graph, live, inst, model.deployment.queue_capacity)
            if refs is None:
                overflow_count += 1
                log.append((now, "overflow", inst, graph.name, "", "", None, gidx))
                continue
            log.append((now, "arrival", inst, graph.name, "", "", None, gidx))
            arrivals[inst] = (graph.name, now)
            cascade(now, refs)
        else:  # end
            ref = key
            inst, code = ref
            release(sched, r)
            job, task = names[code]
            res = resources[r]
            log.append((now, "end", inst, job, task, res, None, -1))
            last_ends[inst] = now
            iv = busy_of[r]
            if iv is None:
                iv = busy_of[r] = busy[res] = []
            iv.append((started[r], now))
            cascade(now, finish(inst_graph[inst], live, ref))

    # events stay in processing order: non-decreasing time, ends handled
    # before arrivals before starts at each instant, and each dispatch
    # cascade recorded right after its trigger.  Re-sorting by kind rank
    # would lift a zero-width task's end above its own start and break
    # per-resource nesting.  The last event is therefore the latest.
    end = log[-1][0] if log else 0
    h = end if horizon is None else horizon
    if h < end:
        for res, iv in busy.items():
            busy[res] = [(min(st, h), min(en, h)) for st, en in iv]
    busy_ticks = {res: sum(en - st for st, en in iv) for res, iv in busy.items()}
    facts = TraceFacts(arrivals, last_ends, busy, busy_ticks, start_freqs)
    return TimedTrace(log, h, overflow_count, seed=seed, run_index=run_index,
                      model_hash=model_hash, gathered=facts)


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
                 horizon: int | None = None, keep_traces: bool = False,
                 model_hash: str = "") -> CampaignResult:
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
        t = simulate(model, seed, i, horizon, model_hash, compiled)
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
