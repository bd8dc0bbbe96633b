"""Application, platform and deployment model.

An application is a set of job types (DAGs of tasks with interval work and
data edges); a platform is processors, memories and interconnects; a
deployment binds tasks to resources under one scheduling policy.  Everything
time-like is held in integer ticks (see timebase); frequencies are exact
Fractions in cycles per time unit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .timebase import MAX_TICKS, as_fraction, ceil_div, format_ticks, to_ticks

COMPUTATION = "computation"
COMMUNICATION = "communication"

LOCAL = "local"
OFFCHIP = "offchip"

POLICIES = ("fifo_global", "fifo_priority_global", "fifo_local", "strict_priority_local")
LOCAL_POLICIES = ("fifo_local", "strict_priority_local")


@dataclass(frozen=True)
class WorkInterval:
    """Inclusive work window in micro-cycles."""

    lo: int
    hi: int

    @classmethod
    def of(cls, lo, hi) -> "WorkInterval":
        return cls(to_ticks(lo), to_ticks(hi))


@dataclass(frozen=True)
class TimeInterval:
    """Inclusive time window in ticks; hi may be math.inf."""

    lo: int
    hi: int | float

    @classmethod
    def of(cls, lo, hi) -> "TimeInterval":
        return cls(to_ticks(lo), to_ticks(hi))


@dataclass(frozen=True)
class TaskSpec:
    id: str
    work: WorkInterval
    kind: str = COMPUTATION
    interconnect: str | None = None  # set on expanded communication tasks only


@dataclass(frozen=True)
class DataEdge:
    src: str
    dst: str
    volume: int = 0  # bytes

    @property
    def key(self) -> tuple[str, str]:
        return (self.src, self.dst)


@dataclass
class JobType:
    name: str
    tasks: list[TaskSpec]
    edges: list[DataEdge] = field(default_factory=list)

    def preds(self) -> dict[str, list[str]]:
        p: dict[str, list[str]] = {t.id: [] for t in self.tasks}
        for e in self.edges:
            if e.src in p and e.dst in p:
                p[e.dst].append(e.src)
        return p

    def succs(self) -> dict[str, list[str]]:
        s: dict[str, list[str]] = {t.id: [] for t in self.tasks}
        for e in self.edges:
            if e.src in s and e.dst in s:
                s[e.src].append(e.dst)
        return s


@dataclass
class Processor:
    id: str
    frequencies: list[Fraction]
    power: dict[Fraction, tuple[float, float]]  # freq -> (static W, dynamic W)
    initially_on: bool = True

    def min_frequency(self) -> Fraction:
        return min(self.frequencies)


@dataclass
class Memory:
    id: str
    locality: str = LOCAL  # "local" or "offchip"
    access_time: int = 0  # ticks per byte; informational


@dataclass
class Interconnect:
    id: str
    rate: Fraction  # bytes per time unit
    init_latency: int = 0  # ticks
    power: tuple[float, float] = (0.0, 0.0)


@dataclass
class Platform:
    processors: list[Processor]
    memories: list[Memory] = field(default_factory=list)
    interconnects: list[Interconnect] = field(default_factory=list)

    def processor(self, pid: str) -> Processor:
        for p in self.processors:
            if p.id == pid:
                return p
        raise KeyError(pid)

    def memory(self, mid: str) -> Memory:
        for m in self.memories:
            if m.id == mid:
                return m
        raise KeyError(mid)

    def interconnect(self, iid: str) -> Interconnect:
        for ic in self.interconnects:
            if ic.id == iid:
                return ic
        raise KeyError(iid)

    def active_processors(self) -> list[Processor]:
        return [p for p in self.processors if p.initially_on]


@dataclass
class Deployment:
    policy: str = "fifo_global"
    mapping: dict[str, str] = field(default_factory=dict)  # task id -> processor id
    priorities: dict[str, int] = field(default_factory=dict)  # task id -> level (higher wins)
    task_frequency: dict[str, Fraction] = field(default_factory=dict)
    data_placement: dict[tuple[str, str], str] = field(default_factory=dict)  # edge -> memory id
    edge_interconnect: dict[tuple[str, str], str] = field(default_factory=dict)
    queue_capacity: int = 8


@dataclass
class SystemModel:
    job_types: list[JobType]
    platform: Platform
    generators: list  # of generators.Generator, one per job type
    deployment: Deployment
    instance_bound: int = 1  # K: instances analyzed formally


# ---------------------------------------------------------------------------
# validation


@dataclass(frozen=True)
class Violation:
    rule: str
    subject: str
    detail: str = ""

    def __str__(self) -> str:
        tail = f": {self.detail}" if self.detail else ""
        return f"{self.rule}{{{self.subject}}}{tail}"


def _has_cycle(succs: dict[str, list[str]]) -> bool:
    state: dict[str, int] = {}  # 0 visiting, 1 done

    for root in succs:
        if root in state:
            continue
        stack = [(root, iter(succs[root]))]
        state[root] = 0
        while stack:
            node, it = stack[-1]
            advanced = False
            for nxt in it:
                if state.get(nxt) == 0:
                    return True
                if nxt not in state:
                    state[nxt] = 0
                    stack.append((nxt, iter(succs[nxt])))
                    advanced = True
                    break
            if not advanced:
                state[node] = 1
                stack.pop()
    return False


def _bad_watts(watts: tuple[float, float]) -> str | None:
    """The violation a (static, dynamic) watts pair commits, if any: NaN
    and infinite watts would make every energy figure NaN or infinite."""
    if not all(math.isfinite(w) for w in watts):
        return "NonFiniteWatts"
    return "NegativeWatts" if min(watts) < 0 else None


def validate_model(m: SystemModel) -> list[Violation]:
    """Collect every structural rule violation; an empty list means well-formed.

    Violations are data, not exceptions, so a config checker can show all of
    them at once.
    """
    from .generators import generator_violations  # local import, no cycle

    out: list[Violation] = []
    seen_ids: set[str] = set()

    def check_unique(cid: str, what: str):
        if cid in seen_ids:
            out.append(Violation("DuplicateComponentId", cid, what))
        seen_ids.add(cid)

    # application ------------------------------------------------------
    job_names = set()
    for job in m.job_types:
        if job.name in job_names:
            out.append(Violation("DuplicateJobType", job.name))
        job_names.add(job.name)
        ids = set()
        for t in job.tasks:
            if t.id in ids:
                out.append(Violation("DuplicateTaskId", f"{job.name}.{t.id}"))
            ids.add(t.id)
            if not (0 <= t.work.lo <= t.work.hi):
                out.append(Violation("IntervalOrder", f"{job.name}.{t.id}", f"work [{t.work.lo}, {t.work.hi}]"))
        pairs = set()
        for e in job.edges:
            if (e.src, e.dst) in pairs:
                out.append(Violation("DuplicateEdge", f"{job.name}.{e.src}->{e.dst}"))
            pairs.add((e.src, e.dst))
            for end in (e.src, e.dst):
                if end not in ids:
                    out.append(Violation("UnknownTaskRef", f"{job.name}.{end}", f"edge {e.src}->{e.dst}"))
            if e.volume < 0:
                out.append(Violation("NegativeVolume", f"{job.name}.{e.src}->{e.dst}"))
        if _has_cycle(job.succs()):
            out.append(Violation("CyclicPrecedence", job.name))

    # platform ----------------------------------------------------------
    for p in m.platform.processors:
        check_unique(p.id, "processor")
        if not p.frequencies:
            out.append(Violation("EmptyFrequencySet", p.id))
        for f in p.frequencies:
            if f <= 0:
                out.append(Violation("NonPositiveFrequency", p.id, str(f)))
            elif f not in p.power:
                out.append(Violation("FrequencyPowerGap", p.id, f"no power entry for {f}"))
        for f, watts in p.power.items():
            if bad := _bad_watts(watts):
                out.append(Violation(bad, p.id, f"at {f}"))
    if not m.platform.active_processors():
        out.append(Violation("NoPoweredProcessor", "platform", "no processor is on"))
    for mem in m.platform.memories:
        check_unique(mem.id, "memory")
        if mem.locality not in (LOCAL, OFFCHIP):
            out.append(Violation("BadLocality", mem.id, mem.locality))
        if mem.access_time < 0:
            out.append(Violation("NegativeAccessTime", mem.id))
    for ic in m.platform.interconnects:
        check_unique(ic.id, "interconnect")
        if ic.rate <= 0:
            out.append(Violation("NonPositiveRate", ic.id))
        if ic.init_latency < 0:
            out.append(Violation("NegativeLatency", ic.id))
        if bad := _bad_watts(ic.power):
            out.append(Violation(bad, ic.id))

    # deployment ---------------------------------------------------------
    dep = m.deployment
    all_tasks: dict[str, tuple[str, TaskSpec]] = {}
    for job in m.job_types:
        for t in job.tasks:
            all_tasks[t.id] = (job.name, t)

    if dep.policy not in POLICIES:
        out.append(Violation("UnknownPolicy", dep.policy))
    if dep.queue_capacity <= 0:
        out.append(Violation("BadQueueCapacity", str(dep.queue_capacity)))

    proc_ids = {p.id for p in m.platform.processors}
    on_ids = {p.id for p in m.platform.active_processors()}
    for task_id, pid in dep.mapping.items():
        if task_id not in all_tasks:
            out.append(Violation("UnknownTaskRef", task_id, "mapping"))
        if pid not in proc_ids:
            out.append(Violation("UnknownProcessor", pid, f"mapping of {task_id}"))
        elif pid not in on_ids:
            out.append(Violation("MappedToOffProcessor", pid, f"mapping of {task_id}"))
    for task_id in dep.priorities:
        if task_id not in all_tasks:
            out.append(Violation("UnknownTaskRef", task_id, "priorities"))

    if dep.policy in LOCAL_POLICIES:
        for task_id, (jname, t) in all_tasks.items():
            if t.kind == COMPUTATION and task_id not in dep.mapping:
                out.append(Violation("MappingIncomplete", f"{jname}.{task_id}"))

    if dep.policy == "strict_priority_local":
        by_pe: dict[str, dict[int, str]] = {}
        for task_id, (jname, t) in all_tasks.items():
            if t.kind != COMPUTATION:
                continue
            if task_id not in dep.priorities:
                out.append(Violation("MissingPriority", f"{jname}.{task_id}"))
                continue
            pe = dep.mapping.get(task_id)
            if pe is None:
                continue
            level = dep.priorities[task_id]
            clash = by_pe.setdefault(pe, {})
            if level in clash:
                out.append(Violation("PriorityCollision", pe, f"{clash[level]} vs {task_id} at {level}"))
            else:
                clash[level] = task_id
        # a processor holds every lower-priority task back until its
        # higher-priority ones are done: if that order and the precedence
        # edges form a cycle, no instance of the job ever completes
        for job in m.job_types:
            succs = job.succs()
            ranked = [t.id for t in job.tasks if t.kind == COMPUTATION
                      and t.id in dep.mapping and t.id in dep.priorities]
            for hi in ranked:
                succs[hi] += [lo for lo in ranked if dep.mapping[lo] == dep.mapping[hi]
                              and dep.priorities[lo] < dep.priorities[hi]]
            if _has_cycle(succs) and not _has_cycle(job.succs()):
                out.append(Violation("PriorityDeadlock", job.name,
                                     "a processor's hold-back order contradicts the precedence edges"))

    for task_id, freq in dep.task_frequency.items():
        if task_id not in all_tasks:
            out.append(Violation("UnknownTaskRef", task_id, "task_frequency"))
            continue
        # a per-processor policy runs the task on its mapped processor only,
        # a global queue on any powered one
        pid = dep.mapping.get(task_id)
        if dep.policy in LOCAL_POLICIES and pid in proc_ids:
            hosts = [m.platform.processor(pid)]
        else:
            hosts = m.platform.active_processors()
        for p in hosts:
            if freq not in p.frequencies:
                out.append(Violation("UnknownFrequency", task_id, f"{freq} not offered by {p.id}"))
                break

    edge_keys = {e.key for job in m.job_types for e in job.edges}
    mem_ids = {mem.id for mem in m.platform.memories}
    ic_ids = {ic.id for ic in m.platform.interconnects}
    for key, mid in dep.data_placement.items():
        if key not in edge_keys:
            out.append(Violation("UnknownEdgeRef", f"{key[0]}->{key[1]}", "data_placement"))
        if mid not in mem_ids:
            out.append(Violation("UnknownMemory", mid, f"placement of {key[0]}->{key[1]}"))
    for key, iid in dep.edge_interconnect.items():
        if key not in edge_keys:
            out.append(Violation("UnknownEdgeRef", f"{key[0]}->{key[1]}", "edge_interconnect"))
        if iid not in ic_ids:
            out.append(Violation("UnknownInterconnect", iid, f"route of {key[0]}->{key[1]}"))
    if not ic_ids:
        for job in m.job_types:
            kinds = {t.id: t.kind for t in job.tasks}
            for e in job.edges:
                if _needs_transfer(e, kinds, dep, m.platform):
                    out.append(Violation("MissingInterconnect", f"{job.name}.{e.src}->{e.dst}",
                                         "needs a transfer but the platform has no interconnect"))
    for job in m.job_types:
        for t in job.tasks:
            if t.kind != COMMUNICATION:
                continue
            if t.interconnect is None:
                out.append(Violation("MissingInterconnect", f"{job.name}.{t.id}",
                                     "a communication task names no interconnect"))
            elif t.interconnect not in ic_ids:
                out.append(Violation("UnknownInterconnect", t.interconnect,
                                     f"communication task {job.name}.{t.id}"))

    # generators -----------------------------------------------------------
    gen_jobs = []
    for g in m.generators:
        gen_jobs.append(g.job_type)
        if g.job_type not in job_names:
            out.append(Violation("UnknownJobType", g.job_type, "generator"))
        out.extend(generator_violations(g))
    for name in job_names:
        if name not in gen_jobs:
            out.append(Violation("MissingGenerator", name))
    if len(gen_jobs) != len(set(gen_jobs)):
        out.append(Violation("DuplicateGenerator", ",".join(sorted(set(x for x in gen_jobs if gen_jobs.count(x) > 1)))))

    if m.instance_bound <= 0:
        out.append(Violation("BadInstanceBound", str(m.instance_bound)))

    if not out:  # the horizon reads fields the rules above check
        h = time_horizon(m)
        if h >= MAX_TICKS:
            out.append(Violation("TimeOutOfRange", "model", f"times may reach {format_ticks(h)}, "
                                 f"the limit is {format_ticks(MAX_TICKS)} time units"))
    return out


def time_horizon(m: SystemModel) -> int:
    """Ticks bounding every finite time and clock difference the engines
    compute for a valid model: each generator's arrival constants over all
    `count` instances, not only the first K, plus every instance's tasks run
    one after another at their longest durations.

    count x (period + jitter + window + 1) covers the guards and deadlines
    of every arrival rule; an explicit arrival list adds its last time.
    Computation tasks are timed at their pinned frequency, else the lowest
    any powered processor offers; transfers are those expand_comm_tasks
    inserts.
    """
    slowest = min(p.min_frequency() for p in m.platform.active_processors())
    jobs = {jt.name: jt for jt in m.job_types}
    total = 0
    for g in m.generators:
        job = expand_comm_tasks(jobs[g.job_type], m.deployment, m.platform)
        work = sum(task_duration(t, m.deployment.task_frequency.get(t.id, slowest)).hi
                   for t in job.tasks)
        last = g.arrivals[-1] if g.arrivals else 0
        total += last + g.count * (g.period + g.jitter + g.window + 1 + work)
    return total


# ---------------------------------------------------------------------------
# derived quantities


def duration_interval(work: WorkInterval, frequency) -> TimeInterval:
    """Execution-time window of `work` cycles at `frequency` cycles/unit.

    Bounds are rounded outward to the tick grid, so the window never loses a
    feasible duration; at exactly representable ratios it is exact.
    """
    f = as_fraction(frequency)
    if f <= 0:
        raise ValueError("frequency must be positive")
    lo = (work.lo * f.denominator) // f.numerator
    hi = ceil_div(work.hi * f.denominator, f.numerator)
    return TimeInterval(lo, hi)


def comm_duration(volume: int, ic: Interconnect) -> TimeInterval:
    """Point window of one DMA transfer: init latency plus volume/rate."""
    if volume < 0:
        raise ValueError("volume must be non-negative")
    frac = Fraction(volume * 1_000_000, 1) / ic.rate  # ticks
    d = ic.init_latency + (frac.numerator * 2 + frac.denominator) // (2 * frac.denominator)
    return TimeInterval(d, d)


def task_duration(task: TaskSpec, frequency) -> TimeInterval:
    """Duration window for either task kind (communication ignores frequency)."""
    if task.kind == COMMUNICATION:
        return TimeInterval(task.work.lo, task.work.hi)
    return duration_interval(task.work, frequency)


def _needs_transfer(edge: DataEdge, kinds: dict[str, str], dep: Deployment, platform: Platform) -> bool:
    if edge.volume == 0:
        return False  # pure precedence, nothing moves
    if COMMUNICATION in (kinds.get(edge.src), kinds.get(edge.dst)):
        return False  # already routed through a communication task
    src_pe = dep.mapping.get(edge.src)
    dst_pe = dep.mapping.get(edge.dst)
    if src_pe is not None and dst_pe is not None and src_pe != dst_pe:
        return True
    mid = dep.data_placement.get(edge.key)
    if mid is not None:
        try:
            return platform.memory(mid).locality == OFFCHIP
        except KeyError:
            return False
    return False


def expand_comm_tasks(job: JobType, dep: Deployment, platform: Platform) -> JobType:
    """Insert a communication task on every edge that must cross the fabric.

    An edge needs a transfer when its endpoints are mapped to distinct
    processors or its data lives in an offchip memory.  The edge src->dst is
    rewritten to src->C->dst with C carrying the transfer's point duration and
    the interconnect it occupies.  Idempotent: inserted edges carry no volume
    or placement, so a second pass changes nothing.
    """
    kinds = {t.id: t.kind for t in job.tasks}
    tasks = list(job.tasks)
    edges: list[DataEdge] = []
    existing = set(kinds)

    for edge in job.edges:
        if not _needs_transfer(edge, kinds, dep, platform):
            edges.append(edge)
            continue
        iid = dep.edge_interconnect.get(edge.key)
        if iid is None:
            if not platform.interconnects:
                raise MissingInterconnect(f"edge {edge.src}->{edge.dst} needs a transfer but the platform has no interconnect")
            iid = platform.interconnects[0].id
        ic = platform.interconnect(iid)
        d = comm_duration(edge.volume, ic)
        cid = f"dma.{edge.src}.{edge.dst}"
        while cid in existing:
            cid += "_"
        existing.add(cid)
        tasks.append(TaskSpec(cid, WorkInterval(d.lo, d.lo), kind=COMMUNICATION, interconnect=iid))
        edges.append(DataEdge(edge.src, cid, 0))
        edges.append(DataEdge(cid, edge.dst, 0))

    return JobType(job.name, tasks, edges)


class MissingInterconnect(ValueError):
    pass
