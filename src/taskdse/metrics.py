"""Metric extraction and statistical summaries over simulation traces.

A MetricSpec names one observable; extract() turns one trace into (key, value)
samples for it and summarize() folds samples from a whole campaign into a
Report.  Time-valued samples are integer ticks so they can be compared exactly
against formal bounds; summaries are floats in time units.

Every metric kind but event_pair reads a trace's TraceFacts, which the
simulator's event loop gathers while it runs.  trace_facts derives the same
facts from an event list: it is the reference the loop is tested against,
and builds the facts of traces made by hand.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, NamedTuple

from .config import ConfigError
from .model import Platform, SystemModel
from .timebase import SCALE

if TYPE_CHECKING:  # traces are consumed structurally; no runtime import cycle
    from .simulator import TimedTrace

# metrics whose raw samples are tick counts and whose summaries are in units
TIME_KINDS = ("job_latency", "makespan", "event_pair")
BINS = 20  # histogram bins per report


class MissingPowerEntry(LookupError):
    pass


@dataclass(frozen=True)
class MetricSpec:
    kind: str
    name: str = ""  # defaults to kind
    job: str = ""  # job_latency: restrict to one job type
    resource: str = ""  # utilization: restrict to one resource
    first: tuple = ()  # event_pair anchors: (event kind, task id)
    second: tuple = ()

    @property
    def label(self) -> str:
        return self.name or self.kind


def default_metrics(model: SystemModel) -> list[MetricSpec]:
    """The standard campaign set: makespan, per-job latency, utilization per
    powered-on processor, energy, overflow count."""
    out = [MetricSpec("makespan")]
    for j in model.job_types:
        out.append(MetricSpec("job_latency", name=f"job_latency[{j.name}]", job=j.name))
    for pe in model.platform.active_processors():
        out.append(MetricSpec("utilization", name=f"utilization[{pe.id}]", resource=pe.id))
    out.append(MetricSpec("energy"))
    out.append(MetricSpec("overflow_count"))
    return out


def busy_intervals(events) -> dict[str, list[tuple]]:
    """(start, end, frequency) of each task run per resource, the frequency
    its start event names; rejects overlapping or dangling pairs."""
    out: dict[str, list[tuple]] = {}
    open_at: dict[str, tuple] = {}
    for e in events:
        if e.kind == "start":
            if e.resource in open_at:
                raise ValueError(f"{e.resource} starts while busy at {e.time}")
            open_at[e.resource] = (e.instance, e.task, e.time, e.frequency)
        elif e.kind == "end":
            got = open_at.pop(e.resource, None)
            if got is None or got[:2] != (e.instance, e.task):
                raise ValueError(f"unmatched end on {e.resource} at {e.time}")
            out.setdefault(e.resource, []).append((got[2], e.time, got[3]))
    if open_at:
        raise ValueError(f"dangling starts: {sorted(open_at)}")
    return out


class TraceFacts(NamedTuple):
    """What the metric kinds read from one trace, gathered once.

    `runs` lists each resource's task runs as (start, end, frequency), cut
    off at the horizon, in the order they end; the frequency is None on an
    interconnect.  `busy_ticks` is their total length per resource.
    """

    arrivals: dict[int, tuple[str, int]]  # instance -> (job, arrival time)
    last_ends: dict[int, int]  # instance -> time of its last end
    runs: dict[str, list[tuple]]
    busy_ticks: dict[str, int]


def trace_facts(events, horizon: int) -> TraceFacts:
    """The facts of an event list observed up to `horizon`: one pass over
    the events plus one busy_intervals call.  The dicts follow the events: a
    resource enters `runs` and an instance `last_ends` at its first end.
    The simulator gathers the same facts in the same order while it runs."""
    runs = {r: [(min(s, horizon), min(e, horizon), f) for s, e, f in iv]
            for r, iv in busy_intervals(events).items()}
    arrivals: dict[int, tuple[str, int]] = {}
    last_ends: dict[int, int] = {}
    for e in events:
        if e.kind == "end":
            last_ends[e.instance] = max(last_ends.get(e.instance, e.time), e.time)
        elif e.kind == "arrival":
            arrivals[e.instance] = (e.job, e.time)
    busy_ticks = {r: sum(en - st for st, en, _f in iv) for r, iv in runs.items()}
    return TraceFacts(arrivals, last_ends, runs, busy_ticks)


def utilization(trace: TimedTrace) -> dict[str, float]:
    """Busy fraction of the horizon per resource."""
    busy = trace.facts.busy_ticks
    if trace.horizon <= 0:
        return {r: 0.0 for r in busy}
    return {r: b / trace.horizon for r, b in busy.items()}


class PowerTable:
    """A platform's power draw, looked up once per campaign for `energy`.

    `idle` holds each powered-on processor's static watts at its lowest
    frequency and `links` each interconnect's (static, dynamic) watts, both
    in platform order.  `watts(res, f)` is processor `res`'s static plus
    dynamic draw at frequency `f`.  A campaign's runs share the same
    frequency objects, so the table keeps the last one priced per processor
    and compares by identity before it hashes a Fraction again.
    """

    def __init__(self, platform: Platform):
        self.platform = platform
        self.links = [(ic.id, *ic.power) for ic in platform.interconnects]
        self.link_ids = frozenset(ic.id for ic in platform.interconnects)
        self.power = {p.id: p.power for p in platform.processors}
        self.priced: dict[str, tuple] = {}  # processor id -> (frequency, watts)

    @cached_property
    def idle(self) -> list[tuple[str, float]]:
        return [(p.id, p.power[p.min_frequency()][0])
                for p in self.platform.processors if p.initially_on]

    def watts(self, res: str, f) -> float:
        got = self.priced.get(res)
        if got is None or got[0] is not f:
            power = self.power[res]
            if f not in power:
                raise MissingPowerEntry(f"{res} has no power entry for {f}")
            stat, dyn = power[f]
            got = self.priced[res] = (f, stat + dyn)
        return got[1]


def energy(trace: TimedTrace, table: PowerTable) -> float:
    """Total energy over the horizon, in watt x time units.

    A powered-on processor draws its lowest-frequency static power while idle
    and static+dynamic at the running frequency while busy; interconnects draw
    static power for the whole horizon plus dynamic power while transferring.
    Work past the horizon is not counted.  `table` prices the platform; a
    campaign builds one for all its runs.
    """
    facts = trace.facts
    horizon = trace.horizon / SCALE
    busy = {res: b / SCALE for res, b in facts.busy_ticks.items()}
    total = 0.0

    # active work, priced per run at the frequency it ran at
    for res, runs in facts.runs.items():
        if res in table.link_ids:
            continue
        for st, en, f in runs:
            total += table.watts(res, f) * (en - st) / SCALE

    for pid, stat_idle in table.idle:
        total += stat_idle * max(horizon - busy.get(pid, 0.0), 0.0)

    for icid, stat, dyn in table.links:
        total += stat * horizon + dyn * busy.get(icid, 0.0)
    return total


def extract(trace: TimedTrace, spec: MetricSpec, prices: PowerTable | None = None):
    """Samples for one metric from one trace, as (key, value) pairs.

    Time values are integer ticks; utilization and energy are floats;
    overflow_count is an integer.  Energy needs the platform's PowerTable.
    """
    if spec.kind == "job_latency":
        arr, ends = trace.facts.arrivals, trace.facts.last_ends
        out = []
        for inst in sorted(ends):
            job, t0 = arr[inst]
            if spec.job and job != spec.job:
                continue
            out.append((str(inst), ends[inst] - t0))
        return out
    if spec.kind == "makespan":
        arr, ends = trace.facts.arrivals, trace.facts.last_ends
        if not ends:
            return []
        t0 = min(t for _, t in arr.values())
        return [("", max(ends.values()) - t0)]
    if spec.kind == "utilization":
        if spec.resource:
            b = trace.facts.busy_ticks.get(spec.resource, 0)
            return [(spec.resource, b / trace.horizon if trace.horizon > 0 else 0.0)]
        return sorted(utilization(trace).items())
    if spec.kind == "energy":
        if prices is None:
            raise ValueError("energy metric needs the platform's PowerTable")
        return [("", energy(trace, prices))]
    if spec.kind == "overflow_count":
        return [("", trace.overflow_count)]
    if spec.kind == "event_pair":
        ka, ta = spec.first
        kb, tb = spec.second
        first: dict[int, int] = {}
        out = []
        for e in trace.events:
            if e.kind == ka and e.task == ta and e.instance not in first:
                first[e.instance] = e.time
        for e in trace.events:
            if e.kind == kb and e.task == tb and e.instance in first:
                out.append((str(e.instance), e.time - first.pop(e.instance)))
        return out
    raise ValueError(f"unknown metric kind {spec.kind}")


@dataclass
class Report:
    count: int
    mean: float
    std: float
    min: float
    max: float
    median: float
    p95: float
    histogram: list = field(default_factory=list)  # (lo, hi, count) rows

    def to_dict(self) -> dict:
        """The report as JSON values: with no samples every statistic is
        None, written as null, since JSON has no NaN."""
        out = {"count": self.count, "histogram": [list(row) for row in self.histogram]}
        for name in ("mean", "std", "min", "max", "median", "p95"):
            out[name] = getattr(self, name) if self.count else None
        return out


def histogram_csv(report: Report) -> str:
    """Two-column plot-ready form: left bin edge, count."""
    lines = ["bin_left,count"]
    for lo, _hi, c in report.histogram:
        lines.append(f"{lo!r},{c}")
    return "\n".join(lines) + "\n"


def summarize(values, metric: str = "sample") -> Report:
    """Sample statistics; std is the n-1 sample deviation, p95 nearest-rank.

    Samples that floats cannot summarize, a NaN or infinite one or finite
    ones whose sum leaves the float range, raise a ConfigError that names
    `metric`: the model's figures (watts, say) are too large."""
    vals = sorted(float(v) for v in values)
    n = len(vals)
    if n == 0:
        return Report(0, math.nan, math.nan, math.nan, math.nan, math.nan, math.nan, [])
    try:
        total = math.fsum(vals)
    except OverflowError:
        total = math.inf
    if not math.isfinite(total):
        raise ConfigError(metric, f"the samples sum to {total!r}: one is not finite or the sum "
                          "leaves the float range; the model's watts or times are too large")
    mean = total / n  # statistics.fmean
    std = statistics.stdev(vals) if n >= 2 else 0.0
    p95 = vals[max(math.ceil(0.95 * n) - 1, 0)]
    lo, hi = vals[0], vals[-1]
    if hi > lo:
        width = (hi - lo) / BINS
        counts = [0] * BINS
        for v in vals:
            idx = min(int((v - lo) / width), BINS - 1)
            counts[idx] += 1
        hist = [(lo + i * width, lo + (i + 1) * width, c) for i, c in enumerate(counts)]
    else:
        hist = [(lo, hi, n)]
    return Report(n, mean, std, lo, hi, statistics.median(vals), p95, hist)
