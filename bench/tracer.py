"""In-memory span tracing of taskdse's layers, from outside the program.

The engines look their collaborators up as module globals at call time
(`reachability.constrain_one`, `simulator.next_dispatch`, ...), so replacing
those attributes with timing wrappers traces every call without touching
the program.  Each wrapper records one span (name, start, end, parent) into
flat arrays; self time is derived from the spans after the run, and
`Tracer.close` puts every original attribute back.
"""

from __future__ import annotations

import importlib
import statistics
from array import array
from time import perf_counter

import numpy as np


def _hull_hit(_args, result) -> int:
    return 1 if result is True else 0


def _family_hit(_args, result) -> int:
    return 0 if result is None else 1


def _events(_args, trace) -> int:
    return len(trace.events)


def _bytes(args, _result) -> int:
    return len(args[1].encode("utf-8"))


# (module, attribute, span name, measure).  A measure maps (args, result) to
# a number that is summed per span name, e.g. hull hits or bytes written.
HOOKS = [
    ("taskdse.config", "load", "config.load", None),
    ("taskdse.model", "validate_model", "config.validate", None),
    ("taskdse.cli", "validate_model", "config.validate", None),
    ("taskdse.config", "model_hash", "config.hash", None),
    ("taskdse.reachability", "reach_bounds", "reachability.search", None),
    ("taskdse.reachability", "_after_end", "reachability.successor", None),
    ("taskdse.reachability", "_after_arrival", "reachability.successor", None),
    ("taskdse.reachability", "_invariants", "reachability.invariants", None),
    ("taskdse.reachability", "_Store.insert", "reachability.insert", None),
    ("taskdse.reachability", "_hull_is_union", "reachability.hull", _hull_hit),
    ("taskdse.reachability", "_family_hull", "reachability.hull", _family_hit),
    ("taskdse.reachability", "constrain_one", "zones.constrain", None),
    ("taskdse.reachability", "relayout", "zones.relayout", None),
    ("taskdse.reachability", "zone_includes", "zones.includes", None),
    ("taskdse.reachability", "next_dispatch", "schedulers.dispatch", None),
    ("taskdse.reachability", "apply_dispatch", "schedulers.apply", None),
    ("taskdse.reachability", "enqueue", "schedulers.enqueue", None),
    ("taskdse.reachability", "release", "schedulers.release", None),
    ("taskdse.simulator", "next_dispatch", "schedulers.dispatch", None),
    ("taskdse.simulator", "apply_dispatch", "schedulers.apply", None),
    ("taskdse.simulator", "enqueue", "schedulers.enqueue", None),
    ("taskdse.simulator", "release", "schedulers.release", None),
    ("taskdse.cli", "run_campaign", "simulator.campaign", None),
    ("taskdse.simulator", "simulate", "simulator.run", _events),
    ("taskdse.simulator", "task_duration", "model.duration", None),
    ("taskdse.simulator", "expand_comm_tasks", "model.expand", None),
    ("taskdse.simulator", "sample_arrivals", "generators.sample", None),
    ("taskdse.simulator", "extract", "metrics.extract", None),
    ("taskdse.metrics", "busy_intervals", "metrics.busy_intervals", None),
    ("taskdse.simulator", "summarize", "metrics.summarize", None),
    ("taskdse.cli", "_write", "cli.write", _bytes),
]


def hook_targets() -> list[tuple[object, str]]:
    """(owner, attribute) of every hook; owner is a module or a class."""
    out = []
    for modname, attr, _name, _measure in HOOKS:
        owner = importlib.import_module(modname)
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        out.append((owner, leaf))
    return out


class Tracer:
    """Wraps every hook while open; spans stay in memory until `save`."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_of = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.totals: dict[str, float] = {}
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, fn, name: str, measure):
        nid = self._id(name)
        name_of, parent, start, end = self.name_of, self.parent, self.start, self.end
        stack, totals = self._stack, self.totals

        def traced(*args, **kwargs):
            idx = len(start)
            name_of.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()
            if measure is not None:
                totals[name] = totals.get(name, 0) + measure(args, result)
            return result

        return traced

    def open(self) -> None:
        # resolve every target before patching any, so a missing attribute
        # leaves the program untouched
        targets = [(owner, attr, vars(owner)[attr], name, measure)
                   for (owner, attr), (_m, _a, name, measure) in zip(hook_targets(), HOOKS)]
        for owner, attr, original, name, measure in targets:
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, measure))

    def close(self) -> None:
        """Put every wrapped attribute back to its original object."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.open()
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def spans(self) -> dict[str, np.ndarray]:
        return {
            "name": np.array(self.name_of, dtype=np.int32),
            "parent": np.array(self.parent, dtype=np.int64),
            "start": np.array(self.start, dtype=np.float64),
            "end": np.array(self.end, dtype=np.float64),
        }

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.spans())

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, inclusive and self seconds, durations."""
        s = self.spans()
        dur = s["end"] - s["start"]
        child = np.zeros(len(dur))
        nested = s["parent"] >= 0
        np.add.at(child, s["parent"][nested], dur[nested])
        own = dur - child
        out = {}
        for nid, name in enumerate(self.names):
            sel = s["name"] == nid
            out[name] = {
                "calls": int(sel.sum()),
                "total_s": float(dur[sel].sum()),
                "self_s": float(own[sel].sum()),
                "durations": dur[sel],
                "measure": self.totals.get(name, 0),
            }
        return out


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(summary: dict, *, items: int, untraced_op_s: float,
                  extra: dict) -> dict[str, float]:
    """Per-layer figures from one traced phase.

    `items` is the number of operation items the traced phase completed
    (verify calls, simulated runs or sweep points); `untraced_op_s` is the
    median untraced wall time of one verify call, used for the search rate.
    `extra` supplies figures the spans cannot give (exact search counts,
    pool efficiency, trace overhead, config medians).
    """

    def get(name, key="calls"):
        entry = summary.get(name)
        return entry[key] if entry else 0

    def us_per_call(name):
        return _ratio(get(name, "total_s"), get(name)) * 1e6

    searches = get("reachability.search")
    runs = get("simulator.run")
    inserts = _ratio(get("reachability.insert"), searches)
    hull_checks = _ratio(get("reachability.hull"), searches)
    run_durations = summary.get("simulator.run", {}).get("durations", np.zeros(0))
    configs = extra.get("configs", 0)
    merges = extra.get("merges", 0)
    return {
        "reachability.configs": configs,
        "reachability.configs_per_s": _ratio(configs, untraced_op_s) if searches else 0.0,
        "reachability.successor_s": _ratio(get("reachability.successor", "total_s"), searches),
        "reachability.invariants_s": _ratio(get("reachability.invariants", "total_s"), searches),
        "reachability.inserts": inserts,
        "reachability.insert_s": _ratio(get("reachability.insert", "total_s"), searches),
        "reachability.merges": merges,
        "reachability.merge_ratio": _ratio(merges, inserts),
        "reachability.hull_checks": hull_checks,
        "reachability.hull_s": _ratio(get("reachability.hull", "total_s"), searches),
        "reachability.hull_hit_ratio": _ratio(get("reachability.hull", "measure"),
                                              get("reachability.hull")),
        "zones.constrain_calls": _ratio(get("zones.constrain"), items),
        "zones.constrain_us": us_per_call("zones.constrain"),
        "zones.relayout_us": us_per_call("zones.relayout"),
        "zones.includes_calls": _ratio(get("zones.includes"), items),
        "zones.includes_us": us_per_call("zones.includes"),
        "schedulers.dispatch_calls": _ratio(get("schedulers.dispatch"), items),
        "schedulers.dispatch_us": us_per_call("schedulers.dispatch"),
        "schedulers.apply_us": us_per_call("schedulers.apply"),
        "schedulers.enqueue_us": us_per_call("schedulers.enqueue"),
        "schedulers.release_us": us_per_call("schedulers.release"),
        "simulator.events": _ratio(get("simulator.run", "measure"), runs),
        "simulator.events_per_s": _ratio(get("simulator.run", "measure"),
                                         get("simulator.run", "total_s")),
        "simulator.run_ms_p50": percentile(run_durations, 50) * 1e3,
        "simulator.run_ms_p95": percentile(run_durations, 95) * 1e3,
        "simulator.self_s": _ratio(get("simulator.run", "self_s"), items),
        "model.duration_us": us_per_call("model.duration"),
        "generators.sample_us": us_per_call("generators.sample"),
        "model.expand_ms_per_run": _ratio(get("model.expand", "total_s"), runs) * 1e3,
        "metrics.extract_ms_per_run": _ratio(get("metrics.extract", "total_s"), runs) * 1e3,
        "metrics.busy_intervals_calls_per_run": _ratio(get("metrics.busy_intervals"), runs),
        "metrics.summarize_ms": _ratio(get("metrics.summarize", "total_s"),
                                       get("simulator.campaign")) * 1e3,
        "cli.write_ms": _ratio(get("cli.write", "total_s"), items) * 1e3,
        "cli.bytes_written": _ratio(get("cli.write", "measure"), items),
        "cli.pool_efficiency": extra.get("pool_efficiency", 0.0),
        "config.load_ms": _median_ms(summary, "config.load"),
        "config.validate_ms": _median_ms(summary, "config.validate"),
        "config.hash_ms": _median_ms(summary, "config.hash"),
        "trace_overhead": extra["trace_overhead"],
    }


def percentile(values, q: float) -> float:
    """Nearest-rank percentile; 0.0 for no values."""
    if len(values) == 0:
        return 0.0
    ordered = np.sort(np.asarray(values, dtype=float))
    rank = max(int(np.ceil(q / 100 * len(ordered))) - 1, 0)
    return float(ordered[rank])


def _median_ms(summary: dict, name: str) -> float:
    entry = summary.get(name)
    if not entry or entry["calls"] == 0:
        return 0.0
    return statistics.median(entry["durations"].tolist()) * 1e3
