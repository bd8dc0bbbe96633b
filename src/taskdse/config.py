"""System description files: a JSON tree with four sections.

    {
      "application": {"jobs": [{"name", "tasks": {...}, "edges": {...}}]},
      "platform":    {"processors": [...], "interconnects": [...], "memories": [...]},
      "generators":  [{"job", "variant", ...}],
      "deployment":  {"policy", "mapping", ...},
      "analysis":    {"instance_bound": K}          # optional
    }

Quantities (work, periods, rates, frequencies) are numbers or decimal strings
and are parsed exactly onto the tick grid; "0.1" means one tenth, never the
nearest double.  Edges are written as "src->dst" keys.  Parsing is strict:
unknown or missing fields raise ConfigError naming the offending path, so a
typo cannot silently change a model.  serialize() inverts parse() exactly and
model_hash() fingerprints the canonical serialization.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction

from .generators import Generator
from .model import (
    COMPUTATION,
    COMMUNICATION,
    DataEdge,
    Deployment,
    Interconnect,
    JobType,
    Memory,
    Platform,
    Processor,
    SystemModel,
    TaskSpec,
    WorkInterval,
)
from .timebase import as_fraction, format_ticks, to_ticks


class ConfigError(ValueError):
    """Schema or value error; `path` names the field that caused it."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path
        self.message = message

    def __reduce__(self):  # a sweep worker's error must unpickle in the parent
        return type(self), (self.path, self.message)


def _need(obj: dict, key: str, path: str):
    if key not in obj:
        raise ConfigError(path, f"missing required field '{key}'")
    return obj[key]


def _check_keys(obj, path: str, allowed: set[str]):
    if not isinstance(obj, dict):
        raise ConfigError(path, f"expected an object, got {type(obj).__name__}")
    for k in obj:
        if k not in allowed:
            raise ConfigError(f"{path}.{k}", "unknown field")


def _section(obj: dict, key: str, path: str, kind: type):
    """Optional object or list `key` of `obj`; missing or falsy reads as empty."""
    v = obj.get(key) or kind()
    if not isinstance(v, kind):
        what = "an object" if kind is dict else "a list"
        raise ConfigError(f"{path}.{key}", f"expected {what}, got {type(v).__name__}")
    return v


def _string(v, path: str) -> str:
    if not isinstance(v, str) or not v:
        raise ConfigError(path, "expected a non-empty string")
    return v


def _integer(v, path: str) -> int:
    if isinstance(v, bool) or not isinstance(v, int):
        raise ConfigError(path, "expected an integer")
    return v


def _ticks(v, path: str) -> int:
    try:
        return to_ticks(v)
    except (ValueError, TypeError) as e:
        raise ConfigError(path, str(e)) from None


def _fraction(v, path: str) -> Fraction:
    try:
        return as_fraction(v)
    except (ValueError, TypeError) as e:
        raise ConfigError(path, str(e)) from None


def _frequencies(items, path: str) -> list[Fraction]:
    """Frequencies of (value, path) pairs; a repeat in any spelling ("1", "1.0") is an error."""
    first = {}
    for v, vpath in items:
        f = _fraction(v, vpath)
        if f in first:
            raise ConfigError(path, f"frequency {json.dumps(v)} repeats {json.dumps(first[f])}")
        first[f] = v
    return list(first)


def _edge_key(key: str, path: str) -> tuple[str, str]:
    if key.count("->") != 1:
        raise ConfigError(path, "edge keys look like 'src->dst'")
    src, dst = key.split("->")
    if not src or not dst:
        raise ConfigError(path, "edge keys look like 'src->dst'")
    return src, dst


def _pair(v, path: str) -> tuple[float, float]:
    if not isinstance(v, list) or len(v) != 2:
        raise ConfigError(path, "expected [static_watts, dynamic_watts]")
    if any(isinstance(w, bool) for w in v):
        raise ConfigError(path, "watts must be numbers, not true or false")
    try:
        return float(v[0]), float(v[1])
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(path, "watts must be numbers") from None


# ---------------------------------------------------------------------------
# parse


def parse(data: dict, path: str = "") -> SystemModel:
    root = path or "config"
    _check_keys(data, root, {"application", "platform", "generators", "deployment", "analysis"})

    app = _need(data, "application", root)
    _check_keys(app, f"{root}.application", {"jobs"})
    jobs_v = _need(app, "jobs", f"{root}.application")
    if not isinstance(jobs_v, list) or not jobs_v:
        raise ConfigError(f"{root}.application.jobs", "expected a non-empty list")
    jobs = [_parse_job(j, f"{root}.application.jobs[{i}]") for i, j in enumerate(jobs_v)]

    platform = _parse_platform(_need(data, "platform", root), f"{root}.platform")

    gens_v = _need(data, "generators", root)
    if not isinstance(gens_v, list):
        raise ConfigError(f"{root}.generators", "expected a list")
    gens = [_parse_generator(g, f"{root}.generators[{i}]") for i, g in enumerate(gens_v)]

    dep = _parse_deployment(_need(data, "deployment", root), f"{root}.deployment")

    k = 1
    if "analysis" in data:
        ana = data["analysis"]
        _check_keys(ana, f"{root}.analysis", {"instance_bound"})
        if "instance_bound" in ana:
            k = _integer(ana["instance_bound"], f"{root}.analysis.instance_bound")

    return SystemModel(jobs, platform, gens, dep, instance_bound=k)


def _parse_job(j, path: str) -> JobType:
    _check_keys(j, path, {"name", "tasks", "edges"})
    name = _string(_need(j, "name", path), f"{path}.name")
    tasks_v = _need(j, "tasks", path)
    if not isinstance(tasks_v, dict) or not tasks_v:
        raise ConfigError(f"{path}.tasks", "expected a non-empty object")
    tasks = [_parse_task(tid, t, f"{path}.tasks.{tid}") for tid, t in tasks_v.items()]
    edges = []
    for key, val in _section(j, "edges", path, dict).items():
        epath = f"{path}.edges.{key}"
        src, dst = _edge_key(key, epath)
        if isinstance(val, dict):
            _check_keys(val, epath, {"volume"})
            vol = _integer(val.get("volume", 0), f"{epath}.volume")
        else:
            vol = _integer(val, epath)
        edges.append(DataEdge(src, dst, vol))
    return JobType(name, tasks, edges)


def _parse_task(tid: str, t, path: str) -> TaskSpec:
    _check_keys(t, path, {"work", "kind", "interconnect"})
    wv = _need(t, "work", path)
    if isinstance(wv, list):
        if len(wv) != 2:
            raise ConfigError(f"{path}.work", "expected [lo, hi]")
        work = WorkInterval(_ticks(wv[0], f"{path}.work"), _ticks(wv[1], f"{path}.work"))
    else:
        w = _ticks(wv, f"{path}.work")
        work = WorkInterval(w, w)
    kind = t.get("kind", COMPUTATION)
    if kind not in (COMPUTATION, COMMUNICATION):
        raise ConfigError(f"{path}.kind", f"unknown task kind {kind!r}")
    ic = t.get("interconnect")
    if ic is not None:
        ic = _string(ic, f"{path}.interconnect")
    return TaskSpec(tid, work, kind, ic)


def _parse_platform(p, path: str) -> Platform:
    _check_keys(p, path, {"processors", "interconnects", "memories"})
    pes_v = _need(p, "processors", path)
    if not isinstance(pes_v, list) or not pes_v:
        raise ConfigError(f"{path}.processors", "expected a non-empty list")
    pes = [_parse_processor(q, f"{path}.processors[{i}]") for i, q in enumerate(pes_v)]
    ics = [_parse_interconnect(q, f"{path}.interconnects[{i}]")
           for i, q in enumerate(_section(p, "interconnects", path, list))]
    mems = [_parse_memory(q, f"{path}.memories[{i}]")
            for i, q in enumerate(_section(p, "memories", path, list))]
    return Platform(pes, mems, ics)


def _parse_processor(q, path: str) -> Processor:
    _check_keys(q, path, {"name", "frequencies", "power", "on"})
    name = _string(_need(q, "name", path), f"{path}.name")
    fv = _need(q, "frequencies", path)
    if not isinstance(fv, list) or not fv:
        raise ConfigError(f"{path}.frequencies", "expected a non-empty list")
    freqs = _frequencies(((f, f"{path}.frequencies[{i}]") for i, f in enumerate(fv)),
                         f"{path}.frequencies")
    pv = _need(q, "power", path)
    if not isinstance(pv, dict):
        raise ConfigError(f"{path}.power", "expected an object keyed by frequency")
    keys = _frequencies(((fk, f"{path}.power.{fk}") for fk in pv), f"{path}.power")
    power = {f: _pair(watts, f"{path}.power.{fk}") for f, (fk, watts) in zip(keys, pv.items())}
    on = q.get("on", True)
    if not isinstance(on, bool):
        raise ConfigError(f"{path}.on", "expected true or false")
    return Processor(name, freqs, power, on)


def _parse_interconnect(q, path: str) -> Interconnect:
    _check_keys(q, path, {"name", "rate", "init_latency", "power"})
    name = _string(_need(q, "name", path), f"{path}.name")
    rate = _fraction(_need(q, "rate", path), f"{path}.rate")
    if rate <= 0:
        raise ConfigError(f"{path}.rate", "rate must be positive")
    lat = _ticks(q.get("init_latency", 0), f"{path}.init_latency")
    power = _pair(q["power"], f"{path}.power") if "power" in q else (0.0, 0.0)
    return Interconnect(name, rate, lat, power)


def _parse_memory(q, path: str) -> Memory:
    _check_keys(q, path, {"name", "locality", "access_time"})
    name = _string(_need(q, "name", path), f"{path}.name")
    loc = q.get("locality", "local")
    if loc not in ("local", "offchip"):
        raise ConfigError(f"{path}.locality", f"unknown locality {loc!r}")
    return Memory(name, loc, _ticks(q.get("access_time", 0), f"{path}.access_time"))


def _parse_generator(g, path: str) -> Generator:
    _check_keys(g, path, {"job", "variant", "period", "jitter", "window",
                          "min_events", "max_events", "count", "arrivals"})
    job = _string(_need(g, "job", path), f"{path}.job")
    variant = _string(_need(g, "variant", path), f"{path}.variant")
    arrivals = None
    if g.get("arrivals") is not None:
        av = g["arrivals"]
        if not isinstance(av, list):
            raise ConfigError(f"{path}.arrivals", "expected a list of times")
        arrivals = [_ticks(t, f"{path}.arrivals[{i}]") for i, t in enumerate(av)]
    return Generator(
        job_type=job,
        variant=variant,
        period=_ticks(g.get("period", 0), f"{path}.period"),
        jitter=_ticks(g.get("jitter", 0), f"{path}.jitter"),
        window=_ticks(g.get("window", 0), f"{path}.window"),
        min_events=_integer(g.get("min_events", 0), f"{path}.min_events"),
        max_events=_integer(g.get("max_events", 0), f"{path}.max_events"),
        count=_integer(g.get("count", 1), f"{path}.count"),
        arrivals=arrivals,
    )


def _parse_deployment(d, path: str) -> Deployment:
    _check_keys(d, path, {"policy", "mapping", "priorities", "task_frequency",
                          "data_placement", "edge_interconnect", "queue_capacity"})
    dep = Deployment()
    if "policy" in d:
        dep.policy = _string(d["policy"], f"{path}.policy")
    mapping = _section(d, "mapping", path, dict)
    dep.mapping = {t: _string(pe, f"{path}.mapping.{t}") for t, pe in mapping.items()}
    prios = _section(d, "priorities", path, dict)
    dep.priorities = {t: _integer(v, f"{path}.priorities.{t}") for t, v in prios.items()}
    tf = _section(d, "task_frequency", path, dict)
    dep.task_frequency = {t: _fraction(v, f"{path}.task_frequency.{t}") for t, v in tf.items()}
    dp = _section(d, "data_placement", path, dict)
    dep.data_placement = {
        _edge_key(k, f"{path}.data_placement.{k}"): _string(v, f"{path}.data_placement.{k}")
        for k, v in dp.items()
    }
    ei = _section(d, "edge_interconnect", path, dict)
    dep.edge_interconnect = {
        _edge_key(k, f"{path}.edge_interconnect.{k}"): _string(v, f"{path}.edge_interconnect.{k}")
        for k, v in ei.items()
    }
    if "queue_capacity" in d:
        dep.queue_capacity = _integer(d["queue_capacity"], f"{path}.queue_capacity")
    return dep


# ---------------------------------------------------------------------------
# serialize


def serialize(m: SystemModel) -> dict:
    """Inverse of parse(): parse(serialize(m)) == m."""
    return {
        "application": {"jobs": [_ser_job(j) for j in m.job_types]},
        "platform": _ser_platform(m.platform),
        "generators": [_ser_generator(g) for g in m.generators],
        "deployment": _ser_deployment(m.deployment),
        "analysis": {"instance_bound": m.instance_bound},
    }


def _ser_job(j: JobType) -> dict:
    tasks = {}
    for t in j.tasks:
        entry: dict = {"work": [format_ticks(t.work.lo), format_ticks(t.work.hi)]}
        if t.kind != COMPUTATION:
            entry["kind"] = t.kind
        if t.interconnect is not None:
            entry["interconnect"] = t.interconnect
        tasks[t.id] = entry
    out: dict = {"name": j.name, "tasks": tasks}
    if j.edges:
        out["edges"] = {f"{e.src}->{e.dst}": e.volume for e in j.edges}
    return out


def _ser_platform(p: Platform) -> dict:
    out: dict = {"processors": []}
    for pe in p.processors:
        entry = {
            "name": pe.id,
            "frequencies": [str(f) for f in pe.frequencies],
            "power": {str(f): [s, d] for f, (s, d) in pe.power.items()},
        }
        if not pe.initially_on:
            entry["on"] = False
        out["processors"].append(entry)
    if p.interconnects:
        out["interconnects"] = [
            {"name": ic.id, "rate": str(ic.rate),
             "init_latency": format_ticks(ic.init_latency),
             "power": [ic.power[0], ic.power[1]]}
            for ic in p.interconnects
        ]
    if p.memories:
        out["memories"] = [
            {"name": mm.id, "locality": mm.locality,
             "access_time": format_ticks(mm.access_time)}
            for mm in p.memories
        ]
    return out


def _ser_generator(g: Generator) -> dict:
    out: dict = {"job": g.job_type, "variant": g.variant, "count": g.count}
    if g.period:
        out["period"] = format_ticks(g.period)
    if g.jitter:
        out["jitter"] = format_ticks(g.jitter)
    if g.window:
        out["window"] = format_ticks(g.window)
    if g.min_events:
        out["min_events"] = g.min_events
    if g.max_events:
        out["max_events"] = g.max_events
    if g.arrivals is not None:
        out["arrivals"] = [format_ticks(t) for t in g.arrivals]
    return out


def _ser_deployment(d: Deployment) -> dict:
    out: dict = {"policy": d.policy, "queue_capacity": d.queue_capacity}
    if d.mapping:
        out["mapping"] = dict(d.mapping)
    if d.priorities:
        out["priorities"] = dict(d.priorities)
    if d.task_frequency:
        out["task_frequency"] = {t: str(f) for t, f in d.task_frequency.items()}
    if d.data_placement:
        out["data_placement"] = {f"{s}->{t}": m for (s, t), m in d.data_placement.items()}
    if d.edge_interconnect:
        out["edge_interconnect"] = {f"{s}->{t}": ic for (s, t), ic in d.edge_interconnect.items()}
    return out


# ---------------------------------------------------------------------------
# files and fingerprints


def load(path: str) -> SystemModel:
    def unique(pairs):
        obj = {}
        for key, value in pairs:
            if key in obj:
                raise ConfigError(path, f"key {key!r} repeated in one object")
            obj[key] = value
        return obj

    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh, object_pairs_hook=unique)
    except OSError as e:
        raise ConfigError(path, str(e)) from None
    except json.JSONDecodeError as e:
        raise ConfigError(path, f"line {e.lineno} column {e.colno}: {e.msg}") from None
    if not isinstance(data, dict):
        raise ConfigError(path, "top level must be an object")
    return parse(data, path)


def dumps(m: SystemModel) -> str:
    """Canonical text form; key order follows the model, so hashes are stable."""
    return json.dumps(serialize(m), indent=2) + "\n"


def model_hash(m: SystemModel) -> str:
    """12-hex-digit fingerprint of the canonical serialization."""
    return hashlib.sha256(dumps(m).encode()).hexdigest()[:12]
