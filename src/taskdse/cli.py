"""Command-line front end.

Verbs: check (parse + validate), verify (formal bounds), simulate (one
Monte-Carlo campaign), sweep (campaigns over a configuration cross-product).
Exit codes: 0 ok, 1 internal error, 2 configuration or semantic error,
3 clock budget exceeded, 4 search cap exceeded.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor

from . import config
from .generators import NoProbabilisticSemantics
from .metrics import TIME_KINDS, default_metrics, histogram_csv
from .model import POLICIES, LOCAL_POLICIES, SystemModel, validate_model
from .reachability import BudgetExceeded, ReachOptions, SearchCapExceeded, reach_bounds
from .rng import derive_seed
from .simulator import run_campaign
from .timebase import MAX_TICKS, SCALE, format_ticks

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_CONFIG = 2
EXIT_BUDGET = 3
EXIT_SEARCH_CAP = 4

SWEEP_AXES = ("processors", "frequency", "period", "policy")


class AxisError(ValueError):
    pass


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="taskdse",
        description="Design-space exploration for task graphs on multi-core platforms",
    )
    sub = p.add_subparsers(dest="verb", required=True)

    c = sub.add_parser("check", help="parse and validate a system description")
    c.add_argument("file")

    v = sub.add_parser("verify", help="formal makespan/latency bounds")
    v.add_argument("file")
    v.add_argument("--k", type=int, default=None, help="instances analyzed per generator")
    v.add_argument("--clock-budget", type=int, default=ReachOptions.clock_budget)
    v.add_argument("--out", "-o", default=None)

    s = sub.add_parser("simulate", help="Monte-Carlo campaign")
    s.add_argument("file")
    s.add_argument("--runs", type=int, required=True)
    s.add_argument("--seed", type=int, required=True)
    s.add_argument("--traces", action="store_true", help="write trace-*.txt per run")
    s.add_argument("--horizon", default=None, help="observation horizon in time units")
    s.add_argument("--out", "-o", default=None)

    w = sub.add_parser("sweep", help="campaigns over a configuration cross-product")
    w.add_argument("file")
    w.add_argument("--axis", action="append", required=True, metavar="name=v1,v2,...",
                   help=f"axes: {', '.join(SWEEP_AXES)}")
    w.add_argument("--runs", type=int, required=True)
    w.add_argument("--seed", type=int, required=True)
    w.add_argument("--workers", type=int, default=1)
    w.add_argument("--out", "-o", default=None)
    return p


def _outdir(arg: str | None) -> str:
    return arg or os.environ.get("TASKDSE_OUT") or "out"


def _load(path: str) -> tuple[SystemModel, str]:
    model = config.load(path)
    violations = validate_model(model)
    if violations:
        for v in violations:
            print(f"violation: {v}", file=sys.stderr)
        raise config.ConfigError(path, f"{len(violations)} semantic violation(s)")
    return model, config.model_hash(model)


def _fmt_bound(v) -> str:
    return "inf" if v is None or v == math.inf else format_ticks(v)


def _interval_json(iv) -> dict | None:
    if iv is None:
        return None
    return {"lo": _fmt_bound(iv.lo), "hi": _fmt_bound(iv.hi)}


def _write(path: str, text: str):
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# verbs


def _cmd_check(args) -> int:
    model, h = _load(args.file)
    print(f"ok {h}: {len(model.job_types)} job type(s), "
          f"{len(model.platform.processors)} processor(s), "
          f"{len(model.generators)} generator(s)")
    return EXIT_OK


def _instance_prefix(model) -> str:
    """The instances the bounds cover: the first min(count, K) of each
    generator, one entry per generator when there are several."""
    spans = [f"1..{min(g.count, model.instance_bound)} of {g.count}" for g in model.generators]
    if len(spans) == 1:
        return f"bounds cover instances {spans[0]} per generator"
    return "bounds cover instances per generator: " + ", ".join(
        f"{span} ({g.job_type})" for span, g in zip(spans, model.generators))


def _cmd_verify(args) -> int:
    model, h = _load(args.file)
    if args.k is not None:
        if args.k < 1:
            raise config.ConfigError("--k", "instance bound must be >= 1")
        model.instance_bound = args.k
    if args.clock_budget < 1:
        raise config.ConfigError("--clock-budget", "clock budget must be >= 1")
    res = reach_bounds(model, ReachOptions(clock_budget=args.clock_budget))
    report = {
        "engine": "zones",
        "model": h,
        "instance_bound": model.instance_bound,
        "clock_budget": args.clock_budget,
        "makespan": _interval_json(res.makespan),
        "job_latency": _interval_json(res.latency),
        "instance_latency": {
            str(i): _interval_json(iv) for i, iv in sorted(res.instance_latency.items())
        },
        "overflow_reachable": res.overflow_reachable,
        "terminal_reached": res.terminal_reached,
        "states": res.states,
        "zones": res.zones,
        "merges": res.merges,
    }
    out = _outdir(args.out)
    _write(os.path.join(out, "report.json"), _json_text(report))
    if res.makespan is not None:
        print(f"makespan [{_fmt_bound(res.makespan.lo)}, {_fmt_bound(res.makespan.hi)}]")
    else:
        print("makespan unbounded: no run to completion")
    if res.latency is not None:
        print(f"latency [{_fmt_bound(res.latency.lo)}, {_fmt_bound(res.latency.hi)}]")
    print(_instance_prefix(model))
    print(f"overflow reachable: {'yes' if res.overflow_reachable else 'no'}")
    print(f"states {res.states}, zones {res.zones}, merges {res.merges}")
    classes = ", ".join(map(str, res.classes))
    print(f"symmetry: processor classes {classes}; mirrored completions skipped {res.mirrored}"
          if classes else "symmetry: none")
    print(f"report written to {os.path.join(out, 'report.json')}")
    return EXIT_OK


def _sample_cell(kind: str, value) -> str:
    if kind in TIME_KINDS:
        return format_ticks(value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _samples_csv(specs, campaign) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["run", "metric", "key", "value"])
    for spec in specs:
        for run, samples in enumerate(campaign.per_run[spec.label]):
            for key, value in samples:
                w.writerow([run, spec.label, key, _sample_cell(spec.kind, value)])
    return buf.getvalue()


def _point_report(h: str, campaign) -> dict:
    return {
        "engine": "simulation",
        "model": h,
        "rng": "splitmix64",
        "seed": campaign.seed,
        "runs": campaign.runs,
        "overflow_runs": campaign.overflow_runs,
        "overflow_total": campaign.overflow_total,
        "metrics": {label: rep.to_dict() for label, rep in campaign.reports.items()},
    }


def _write_point(outdir: str, h: str, specs, campaign):
    _write(os.path.join(outdir, "report.json"), _json_text(_point_report(h, campaign)))
    _write(os.path.join(outdir, "samples.csv"), _samples_csv(specs, campaign))
    for label, rep in campaign.reports.items():
        _write(os.path.join(outdir, f"hist-{label}.csv"), histogram_csv(rep))
    if campaign.traces is not None:
        for i, t in enumerate(campaign.traces):
            _write(os.path.join(outdir, f"trace-{i:04d}.txt"), t.text())


def _cmd_simulate(args) -> int:
    model, h = _load(args.file)
    if args.runs < 1:
        raise config.ConfigError("--runs", "need at least one run")
    horizon = None if args.horizon is None else config._ticks(args.horizon, "--horizon")
    if horizon is not None and not 0 < horizon < MAX_TICKS:
        raise config.ConfigError("--horizon", f"horizon must be positive and below {MAX_TICKS} ticks")
    specs = default_metrics(model)
    campaign = run_campaign(model, args.runs, args.seed, specs,
                            horizon=horizon, keep_traces=args.traces, model_hash=h)
    out = _outdir(args.out)
    _write_point(out, h, specs, campaign)
    for label, rep in campaign.reports.items():
        print(f"{label}: count {rep.count} mean {rep.mean:.6g} "
              f"min {rep.min:.6g} max {rep.max:.6g}")
    print(f"overflow in {campaign.overflow_runs}/{campaign.runs} runs")
    print(f"report written to {os.path.join(out, 'report.json')}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# sweep


def _parse_axes(specs: list[str]) -> list[tuple[str, list[str]]]:
    axes = []
    seen = set()
    for spec in specs:
        name, eq, vals = spec.partition("=")
        if not eq or not vals:
            raise AxisError(f"--axis wants name=v1,v2,..., got {spec!r}")
        if name not in SWEEP_AXES:
            raise AxisError(f"unknown axis {name!r}; choose from {', '.join(SWEEP_AXES)}")
        if name in seen:
            raise AxisError(f"axis {name!r} given twice")
        seen.add(name)
        values = vals.split(",")
        # compared parsed, so two spellings of one value (400 and 800/2,
        # 1 and 01) count as a repeat too
        parsed = [_axis_value(name, v) for v in values]
        repeated = []
        for k, p in enumerate(parsed):
            first = parsed.index(p)
            said = values[k] if values[k] == values[first] else f"{values[k]} (as {values[first]})"
            if first < k and said not in repeated:
                repeated.append(said)
        if repeated:
            raise AxisError(f"axis {name!r} repeats {', '.join(repeated)}; "
                            "two points would run one model")
        axes.append((name, values))
    return axes


def _axis_value(name: str, value: str):
    """The value a sweep axis takes from its text: a processor count, a
    Fraction frequency, a period in ticks or a policy name."""
    if name == "processors":
        try:
            return int(value)
        except ValueError:
            raise AxisError(f"processors={value!r} is not an integer") from None
    if name == "frequency":
        return config._fraction(value, "--axis frequency")
    if name == "period":
        t = config._ticks(value, "--axis period")
        if t <= 0:
            raise AxisError("period must be positive")
        return t
    if name == "policy":
        if value not in POLICIES:
            raise AxisError(f"unknown policy {value!r}")
        return value
    raise AxisError(f"unknown axis {name!r}")


def apply_axis(model: SystemModel, name: str, value: str):
    """Mutate `model` along one sweep axis; values arrive as strings."""
    v = _axis_value(name, value)
    if name == "processors":
        pes = model.platform.processors
        if not 1 <= v <= len(pes):
            raise AxisError(f"processors={v} outside 1..{len(pes)}")
        if model.deployment.policy in LOCAL_POLICIES:
            raise AxisError("processors axis needs a global policy; "
                            "local mappings pin tasks to named processors")
        for i, pe in enumerate(pes):
            pe.initially_on = i < v
    elif name == "frequency":
        for pe in model.platform.processors:
            pe.frequencies = [v]
    elif name == "period":
        for g in model.generators:
            g.period = v
    else:  # policy
        model.deployment.policy = v


def _point_label(assignment: list[tuple[str, str]]) -> str:
    return ",".join(f"{n}={v}" for n, v in assignment)


def _run_point(payload) -> dict:
    data, assignment, runs, point_seed, outdir = payload
    model = config.parse(data)
    for name, value in assignment:
        apply_axis(model, name, value)
    h = config.model_hash(model)
    specs = default_metrics(model)
    campaign = run_campaign(model, runs, point_seed, specs, model_hash=h)
    _write_point(outdir, h, specs, campaign)

    latencies = [v / SCALE for s in specs if s.kind == "job_latency"
                 for v in campaign.values(s.label)]
    energies = campaign.values("energy")
    powers = [e / (hz / SCALE) for e, hz in zip(energies, campaign.horizons) if hz > 0]
    row = {n: v for n, v in assignment}
    row["mean_makespan"] = campaign.reports["makespan"].mean
    row["mean_latency"] = sum(latencies) / len(latencies) if latencies else math.nan
    row["mean_energy"] = campaign.reports["energy"].mean
    row["mean_power"] = sum(powers) / len(powers) if powers else math.nan
    row["overflow_runs"] = campaign.overflow_runs
    return row


def _cmd_sweep(args) -> int:
    model, _h = _load(args.file)
    if args.runs < 1:
        raise config.ConfigError("--runs", "need at least one run")
    if args.workers < 1:
        raise AxisError("--workers must be >= 1")
    axes = _parse_axes(args.axis)
    data = config.serialize(model)
    out = _outdir(args.out)

    points: list[list[tuple[str, str]]] = [[]]
    for name, values in axes:
        points = [pt + [(name, v)] for pt in points for v in values]

    # every point is checked before any runs, so a bad one leaves no partial
    # tree.  Each axis sets its fields outright, so one parsed copy serves
    # every point once the one field an axis reads, the policy, is restored
    probe = config.parse(data)
    payloads = []
    for i, assignment in enumerate(points):
        probe.deployment.policy = model.deployment.policy
        for name, value in assignment:
            apply_axis(probe, name, value)
        violations = validate_model(probe)
        if violations:
            raise AxisError(f"{_point_label(assignment)}: {violations[0]}")
        # a value may hold "/" (frequency=800/2); the point stays one directory
        label = _point_label(assignment).replace("/", "%2F")
        payloads.append((data, assignment, args.runs,
                         derive_seed(args.seed, i), os.path.join(out, label)))

    # a pool starts every worker it is given at once, so it gets no more
    # workers than points
    workers = min(args.workers, len(payloads))
    if workers == 1:
        rows = [_run_point(p) for p in payloads]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_run_point, payloads))

    buf = io.StringIO()
    names = [n for n, _vs in axes]
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(names + ["mean_makespan", "mean_latency", "mean_energy",
                        "mean_power", "overflow_runs"])
    for row in rows:
        w.writerow([row[n] for n in names]
                   + [repr(row["mean_makespan"]), repr(row["mean_latency"]),
                      repr(row["mean_energy"]), repr(row["mean_power"]),
                      row["overflow_runs"]])
    _write(os.path.join(out, "tradeoff.csv"), buf.getvalue())
    for row in rows:
        label = _point_label([(n, row[n]) for n in names])
        print(f"{label}: mean_makespan {row['mean_makespan']:.6g} "
              f"mean_power {row['mean_power']:.6g}")
    print(f"tradeoff table written to {os.path.join(out, 'tradeoff.csv')}")
    return EXIT_OK


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.verb == "check":
            return _cmd_check(args)
        if args.verb == "verify":
            return _cmd_verify(args)
        if args.verb == "simulate":
            return _cmd_simulate(args)
        return _cmd_sweep(args)
    except (config.ConfigError, AxisError, NoProbabilisticSemantics) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except BudgetExceeded as e:
        print(f"error: clock budget exceeded: {e}", file=sys.stderr)
        return EXIT_BUDGET
    except SearchCapExceeded as e:
        print(f"error: search cap exceeded: {e}", file=sys.stderr)
        return EXIT_SEARCH_CAP
    except Exception:  # pragma: no cover - defensive
        import traceback

        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    raise SystemExit(main())
