#!/usr/bin/env python3
"""taskdse benchmark: formal search, simulation campaign and sweep.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all            # every workload, both modes

Run from the root of a taskdse checkout; the program is imported from
`src/`.  One caller runs one operation at a time (a closed loop) for about
`--seconds` seconds.  `--trace 0` reports the end-to-end metrics of
BENCHMARK.json, with each operation timed between two blocks of yardstick
calls (yardstick.py) so that `op_rel` is steady on a host whose speed
drifts; `--trace 1` runs the same operations untraced and then traced, and
reports the per-layer metrics.  Every operation's output is
checked; a failed check counts in `failed` and makes the exit code 1.

The last line of stdout is the result, one JSON object; the line before it
holds the details: environment, sample counts and quartiles behind each
timing, the median wall time per item `op_s`, and the workload-specific
names (`verify_s`, `sim_runs_per_s`, `sweep_points_per_s`, `fail_rate`).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import numpy

import yardstick
from tracer import Tracer, layer_metrics, percentile

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"

SETUP_REPS = 7  # fresh interpreters per run; setup_s is their median
YARDSTICK_SHARE = 0.25  # yardstick time after each operation, as a share of its time
FIRST_BLOCK_S = 0.5  # yardstick time before the first operation

# one import plus load, validate and hash of every input, in a new process.
# numpy is imported before the clock starts: its import is not taskdse's
# work, and on shared hosts it switches between about 0.06 s and 0.15 s for
# minutes at a time, which would swamp the rest of set-up.
SETUP_PROBE = """
import sys, time
import numpy
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import taskdse
from taskdse import config
for path in sys.argv[2:]:
    model = config.load(path)
    if taskdse.validate_model(model):
        sys.exit(path + ": model does not validate")
    config.model_hash(model)
print(time.perf_counter() - t0)
"""

ITEM_RATES = {  # per item kind: the workload-specific name of op_s, as reported
    "verify call": ("verify_s", "s", lambda op_s: op_s),
    "simulated run": ("sim_runs_per_s", "1/s", lambda op_s: 1 / op_s),
    "sweep point": ("sweep_points_per_s", "1/s", lambda op_s: 1 / op_s),
}


class Tally:
    """Attempted and failed operations, with the first few problems."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            for p in problems:
                if len(self.problems) < 10:
                    self.problems.append(p)
                    print(f"check failed: {p}", file=sys.stderr)

    def attempt(self, wl, **kwargs):
        """Time one operation and check it; returns (seconds, output or None)."""
        t0 = perf_counter()
        try:
            out = wl.op(**kwargs)
        except Exception as e:  # a crashing operation is a failed operation
            dt = perf_counter() - t0
            traceback.print_exc()
            self.record([f"{wl.name}: {type(e).__name__}: {e}"])
            return dt, None
        dt = perf_counter() - t0
        self.record(wl.check(out))
        return dt, out


def measure(tally: Tally, wl, seconds: float, index: int | None = None,
            **kwargs) -> list[tuple[float, object]]:
    """Operations back to back until the next would end after `seconds`.

    Operation k gets index k, or every operation gets `index` when given.
    """
    done = []
    start = perf_counter()
    while True:
        done.append(tally.attempt(wl, index=len(done) if index is None else index, **kwargs))
        elapsed = perf_counter() - start
        if elapsed + elapsed / len(done) > seconds:
            return done


def setup_seconds(paths: list[Path]) -> float:
    out = subprocess.run([sys.executable, "-c", SETUP_PROBE, str(SRC), *map(str, paths)],
                         capture_output=True, text=True, check=True, timeout=120)
    return float(out.stdout)


def quartiles(values: list[float]) -> dict:
    """Median, quartiles and the highest percentile with >= 10 samples above it."""
    out = {"n": len(values), "median": statistics.median(values)}
    if len(values) >= 2:
        q1, _q2, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3)
    for pct in (99, 95, 90, 75):
        if len(values) * (100 - pct) / 100 >= 10:
            out[f"p{pct}"] = percentile(values, pct)
            break
    return out


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


def git_sha() -> str:
    """HEAD of the checkout when it is a git repository, else 'unknown'."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": len(os.sched_getaffinity(0)), "git_sha": git_sha()}


def measure_rel(tally: Tally, wl, seconds: float) -> tuple[list[float], list[float]]:
    """Operations back to back, each between two yardstick blocks.

    Returns the operations' wall times and the blocks' seconds per call;
    operation k ran between blocks k and k + 1.
    """
    times: list[float] = []
    blocks = [yardstick.block(FIRST_BLOCK_S)]
    start = perf_counter()
    while True:
        dt, _ = tally.attempt(wl, index=len(times))
        times.append(dt)
        blocks.append(yardstick.block(YARDSTICK_SHARE * dt))
        elapsed = perf_counter() - start
        if elapsed + elapsed / len(times) > seconds:
            return times, blocks


def timed_run(wl, tally: Tally, paths, seconds: float, setup_reps: int):
    """End-to-end metrics from untraced operations."""
    setup = [setup_seconds(paths) for _ in range(setup_reps)]
    wl.warmup()
    times, blocks = measure_rel(tally, wl, seconds)
    rel = [dt / ((a + b) / 2) / wl.items_per_op for dt, a, b in zip(times, blocks, blocks[1:])]
    op_s = statistics.median(times) / wl.items_per_op
    name, unit, convert = ITEM_RATES[wl.item]
    metrics = {"setup_s": statistics.median(setup), "op_rel": statistics.median(rel),
               "peak_rss_mb": peak_rss_mb()}
    detail = {
        "samples": {"setup_s": quartiles(setup), "op_wall_s": quartiles(times),
                    "op_rel": quartiles(rel), "yardstick_s": quartiles(blocks)},
        "named": {"op_s": {"value": op_s, "unit": "s", "samples": len(times)},
                  name: {"value": convert(op_s), "unit": unit, "samples": len(times)}},
    }
    return metrics, detail


def traced_run(wl, tally: Tally, paths, seconds: float, setup_reps: int, workdir: Path):
    """Per-layer metrics: untraced operations, then the same operations traced.

    Every operation uses index 0, so traced and untraced operations do the
    same work and the exact counts depend on the seed alone.
    """
    from taskdse import config, model

    tracer = Tracer()
    with tracer:
        for _ in range(setup_reps):
            for path in paths:
                m = config.load(str(path))
                model.validate_model(m)
                config.model_hash(m)
    wl.warmup()
    extra = {}
    detail = {"samples": {}}
    pooled = getattr(wl, "workers", 1) > 1
    if pooled:
        # the sweep alternates its pool with one worker; the traced sweep runs
        # with one worker so every span is recorded in this process
        w2, w1 = [], []
        start = perf_counter()
        while not w2 or perf_counter() - start + statistics.median(w2 + w1) * 2 <= seconds / 2:
            w2.append(tally.attempt(wl, index=0, out="out")[0])
            w1.append(tally.attempt(wl, index=0, workers=1, out="out-w1")[0])
        untraced = w1
        extra["pool_efficiency"] = statistics.median(w1) / statistics.median(w2)
        detail["samples"]["op_wall_s_workers2"] = quartiles(w2)
        with tracer:
            done = measure(tally, wl, seconds / 2, index=0, workers=1, out="out-traced")
        diff = tree_differences(workdir / "out", workdir / "out-traced")
        tally.record([f"traced --workers 1 tree differs from --workers 2: {d}" for d in diff[:3]])
    else:
        untraced = [dt for dt, _ in measure(tally, wl, seconds / 2, index=0)]
        with tracer:
            done = measure(tally, wl, seconds / 2, index=0)
    traced = [dt for dt, _ in done]
    outputs = [out for _, out in done if out is not None]
    if outputs:
        extra.update(wl.exact_counts(outputs[-1]))
    extra["trace_overhead"] = statistics.median(traced) / statistics.median(untraced)
    tracer.save(workdir / "spans.npz")
    metrics = layer_metrics(tracer.summary(), items=len(traced) * wl.items_per_op,
                            untraced_op_s=statistics.median(untraced) / wl.items_per_op,
                            extra=extra)
    detail["samples"].update(op_wall_s_untraced=quartiles(untraced),
                             op_wall_s_traced=quartiles(traced), spans=len(tracer.start))
    return metrics, detail


def tree_differences(a: Path, b: Path) -> list[str]:
    """Relative paths whose bytes differ between two output trees."""
    files = {p.relative_to(a) for p in a.rglob("*") if p.is_file()}
    files |= {p.relative_to(b) for p in b.rglob("*") if p.is_file()}
    return sorted(str(rel) for rel in files
                  if not ((a / rel).is_file() and (b / rel).is_file()
                          and (a / rel).read_bytes() == (b / rel).read_bytes()))


def run_workload(wl, spec: dict, *, seed: int, seconds: float, trace: int,
                 workdir: Path, setup_reps: int = SETUP_REPS) -> tuple[dict, dict]:
    """One benchmark run; returns (result object, details)."""
    workdir.mkdir(parents=True, exist_ok=True)
    paths = wl.prepare(seed, workdir)
    tally = Tally()
    if trace:
        values, detail = traced_run(wl, tally, paths, seconds, setup_reps, workdir)
        declared = spec["per_layer"]
    else:
        values, detail = timed_run(wl, tally, paths, seconds, setup_reps)
        declared = spec["end_to_end"]
    if set(values) != {m["name"] for m in declared}:
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {sorted(values)}")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
    }
    detail = {"workload": wl.name, "seed": seed, "trace": trace, "seconds": seconds,
              "item": wl.item, "items_per_op": wl.items_per_op, "env": environment(),
              "fail_rate": tally.failed / tally.attempted, "problems": tally.problems, **detail}
    return result, detail


def run_all(args) -> int:
    """Every workload untraced and traced, each in its own process."""
    from workloads import registry

    ok = True
    for name in registry():
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__)), "--workload", name, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(trace)],
                capture_output=True, text=True, timeout=900)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode or len(lines) < 2:
                ok = False
                print(f"{name} trace={trace}: exit {proc.returncode}")
                continue
            result, detail = json.loads(lines[-1]), json.loads(lines[-2])
            print(f"{name} trace={trace}: attempted {result['attempted']} failed "
                  f"{result['failed']} fail_rate {detail['fail_rate']}")
            for mname, m in result["metrics"].items():
                print(f"  {mname:40s} {m['value']:.6g} {m['unit']}")
            for mname, m in detail.get("named", {}).items():
                print(f"  {mname:40s} {m['value']:.6g} {m['unit']}")
    return 0 if ok else 1


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=None,
                   help="measuring time per run (default: run_seconds of BENCHMARK.json)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as e:
        print(f"error: cannot read BENCHMARK.json: {e}", file=sys.stderr)
        return 2
    if not (SRC / "taskdse" / "__init__.py").is_file():
        print(f"error: no taskdse sources under {SRC}; run from a taskdse checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if args.workload == "all":
        return run_all(args)

    from workloads import registry

    workloads = registry()
    if args.workload not in workloads:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads)} or all", file=sys.stderr)
        return 2
    result, detail = run_workload(workloads[args.workload], spec, seed=args.seed,
                                  seconds=args.seconds, trace=args.trace,
                                  workdir=WORK / args.workload)
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
