"""The benchmark's workloads: generated inputs, one timed operation, checks.

Inputs come from `taskdse.fixtures` and reach the program only as config
files written with `config.dumps`.  Each workload runs one operation at a
time in a closed loop: the formal workloads call `reach_bounds` through the
public API, the others call the `taskdse` command line in-process.  The
expected values in the checks are derived here from the fixtures'
parameters, never read back from the engines.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
from fractions import Fraction
from pathlib import Path

from taskdse import cli, config, fixtures, reachability
from taskdse.timebase import to_ticks


def run_cli(*argv: str) -> int:
    """`taskdse <argv>` in this process, its stdout discarded."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(list(argv))


def op_seed(seed: int, index: int) -> int:
    """Campaign seed of the run's operation `index`.

    The cost of a simulated run depends on the durations it draws (queues
    grow near saturation), so each operation draws new runs: a run's median
    then covers hundreds of draws instead of repeating one set.
    """
    return seed * 100_000 + index


def _write_model(path: Path, model) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(config.dumps(model), encoding="utf-8")
    return path


class Workload:
    """One benchmark workload.

    `items_per_op` counts the units an operation completes (verify calls,
    simulated runs or sweep points); times and counts are reported per item.
    """

    name = ""
    item = ""
    items_per_op = 1

    def prepare(self, seed: int, workdir: Path) -> list[Path]:
        """Write the inputs for `seed` under `workdir`; returns config paths."""
        raise NotImplementedError

    def warmup(self) -> None:
        """Run the operation's code paths once, untimed: a small model for the
        formal search, a single-run campaign or sweep otherwise."""
        raise NotImplementedError

    def op(self, index: int):
        """Run operation `index` of this run; its inputs depend only on the
        seed and the index."""
        raise NotImplementedError

    def check(self, output) -> list[str]:
        """Problems found in one operation's output; empty when correct."""
        raise NotImplementedError

    def exact_counts(self, output) -> dict:
        """Counts the program reports that must repeat exactly."""
        return {}


def band_makespan(processors: int) -> tuple[int, int]:
    """band16: 16 blocks of [82, 118] units, ceil(16/P) of them per PE in series."""
    per_pe = math.ceil(16 / processors)
    return to_ticks(per_pe * 82), to_ticks(per_pe * 118)


# mapping_stream: four [150, 2100] tasks pinned to each of four processors, so
# one job takes at least 4 x 150 under any policy and at most 4 x 2100 alone
MAPPING_BOUNDS = (to_ticks(4 * 150), to_ticks(4 * 2100))


class FormalSearch(Workload):
    """One exact `reach_bounds` search per operation."""

    item = "verify call"

    def __init__(self, name: str, model, makespan: tuple[int, int],
                 latency: tuple[int, int] | None = None):
        self.name = name
        self.source = model
        self.makespan = makespan
        self.latency = latency
        self.model = None

    def prepare(self, seed, workdir):
        path = _write_model(workdir / "model.json", self.source)
        self.model = config.load(str(path))
        return [path]

    def warmup(self):
        reachability.reach_bounds(fixtures.diamond())

    def op(self, index):
        return reachability.reach_bounds(self.model)

    def check(self, result):
        problems = []
        for what, want, got in (("makespan", self.makespan, result.makespan),
                                ("latency", self.latency, result.latency)):
            if want is None:
                continue
            pair = None if got is None else (got.lo, got.hi)
            if pair != tuple(want):
                problems.append(f"{self.name}: {what} {pair} != expected {tuple(want)}")
        return problems

    def exact_counts(self, result):
        return {"configs": result.states, "merges": result.merges}


POLICIES = ("fifo_local", "fifo_global")


class Campaign(Workload):
    """`taskdse simulate` under fixed mapping, then under global FIFO."""

    name = "campaign_mapping"
    item = "simulated run"

    def __init__(self, period=4500, count: int = 60, runs: int = 10):
        self.sources = {p: fixtures.mapping_stream(period=period, policy=p, count=count)
                        for p in POLICIES}
        self.runs = runs
        self.items_per_op = runs * len(POLICIES)

    def prepare(self, seed, workdir):
        self.seed = seed
        self.out = workdir / "out"
        self.paths = {p: _write_model(workdir / f"{p}.json", m) for p, m in self.sources.items()}
        return list(self.paths.values())

    def _simulate(self, runs: int, seed: int) -> dict[str, int]:
        return {p: run_cli("simulate", str(path), "--runs", str(runs), "--seed", str(seed),
                           "--out", str(self.out / p))
                for p, path in self.paths.items()}

    def warmup(self):
        self._simulate(1, self.seed)

    def op(self, index):
        return self._simulate(self.runs, op_seed(self.seed, index))

    def check(self, codes):
        problems = [f"simulate {p} exited {c}" for p, c in codes.items() if c]
        if problems:
            return problems
        floor = Fraction(MAPPING_BOUNDS[0], 10**6)
        means = {}
        for p in codes:
            with open(self.out / p / "samples.csv", newline="", encoding="utf-8") as fh:
                lat = [Fraction(row["value"]) for row in csv.DictReader(fh)
                       if row["metric"].startswith("job_latency")]
            if len(lat) < self.runs:
                problems.append(f"{p}: {len(lat)} latency samples for {self.runs} runs")
                continue
            low = [v for v in lat if v < floor]
            if low:
                problems.append(f"{p}: {len(low)} latency samples below {floor}, e.g. {float(low[0])}")
            means[p] = sum(lat) / len(lat)
        if len(means) == 2 and not means["fifo_global"] < means["fifo_local"]:
            problems.append(f"fifo_global mean latency {float(means['fifo_global']):.1f} "
                            f">= fifo_local {float(means['fifo_local']):.1f}")
        return problems


class Sweep(Workload):
    """`taskdse sweep` over processor count x frequency of the power model."""

    name = "sweep_power"
    item = "sweep point"

    def __init__(self, processors=("1", "2", "4", "8", "16"),
                 frequencies=("200", "400", "600"), runs: int = 60, workers: int = 2):
        self.processors = processors
        self.frequencies = frequencies
        self.runs = runs
        self.workers = workers
        self.items_per_op = len(processors) * len(frequencies)

    def prepare(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir
        self.path = _write_model(workdir / "power_sweep.json", fixtures.power_sweep_model())
        return [self.path]

    def _sweep(self, runs: int, seed: int, workers: int, out: Path) -> tuple[int, Path]:
        code = run_cli("sweep", str(self.path),
                       "--axis", "processors=" + ",".join(self.processors),
                       "--axis", "frequency=" + ",".join(self.frequencies),
                       "--runs", str(runs), "--seed", str(seed),
                       "--workers", str(workers), "--out", str(out))
        return code, out

    def warmup(self):
        self._sweep(1, self.seed, self.workers, self.workdir / "warmup")

    def op(self, index, workers: int | None = None, out: str = "out"):
        w = self.workers if workers is None else workers
        return self._sweep(self.runs, op_seed(self.seed, index), w, self.workdir / out)

    def check(self, output):
        code, out = output
        if code:
            return [f"sweep exited {code}"]
        with open(out / "tradeoff.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        if len(rows) != self.items_per_op:
            return [f"tradeoff.csv has {len(rows)} rows, expected {self.items_per_op}"]
        span = {(int(r["processors"]), int(r["frequency"])): float(r["mean_makespan"])
                for r in rows}
        problems = []
        ps = sorted(int(p) for p in self.processors)
        fs = sorted(int(f) for f in self.frequencies)
        for f in fs:
            col = [span[(p, f)] for p in ps]
            if any(b > a for a, b in zip(col, col[1:])):
                problems.append(f"mean_makespan rises with processors at f={f}: {col}")
        for p in ps:
            row = [span[(p, f)] for f in fs]
            if any(b > a for a, b in zip(row, row[1:])):
                problems.append(f"mean_makespan rises with frequency at P={p}: {row}")
        return problems


def registry() -> dict[str, Workload]:
    """The benchmark's workloads at their full sizes, by name."""
    return {
        "formal_band": FormalSearch("formal_band", fixtures.band16(12), band_makespan(12)),
        "formal_mapping": FormalSearch("formal_mapping", fixtures.mapping_stream(),
                                       MAPPING_BOUNDS, MAPPING_BOUNDS),
        "campaign_mapping": Campaign(),
        "sweep_power": Sweep(),
    }
