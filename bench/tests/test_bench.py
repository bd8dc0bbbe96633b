"""The benchmark's own checks, on tiny inputs so they run in seconds."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import workloads  # noqa: E402
import yardstick  # noqa: E402
from taskdse import fixtures  # noqa: E402
from taskdse.timebase import to_ticks  # noqa: E402
from tracer import Tracer, hook_targets  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def tiny(name: str) -> workloads.Workload:
    if name == "formal_band":
        return workloads.FormalSearch(name, fixtures.band16(2), workloads.band_makespan(2))
    if name == "formal_mapping":
        pair = (to_ticks(2), to_ticks(4))
        return workloads.FormalSearch(name, fixtures.indep2(), pair, pair)
    if name == "campaign_mapping":
        return workloads.Campaign(count=8, runs=2)
    return workloads.Sweep(processors=("1", "2"), frequencies=("200", "400"), runs=2)


def _run(wl, trace, tmp_path):
    return run.run_workload(wl, SPEC, seed=3, seconds=0.01, trace=trace,
                            workdir=tmp_path, setup_reps=1)


def test_workloads_match_benchmark_json():
    assert list(workloads.registry()) == [w["name"] for w in SPEC["workloads"]]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_emitted_with_unit(name, trace, tmp_path):
    result, detail = _run(tiny(name), trace, tmp_path)
    assert result["correct"], detail["problems"]
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float)) and m["value"] >= 0
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    json.dumps(result)
    json.dumps(detail)


def test_traced_run_restores_every_wrapped_attribute(tmp_path):
    before = [(owner, attr, vars(owner)[attr]) for owner, attr in hook_targets()]
    result, detail = _run(tiny("campaign_mapping"), 1, tmp_path)
    assert detail["samples"]["spans"] > 0
    assert result["metrics"]["simulator.events"]["value"] > 0
    for owner, attr, original in before:
        assert vars(owner)[attr] is original, f"{owner.__name__}.{attr}"


def test_tracer_restores_attributes_after_an_exception():
    before = [(owner, attr, vars(owner)[attr]) for owner, attr in hook_targets()]
    with pytest.raises(ZeroDivisionError):
        with Tracer():
            assert all(vars(o)[a] is not f for o, a, f in before)
            1 / 0
    assert all(vars(o)[a] is f for o, a, f in before)


def test_wrong_expected_bound_fails_the_check(tmp_path):
    lo, hi = workloads.band_makespan(2)
    wl = workloads.FormalSearch("formal_band", fixtures.band16(2), (lo, hi + 1))
    result, detail = _run(wl, 0, tmp_path)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1
    assert detail["fail_rate"] == 1.0
    assert "makespan" in detail["problems"][0]


def test_sweep_check_rejects_a_makespan_that_rises(tmp_path):
    rows = ["processors,frequency,mean_makespan", "1,200,4.0", "1,400,2.0", "2,200,2.0", "2,400,2.5"]
    (tmp_path / "tradeoff.csv").write_text("\n".join(rows) + "\n")
    problems = tiny("sweep_power").check((0, tmp_path))
    assert any("rises with frequency at P=2" in p for p in problems)
    assert any("rises with processors at f=400" in p for p in problems)


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "formal_band",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_yardstick_computes_its_checksum():
    assert yardstick.call() == yardstick.CHECKSUM
    assert 0 < yardstick.block(0.01) < 1
