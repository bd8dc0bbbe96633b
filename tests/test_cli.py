"""Command-line driver: verbs, exit codes, output files."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

from taskdse import cli, config, fixtures
from taskdse.model import DataEdge, Deployment, TaskSpec, WorkInterval
from test_parity import two_jobs

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
CHAIN2 = str(pathlib.Path(__file__).resolve().parent.parent / "configs" / "chain2.json")
BAND16 = str(pathlib.Path(__file__).resolve().parent.parent / "configs" / "band16.json")
MAPPING = str(pathlib.Path(__file__).resolve().parent.parent / "configs" / "mapping_stream.json")


def test_check_ok(capsys):
    assert cli.main(["check", CHAIN2]) == 0
    out = capsys.readouterr().out
    assert "ok f924b3b54b20" in out


def test_check_missing_file_is_config_error(capsys):
    assert cli.main(["check", "/does/not/exist.json"]) == 2
    assert "error" in capsys.readouterr().err


def test_check_schema_error(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text('{"application": {}}')
    assert cli.main(["check", str(p)]) == 2


def test_check_semantic_violations_listed(tmp_path, capsys):
    data = json.loads(pathlib.Path(CHAIN2).read_text())
    data["deployment"]["policy"] = "round_robin"
    p = tmp_path / "bad_policy.json"
    p.write_text(json.dumps(data))
    assert cli.main(["check", str(p)]) == 2
    assert "UnknownPolicy" in capsys.readouterr().err


def _split_chain_without_interconnect(tmp_path) -> str:
    # a->b carries data across two processors, but nothing can move it
    m = fixtures.chain2()
    m.platform = fixtures.indep2().platform  # two processors, no interconnect
    m.job_types[0].edges = [DataEdge("a", "b", 64)]
    m.deployment = Deployment(policy="fifo_local", mapping={"a": "PE0", "b": "PE1"})
    p = tmp_path / "no_interconnect.json"
    p.write_text(config.dumps(m))
    return str(p)


@pytest.mark.parametrize("verb", [["check"], ["verify"], ["simulate", "--runs", "1", "--seed", "1"]])
def test_missing_interconnect_is_a_config_error(tmp_path, capsys, verb):
    path = _split_chain_without_interconnect(tmp_path)
    argv = verb[:1] + [path] + verb[1:]
    if verb[0] != "check":
        argv += ["--out", str(tmp_path / "out")]
    assert cli.main(argv) == 2
    assert "MissingInterconnect{chain.a->b}" in capsys.readouterr().err


@pytest.mark.parametrize("verb", [["check"], ["verify"], ["simulate", "--runs", "200", "--seed", "1"]])
def test_explicit_arrivals_off_the_period_are_a_config_error(tmp_path, capsys, verb):
    # chain2's period is 100; a second arrival at 1 would put sampled
    # makespans (8.6-11.3) outside the formal bounds [104, 106]
    data = json.loads(pathlib.Path(CHAIN2).read_text())
    data["generators"][0].update(count=2, arrivals=["0", "1"])
    data["analysis"]["instance_bound"] = 2
    p = tmp_path / "early.json"
    p.write_text(json.dumps(data))
    argv = verb[:1] + [str(p)] + verb[1:]
    if verb[0] != "check":
        argv += ["--out", str(tmp_path / "out")]
    assert cli.main(argv) == 2
    assert "BadExplicitArrivals{chain}: arrival 2 breaks the periodic rule" in capsys.readouterr().err


def _strict_deadlocks() -> dict:
    """strict_priority_local deployments where a processor waits forever."""
    chain = fixtures.chain2()  # b needs a, but PE0 holds a back for b
    chain.deployment = Deployment(policy="strict_priority_local", mapping={"a": "PE0", "b": "PE0"},
                                  priorities={"a": 1, "b": 2})
    # PE0 waits for a, a for b; PE1 waits for c, c for d; d waits on PE0
    cross = fixtures.indep2()
    cross.job_types[0].tasks += [TaskSpec("c", WorkInterval.of(1, 1)), TaskSpec("d", WorkInterval.of(1, 1))]
    cross.job_types[0].edges = [DataEdge("b", "a"), DataEdge("d", "c")]
    cross.deployment = Deployment(policy="strict_priority_local",
                                  mapping={"a": "PE0", "d": "PE0", "c": "PE1", "b": "PE1"},
                                  priorities={"a": 2, "d": 1, "c": 2, "b": 1})
    return {"same_pe": chain, "across_pes": cross}


@pytest.mark.parametrize("case", sorted(_strict_deadlocks()))
@pytest.mark.parametrize("verb", [["check"], ["verify"], ["simulate", "--runs", "1", "--seed", "1"]])
def test_strict_priority_deadlock_is_a_config_error(tmp_path, capsys, case, verb):
    path = tmp_path / f"{case}.json"
    path.write_text(config.dumps(_strict_deadlocks()[case]))
    argv = verb[:1] + [str(path)] + verb[1:]
    if verb[0] != "check":
        argv += ["--out", str(tmp_path / "out")]
    assert cli.main(argv) == 2
    assert "PriorityDeadlock{" in capsys.readouterr().err


def test_strict_priority_without_deadlock_passes_check(tmp_path):
    from test_parity import priority_variants

    path = tmp_path / "diamond-strict.json"
    path.write_text(config.dumps(priority_variants()["diamond-strict_priority_local"]))
    assert cli.main(["check", str(path)]) == 0


@pytest.mark.parametrize("verb", [["check"], ["verify"], ["simulate", "--runs", "1", "--seed", "1"]])
def test_unknown_task_in_priorities_is_a_config_error(tmp_path, capsys, configs_dir, verb):
    # a typo for m2 would silently leave m2 at level 0 under fifo_priority_global
    data = json.loads((configs_dir / "diamond.json").read_text())
    data["deployment"].update(policy="fifo_priority_global",
                              priorities={"s": 4, "m1": 3, "mm2": 2, "j": 1})
    p = tmp_path / "typo.json"
    p.write_text(json.dumps(data))
    argv = verb[:1] + [str(p)] + verb[1:]
    if verb[0] != "check":
        argv += ["--out", str(tmp_path / "out")]
    assert cli.main(argv) == 2
    assert "UnknownTaskRef{mm2}: priorities" in capsys.readouterr().err


def test_verify_writes_report(tmp_path, capsys):
    out = tmp_path / "v"
    assert cli.main(["verify", CHAIN2, "--out", str(out)]) == 0
    rep = json.loads((out / "report.json").read_text())
    assert rep["engine"] == "zones"
    assert rep["makespan"] == {"lo": "4", "hi": "6"}
    assert rep["job_latency"] == {"lo": "4", "hi": "6"}
    assert rep["terminal_reached"] is True
    assert rep["overflow_reachable"] is False
    assert rep["model"] == "f924b3b54b20"
    text = capsys.readouterr().out
    assert "makespan" in text and "[4, 6]" in text


def test_verify_prints_classes_and_mirrored_completions(tmp_path, capsys):
    """band16.json (4 processors) reduces by PE1-PE3 and skips 6 mirrored
    completions; chain2 has no class.  No count goes into report.json."""
    assert cli.main(["verify", BAND16, "--out", str(tmp_path / "b")]) == 0
    assert "symmetry: processor classes 3; mirrored completions skipped 6\n" in capsys.readouterr().out
    report = (tmp_path / "b" / "report.json").read_text()
    assert "mirrored" not in report and "classes" not in report
    assert cli.main(["verify", CHAIN2, "--out", str(tmp_path / "c")]) == 0
    assert "symmetry: none\n" in capsys.readouterr().out


def test_verify_prints_the_instances_its_bounds_cover(tmp_path, capsys):
    """mapping_stream declares 60 instances and verifies the first; with
    two generators there is one entry per generator.  report.json keeps
    only `instance_bound`."""
    assert cli.main(["verify", MAPPING, "--out", str(tmp_path / "m")]) == 0
    assert "\nbounds cover instances 1..1 of 60 per generator\n" in capsys.readouterr().out
    assert "cover" not in (tmp_path / "m" / "report.json").read_text()
    path = tmp_path / "two.json"
    path.write_text(config.dumps(two_jobs("fifo_local")))
    assert cli.main(["verify", str(path), "--k", "2", "--out", str(tmp_path / "t")]) == 0
    assert ("\nbounds cover instances per generator: 1..2 of 3 (beta), 1..2 of 3 (alpha)\n"
            in capsys.readouterr().out)


def test_verify_clock_budget_exit_code(tmp_path, capsys):
    assert cli.main(["verify", BAND16, "--clock-budget", "3", "--out", str(tmp_path)]) == 3
    assert "clock budget" in capsys.readouterr().err


@pytest.mark.parametrize("budget", ["0", "-3"])
def test_verify_clock_budget_below_one_is_a_config_error(tmp_path, capsys, budget):
    assert cli.main(["verify", CHAIN2, "--clock-budget", budget, "--out", str(tmp_path)]) == 2
    assert "clock budget must be >= 1" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


def test_python_dash_m_runs_the_cli():
    env = dict(os.environ, PYTHONPATH=str(SRC) + os.pathsep + os.environ.get("PYTHONPATH", ""))
    got = subprocess.run([sys.executable, "-m", "taskdse", "check", CHAIN2],
                         capture_output=True, text=True, env=env, timeout=60)
    assert got.returncode == 0, got.stderr
    assert got.stdout.startswith("ok ")


def test_verify_k_truncates(tmp_path):
    out = tmp_path / "k1"
    assert cli.main(["verify", MAPPING, "--k", "1", "--out", str(out)]) == 0
    rep = json.loads((out / "report.json").read_text())
    assert rep["makespan"] == {"lo": "600", "hi": "8400"}
    assert rep["instance_bound"] == 1


def test_simulate_writes_samples_and_report(tmp_path):
    out = tmp_path / "s"
    assert cli.main(["simulate", CHAIN2, "--runs", "5", "--seed", "9", "--out", str(out)]) == 0
    samples = (out / "samples.csv").read_text()
    lines = samples.splitlines()
    assert lines[0] == "run,metric,key,value"
    mk = [l for l in lines if ",makespan," in l]
    assert len(mk) == 5
    run, metric, key, value = mk[0].split(",")
    assert run == "0" and key == "" and 4.0 <= float(value) <= 6.0

    rep = json.loads((out / "report.json").read_text())
    assert rep["engine"] == "simulation"
    assert rep["runs"] == 5 and rep["seed"] == 9
    assert rep["rng"] == "splitmix64"
    assert rep["metrics"]["makespan"]["count"] == 5
    assert (out / "hist-makespan.csv").exists()
    assert not list(out.glob("trace-*.txt"))


@pytest.mark.parametrize("horizon", ["0", "-5", "abc", "0.0000001", "1/0"])
def test_simulate_rejects_bad_horizon(tmp_path, capsys, horizon):
    assert cli.main(["simulate", CHAIN2, "--runs", "1", "--seed", "1",
                     "--horizon", horizon, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "--horizon" in err
    if horizon == "1/0":
        assert "denominator is zero" in err


def test_simulate_short_horizon_clips_utilization(tmp_path):
    # every chain2 run is busy from 0 past 4; a horizon of 1 sees it busy throughout
    out = tmp_path / "h"
    assert cli.main(["simulate", CHAIN2, "--runs", "5", "--seed", "7",
                     "--horizon", "1", "--out", str(out)]) == 0
    rep = json.loads((out / "report.json").read_text())
    util = rep["metrics"]["utilization[PE0]"]
    assert util["min"] == util["max"] == 1.0
    # idle static power is never charged: 1 unit busy at 0.1 + 0.9 W
    assert rep["metrics"]["energy"]["max"] == pytest.approx(1.0)


def test_simulate_traces_flag(tmp_path):
    out = tmp_path / "t"
    assert cli.main(["simulate", CHAIN2, "--runs", "2", "--seed", "7",
                     "--traces", "--out", str(out)]) == 0
    t0 = (out / "trace-0000.txt").read_text()
    assert t0.startswith("# seed 7\n# run 0\n# model f924b3b54b20\n# rng splitmix64\n")
    assert (out / "trace-0001.txt").exists()


def test_simulate_deterministic_across_invocations(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert cli.main(["simulate", CHAIN2, "--runs", "3", "--seed", "4",
                         "--traces", "--out", str(out)]) == 0
    for name in ("samples.csv", "report.json", "trace-0002.txt"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_outdir_env_fallback(tmp_path, monkeypatch):
    monkeypatch.setenv("TASKDSE_OUT", str(tmp_path / "envout"))
    assert cli.main(["simulate", CHAIN2, "--runs", "1", "--seed", "1"]) == 0
    assert (tmp_path / "envout" / "samples.csv").exists()


def test_sweep_axes_and_tradeoff(tmp_path):
    out = tmp_path / "w"
    assert cli.main(["sweep", CHAIN2, "--axis", "period=100,200",
                     "--runs", "4", "--seed", "3", "--out", str(out)]) == 0
    rows = (out / "tradeoff.csv").read_text().splitlines()
    assert rows[0] == "period,mean_makespan,mean_latency,mean_energy,mean_power,overflow_runs"
    assert len(rows) == 3
    assert (out / "period=100" / "samples.csv").exists()
    assert (out / "period=200" / "report.json").exists()


def test_sweep_worker_count_invariant(tmp_path):
    a, b = tmp_path / "w1", tmp_path / "w2"
    argv = ["sweep", CHAIN2, "--axis", "period=100,200,300",
            "--runs", "3", "--seed", "5"]
    assert cli.main(argv + ["--out", str(a), "--workers", "1"]) == 0
    assert cli.main(argv + ["--out", str(b), "--workers", "3"]) == 0
    files_a = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
    files_b = sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file())
    assert files_a == files_b
    for rel in files_a:
        assert (a / rel).read_bytes() == (b / rel).read_bytes(), rel


def test_sweep_rejects_unknown_axis(tmp_path, capsys):
    assert cli.main(["sweep", CHAIN2, "--axis", "voltage=1,2",
                     "--runs", "1", "--seed", "1", "--out", str(tmp_path)]) == 2
    assert "axis" in capsys.readouterr().err


def test_sweep_processors_axis_needs_global_policy(tmp_path, capsys):
    # blockwise pins tasks to processors; shrinking the platform is rejected
    blockwise = str(pathlib.Path(CHAIN2).parent / "blockwise.json")
    assert cli.main(["sweep", blockwise, "--axis", "processors=1,2",
                     "--runs", "1", "--seed", "1", "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("workers", ["1", "2"])  # 2: the error crosses the process pool
@pytest.mark.parametrize("axis", ["processors=abc", "frequency=abc", "frequency=1/0",
                                  "period=abc", "period=1/0"])
def test_sweep_malformed_axis_value_is_a_config_error(tmp_path, capsys, axis, workers):
    assert cli.main(["sweep", CHAIN2, "--axis", axis, "--workers", workers,
                     "--runs", "1", "--seed", "1", "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "error:" in err
    if axis.endswith("1/0"):
        assert "denominator is zero" in err


def test_sweep_duplicate_axis_rejected(tmp_path):
    assert cli.main(["sweep", CHAIN2, "--axis", "period=100", "--axis", "period=200",
                     "--runs", "1", "--seed", "1", "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("workers", ["1", "2"])
def test_sweep_repeated_axis_value_rejected(tmp_path, capsys, workers):
    """Two points with one value would share, and race for, one directory."""
    assert cli.main(["sweep", CHAIN2, "--axis", "period=100,100", "--workers", workers,
                     "--runs", "3", "--seed", "5", "--out", str(tmp_path / "w")]) == 2
    assert "repeats 100" in capsys.readouterr().err
    assert not (tmp_path / "w").exists()


@pytest.mark.parametrize("workers", ["1", "2"])
def test_sweep_value_with_a_slash_writes_one_flat_directory(tmp_path, capsys, workers):
    power = str(pathlib.Path(CHAIN2).parent / "power_sweep.json")
    out = tmp_path / "w"
    assert cli.main(["sweep", power, "--axis", "frequency=400,800/2", "--workers", workers,
                     "--runs", "1", "--seed", "2", "--out", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == [
        "frequency=400", "frequency=800%2F2", "tradeoff.csv"]
    assert (out / "frequency=800%2F2" / "report.json").is_file()
    rows = (out / "tradeoff.csv").read_text().splitlines()
    assert [r.split(",")[0] for r in rows[1:]] == ["400", "800/2"]
    assert "frequency=800/2: mean_makespan" in capsys.readouterr().out


def test_sweep_processors_and_frequency(tmp_path):
    power = str(pathlib.Path(CHAIN2).parent / "power_sweep.json")
    out = tmp_path / "pf"
    assert cli.main(["sweep", power, "--axis", "processors=1,2",
                     "--axis", "frequency=200,400",
                     "--runs", "2", "--seed", "11", "--out", str(out)]) == 0
    rows = (out / "tradeoff.csv").read_text().splitlines()
    assert rows[0].startswith("processors,frequency,")
    assert len(rows) == 5
    assert (out / "processors=1,frequency=200" / "report.json").exists()
