"""Command-line driver: verbs, exit codes, output files."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

from taskdse import cli, config, fixtures
from taskdse.generators import Generator
from taskdse.model import DataEdge, Deployment, TaskSpec, WorkInterval, time_horizon, validate_model
from taskdse.reachability import reach_bounds
from taskdse.timebase import MAX_TICKS, format_ticks, to_ticks as U
from test_parity import two_jobs

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
CHAIN2 = str(pathlib.Path(__file__).resolve().parent.parent / "configs" / "chain2.json")
BAND16 = str(pathlib.Path(__file__).resolve().parent.parent / "configs" / "band16.json")
MAPPING = str(pathlib.Path(__file__).resolve().parent.parent / "configs" / "mapping_stream.json")
POWER = str(pathlib.Path(__file__).resolve().parent.parent / "configs" / "power_sweep.json")


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


@pytest.mark.parametrize("verb", ["check", "verify"])
def test_repeated_task_id_is_a_config_error(tmp_path, capsys, verb):
    """A second task "a" in one tasks object must not silently replace the
    first: every verb exits 2 and names the key."""
    p = tmp_path / "twice.json"
    p.write_text(pathlib.Path(CHAIN2).read_text().replace(
        '"tasks": {', '"tasks": {"a": {"work": ["5", "5"]},', 1))
    out = ["--out", str(tmp_path / "out")] if verb == "verify" else []
    assert cli.main([verb, str(p)] + out) == 2
    assert "key 'a' repeated" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("section, value", [
    ("edges", [["a", "b"]]), ("edges", 5), ("edges", "s"), ("edges", True),
    ("interconnects", 5), ("memories", True),
], ids=["edges-list", "edges-number", "edges-string", "edges-bool",
        "interconnects-number", "memories-bool"])
def test_section_of_the_wrong_type_is_a_config_error(tmp_path, capsys, section, value):
    """An optional section of the wrong type names its field and exits 2."""
    data = json.loads(pathlib.Path(CHAIN2).read_text())
    if section == "edges":
        data["application"]["jobs"][0]["edges"] = value
        field, expected = "application.jobs[0].edges", "expected an object"
    else:
        data["platform"][section] = value
        field, expected = f"platform.{section}", "expected a list"
    p = tmp_path / "bad_section.json"
    p.write_text(json.dumps(data))
    assert cli.main(["check", str(p)]) == 2
    assert f"{field}: {expected}" in capsys.readouterr().err


def test_no_powered_processor_is_a_config_error(tmp_path, capsys):
    """With its only processor off, no task of chain2 could ever run."""
    data = json.loads(pathlib.Path(CHAIN2).read_text())
    data["platform"]["processors"][0]["on"] = False
    p = tmp_path / "all_off.json"
    p.write_text(json.dumps(data))
    assert cli.main(["check", str(p)]) == 2
    assert "NoPoweredProcessor{platform}" in capsys.readouterr().err


@pytest.mark.parametrize("verb", [["simulate", "--runs", "2", "--seed", "1"],
                                  ["sweep", "--axis", "period=10,20", "--runs", "2", "--seed", "1"]])
def test_huge_finite_watts_are_a_config_error(tmp_path, capsys, verb):
    """1e308 W passes check, but every run's energy overflows to inf: the
    campaign verbs exit 2 naming the metric, and write nothing."""
    data = json.loads(pathlib.Path(CHAIN2).read_text())
    data["platform"]["processors"][0]["power"] = {"1": [1e308, 0.9]}
    p = tmp_path / "huge_watts.json"
    p.write_text(json.dumps(data))
    assert cli.main(["check", str(p)]) == 0
    out = tmp_path / "out"
    assert cli.main(verb[:1] + [str(p)] + verb[1:] + ["--out", str(out)]) == 2
    assert "error: energy: " in capsys.readouterr().err
    assert not out.exists()


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


VERBS = [["check"], ["verify"], ["simulate", "--runs", "2", "--seed", "1"]]


def _chain2_with(tmp_path, edit) -> str:
    """chain2's config after `edit` changes its parsed JSON in place."""
    data = json.loads(pathlib.Path(CHAIN2).read_text())
    edit(data)
    p = tmp_path / "edited.json"
    p.write_text(json.dumps(data))
    return str(p)


def _run(verb, path, tmp_path) -> int:
    argv = verb[:1] + [path] + verb[1:]
    if verb[0] != "check":
        argv += ["--out", str(tmp_path / "out")]
    return cli.main(argv)


@pytest.mark.parametrize("ic, named", [(None, "MissingInterconnect{chain.a}"),
                                       ("nope", "UnknownInterconnect{nope}: communication task chain.a")])
@pytest.mark.parametrize("verb", VERBS)
def test_communication_task_needs_a_declared_interconnect(tmp_path, capsys, verb, ic, named):
    """A task declared as a communication task occupies an interconnect, so
    it must name one the platform declares."""
    def edit(data):
        task = data["application"]["jobs"][0]["tasks"]["a"]
        task["kind"] = "communication"
        if ic is not None:
            task["interconnect"] = ic

    assert _run(verb, _chain2_with(tmp_path, edit), tmp_path) == 2
    assert named in capsys.readouterr().err


@pytest.mark.parametrize("hi", ["3e12", "1e13"])
@pytest.mark.parametrize("verb", VERBS)
def test_times_past_the_zone_encoding_are_a_config_error(tmp_path, capsys, verb, hi):
    """A duration of 3e12 units reads as "no bound" in a zone and 1e13
    overflows it, so the model is refused before any engine runs."""
    def edit(data):
        data["application"]["jobs"][0]["tasks"]["b"]["work"] = ["3", hi]

    assert _run(verb, _chain2_with(tmp_path, edit), tmp_path) == 2
    assert "TimeOutOfRange{model}" in capsys.readouterr().err


def _bus_watts(watts):
    def edit(data):
        data["platform"]["interconnects"] = [{"name": "bus", "rate": "1", "power": watts}]
    return edit


def _pe_watts(watts):
    def edit(data):
        data["platform"]["processors"][0]["power"]["1"] = watts
    return edit


# (edit, what the error names); json.dumps writes a float NaN or inf as the
# bare literal NaN or Infinity, which Python's json also reads
WATTS_CASES = {
    "string nan": (_pe_watts(["nan", 0.9]), "NonFiniteWatts{PE0}"),
    "string infinity": (_pe_watts([0.1, "Infinity"]), "NonFiniteWatts{PE0}"),
    "literal nan": (_pe_watts([float("nan"), 0.9]), "NonFiniteWatts{PE0}"),
    "literal -infinity": (_pe_watts([0.1, float("-inf")]), "NonFiniteWatts{PE0}"),
    "interconnect": (_bus_watts([0.1, float("inf")]), "NonFiniteWatts{bus}"),
    "boolean": (_pe_watts([True, False]), "watts must be numbers, not true or false"),
    "huge integer": (_pe_watts([10 ** 400, 0.9]), "watts must be numbers"),
}


@pytest.mark.parametrize("case", sorted(WATTS_CASES))
@pytest.mark.parametrize("verb", [["check"], ["simulate", "--runs", "2", "--seed", "1"],
                                  ["sweep", "--axis", "period=100,200", "--runs", "2", "--seed", "1"]])
def test_watts_that_are_no_finite_number_are_a_config_error(tmp_path, capsys, verb, case):
    """NaN or infinite watts would make every energy figure NaN or
    infinite, and true/false are no watts, so each verb exits 2 and writes
    nothing."""
    edit, named = WATTS_CASES[case]
    assert _run(verb, _chain2_with(tmp_path, edit), tmp_path) == 2
    assert named in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_simulate_rejects_a_horizon_past_the_time_range(tmp_path, capsys):
    assert cli.main(["simulate", CHAIN2, "--runs", "1", "--seed", "1",
                     "--horizon", "1e400", "--out", str(tmp_path)]) == 2
    assert f"--horizon: horizon must be positive and below {MAX_TICKS} ticks" in capsys.readouterr().err


def test_a_model_just_below_the_time_range_verifies_exactly(tmp_path, capsys):
    """chain2's bound on its time horizon is one period plus one tick plus
    its longest durations; with b's longest duration set so that the
    horizon is MAX_TICKS - 1, the makespan's upper bound stays finite and
    exact: a's 2 units plus b's."""
    b_hi = MAX_TICKS - 1 - (U(100) + 1 + U(2))

    def edit(data):
        data["application"]["jobs"][0]["tasks"]["b"]["work"] = ["3", format_ticks(b_hi)]

    path = _chain2_with(tmp_path, edit)
    m = config.load(path)
    assert validate_model(m) == [] and time_horizon(m) == MAX_TICKS - 1
    assert cli.main(["verify", path, "--out", str(tmp_path / "v")]) == 0
    assert f"makespan [4, {format_ticks(U(2) + b_hi)}]" in capsys.readouterr().out
    r = reach_bounds(m)
    assert (r.makespan.lo, r.makespan.hi) == (U(4), U(2) + b_hi)
    assert _run(VERBS[2], path, tmp_path) == 0


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


@pytest.mark.parametrize("low, high, count, ok", [
    (2, 2, 3, False), (1, 1, 2, False), (3, 3, 4, False), (1, 2, 3, True), (2, 2, 2, True)])
def test_bibounded_stream_must_exist(tmp_path, capsys, low, high, count, ok):
    """With min_events = max_events < count, arrival max+1 must come both
    more than a window and at most a window after arrival 1: `check` exits
    2.  The other models reach a terminal state at K = count."""
    m = fixtures.chain2()
    m.generators = [Generator("chain", "bibounded_var", window=U(5), min_events=low,
                              max_events=high, count=count)]
    m.instance_bound = count
    path = tmp_path / "bibounded.json"
    path.write_text(config.dumps(m))
    if ok:
        assert cli.main(["check", str(path)]) == 0
        assert reach_bounds(m).terminal_reached
    else:
        assert cli.main(["check", str(path)]) == 2
        assert f"EmptyStream{{chain}}: min = max = {high} < count {count}" in capsys.readouterr().err


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


def test_a_metric_without_samples_is_written_as_null(tmp_path):
    """At capacity 1 with both periods 1, every alpha arrival of two_jobs
    overflows, so job_latency[alpha] has no sample.  report.json stays
    valid JSON: each statistic of that metric is null, not a bare NaN."""
    m = two_jobs("fifo_local")
    m.deployment.queue_capacity = 1
    for g in m.generators:
        g.period = U(1)
    path = tmp_path / "full.json"
    path.write_text(config.dumps(m))
    out = tmp_path / "s"
    assert cli.main(["simulate", str(path), "--runs", "3", "--seed", "1", "--out", str(out)]) == 0

    def no_constant(name):
        raise AssertionError(f"report.json holds {name}")

    rep = json.loads((out / "report.json").read_text(), parse_constant=no_constant)
    alpha = rep["metrics"]["job_latency[alpha]"]
    assert alpha == {"count": 0, "histogram": [], "max": None, "mean": None, "median": None,
                     "min": None, "p95": None, "std": None}
    assert rep["metrics"]["job_latency[beta]"]["count"] == 3


def test_json_text_refuses_a_float_json_lacks():
    with pytest.raises(ValueError):
        cli._json_text({"mean": float("nan")})


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


@pytest.mark.parametrize("field, edit", [
    ("power", lambda pe: pe["power"].update({"1.0": [5, 5]})),
    ("frequencies", lambda pe: pe.update(frequencies=["1", 1.0])),
])
@pytest.mark.parametrize("verb", VERBS + [["sweep", "--axis", "period=100,200", "--runs", "1", "--seed", "1"]])
def test_a_frequency_given_twice_is_a_config_error(tmp_path, capsys, verb, field, edit):
    """Two spellings of one frequency, "1" and "1.0", would let the later
    power entry silently replace the first, so every verb exits 2 and names
    the field and both spellings."""
    path = _chain2_with(tmp_path, lambda data: edit(data["platform"]["processors"][0]))
    assert _run(verb, path, tmp_path) == 2
    err = capsys.readouterr().err
    assert f"processors[0].{field}: frequency " in err and '"1"' in err and "1.0" in err
    assert not (tmp_path / "out").exists()


SWEEP = ["sweep", "--axis", "period=100,200", "--runs", "1", "--seed", "1"]


@pytest.mark.parametrize("verb", [["verify"], ["simulate", "--runs", "1", "--seed", "1"],
                                  SWEEP, SWEEP + ["--workers", "2"]],
                         ids=["verify", "simulate", "sweep", "sweep-workers-2"])
def test_an_out_naming_a_file_is_a_config_error(tmp_path, capsys, verb):
    """An --out naming an existing file cannot hold the outputs: the verb
    exits 2, a sweep worker's error included, names the path it could not
    write, and leaves the file as it was."""
    blocker = tmp_path / "out"
    blocker.write_text("keep\n")
    assert _run(verb, CHAIN2, tmp_path) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {blocker}{os.sep}") and "cannot write" in err
    assert blocker.read_text() == "keep\n"


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


def test_sweep_pool_gets_no_more_workers_than_points(tmp_path, monkeypatch):
    """`--workers 8` over 2 points asks the pool for 2 workers, and over 1
    point builds no pool.  The fake pool maps in-process and starts none."""
    sizes = []

    class FakePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", FakePool)
    argv = ["sweep", CHAIN2, "--runs", "1", "--seed", "1", "--workers", "8"]
    assert cli.main(argv + ["--axis", "period=100,200", "--out", str(tmp_path / "two")]) == 0
    assert sizes == [2]
    assert cli.main(argv + ["--axis", "period=100", "--out", str(tmp_path / "one")]) == 0
    assert sizes == [2]
    assert (tmp_path / "one" / "period=100" / "report.json").exists()


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


@pytest.mark.parametrize("workers", ["1", "2"])
def test_sweep_checks_every_point_before_running_any(tmp_path, capsys, workers):
    """The strict points of this sweep lack priorities; the sweep fails
    before any point runs, so it writes no point directory and no table."""
    out = tmp_path / "w"
    assert cli.main(["sweep", str(pathlib.Path(CHAIN2).with_name("indep2.json")),
                     "--axis", "period=50,100,200,300",
                     "--axis", "policy=fifo_local,strict_priority_local",
                     "--runs", "3", "--seed", "5", "--workers", workers, "--out", str(out)]) == 2
    assert "period=50,policy=strict_priority_local: MissingPriority" in capsys.readouterr().err
    assert not out.exists()


def test_pinned_frequency_under_a_global_queue_needs_every_processor(tmp_path, capsys):
    """two_jobs pins z to 2, which only PE0 offers.  A global queue may run
    z on PE1, so under fifo_global `check` exits 2 naming PE1; under
    fifo_local z runs on PE0 only and the model passes."""
    path = tmp_path / "global.json"
    path.write_text(config.dumps(two_jobs("fifo_global")))
    assert cli.main(["check", str(path)]) == 2
    assert "UnknownFrequency{z}: 2 not offered by PE1" in capsys.readouterr().err
    path.write_text(config.dumps(two_jobs("fifo_local")))
    assert cli.main(["check", str(path)]) == 0


@pytest.mark.parametrize("workers", ["1", "2"])
def test_sweep_to_a_global_queue_checks_pinned_frequencies(tmp_path, capsys, workers):
    """Swept to fifo_global, two_jobs could time z at 2 on PE1: the sweep
    exits 2 before any point runs."""
    path = tmp_path / "two_jobs.json"
    path.write_text(config.dumps(two_jobs("fifo_local")))
    out = tmp_path / "w"
    assert cli.main(["sweep", str(path), "--axis", "policy=fifo_local,fifo_global",
                     "--runs", "2", "--seed", "1", "--workers", workers, "--out", str(out)]) == 2
    assert "policy=fifo_global: UnknownFrequency{z}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["verify", CHAIN2, "--k", "0"], "--k: instance bound must be >= 1"),
    (["simulate", CHAIN2, "--runs", "0", "--seed", "1"], "--runs: need at least one run"),
    (["sweep", CHAIN2, "--axis", "period=100", "--runs", "0", "--seed", "1"],
     "--runs: need at least one run"),
    (["sweep", CHAIN2, "--axis", "period=100", "--runs", "1", "--seed", "1", "--workers", "0"],
     "--workers must be >= 1"),
    (["sweep", CHAIN2, "--axis", "policy", "--runs", "1", "--seed", "1"],
     "--axis wants name=v1,v2,..., got 'policy'"),
    (["sweep", CHAIN2, "--axis", "period=0", "--runs", "1", "--seed", "1"],
     "period must be positive"),
    (["sweep", CHAIN2, "--axis", "policy=bogus", "--runs", "1", "--seed", "1"],
     "unknown policy 'bogus'"),
    (["sweep", POWER, "--axis", "processors=0", "--runs", "1", "--seed", "1"],
     "processors=0 outside 1..16"),
    (["sweep", POWER, "--axis", "processors=17", "--runs", "1", "--seed", "1"],
     "processors=17 outside 1..16"),
    (["sweep", POWER, "--axis", "frequency=300", "--runs", "1", "--seed", "1"],
     "frequency=300: FrequencyPowerGap{PE0}: no power entry for 300"),
], ids=["verify-k0", "simulate-runs0", "sweep-runs0", "sweep-workers0", "axis-no-equals",
        "period0", "policy-bogus", "processors0", "processors17", "frequency300"])
def test_bad_argument_is_a_config_error(tmp_path, capsys, argv, message):
    """Each bad argument exits 2 with its message and writes nothing."""
    out = tmp_path / "out"
    assert cli.main(argv + ["--out", str(out)]) == 2
    assert f"error: {message}\n" in capsys.readouterr().err
    assert not out.exists()


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


@pytest.mark.parametrize("axis, said", [("frequency=400,800/2", "repeats 800/2 (as 400)"),
                                        ("frequency=400,400.0,600", "repeats 400.0 (as 400)"),
                                        ("processors=1,01", "repeats 01 (as 1)"),
                                        ("period=100,200,100.0,100", "repeats 100.0 (as 100), 100;")])
def test_sweep_value_spelled_twice_rejected(tmp_path, capsys, axis, said):
    """Two spellings of one value would run one model as two points."""
    power = str(pathlib.Path(CHAIN2).parent / "power_sweep.json")
    assert cli.main(["sweep", power, "--axis", axis,
                     "--runs", "1", "--seed", "2", "--out", str(tmp_path / "w")]) == 2
    assert said in capsys.readouterr().err
    assert not (tmp_path / "w").exists()


@pytest.mark.parametrize("workers", ["1", "2"])
def test_sweep_value_with_a_slash_writes_one_flat_directory(tmp_path, capsys, workers):
    power = str(pathlib.Path(CHAIN2).parent / "power_sweep.json")
    out = tmp_path / "w"
    assert cli.main(["sweep", power, "--axis", "frequency=400,1200/2", "--workers", workers,
                     "--runs", "1", "--seed", "2", "--out", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == [
        "frequency=1200%2F2", "frequency=400", "tradeoff.csv"]
    assert (out / "frequency=1200%2F2" / "report.json").is_file()
    rows = (out / "tradeoff.csv").read_text().splitlines()
    assert [r.split(",")[0] for r in rows[1:]] == ["400", "1200/2"]
    assert "frequency=1200/2: mean_makespan" in capsys.readouterr().out


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
