"""Output parity: the CLI keeps writing the exact bytes it wrote before.

DIGESTS pins the sha256 of every output tree below.  Both engines run the
priority policies through the shared strict-priority scan and enabling
rules, which no bundled config exercises, so two fixtures also run under
strict_priority_local and fifo_priority_global, where sampled runs must also
lie inside the formal bounds.  Every bundled config has a single job type, so
TWO_JOB_DIGESTS pins the outputs of a model with two job types and two
generators the same way.  Print the current digests with

    PYTHONPATH=src python tests/test_parity.py
"""

import contextlib
import hashlib
import io
import pathlib
from fractions import Fraction

import pytest

from taskdse import cli, config, fixtures
from taskdse.generators import Generator
from taskdse.model import (
    DataEdge,
    Deployment,
    Interconnect,
    JobType,
    Platform,
    Processor,
    SystemModel,
    TaskSpec,
    WorkInterval,
)
from taskdse.reachability import reach_bounds
from taskdse.simulator import CompiledModel, run_campaign
from taskdse.timebase import to_ticks

CONFIGS = pathlib.Path(__file__).resolve().parent.parent / "configs"
BUNDLED = ("band16", "blockwise", "chain2", "diamond", "indep2", "mapping_stream",
           "power_sweep", "stream_chain")
FAST_VERIFY = ("band16", "chain2", "diamond", "indep2", "stream_chain")
SIMULATE = ["--runs", "3", "--seed", "7", "--traces"]


def priority_variants() -> dict:
    """stream_chain and diamond under both priority policies."""
    out = {}
    for policy in ("strict_priority_local", "fifo_priority_global"):
        m = fixtures.stream_chain()
        m.deployment.policy = policy
        m.deployment.priorities = {"t1": 2, "t2": 1}
        out[f"stream_chain-{policy}"] = m
        m = fixtures.diamond()
        m.deployment.policy = policy
        m.deployment.mapping = {"s": "PE0", "m1": "PE0", "m2": "PE1", "j": "PE0"}
        m.deployment.priorities = {"s": 4, "m1": 3, "m2": 2, "j": 1}
        out[f"diamond-{policy}"] = m
    return out


def two_jobs(policy: str) -> SystemModel:
    """Jobs beta and alpha, declared in that order, with a generator each.

    Task ids are declared out of sorted order (z before y, n before m), and
    beta's edge z->y crosses processors, so the transfer task dma.z.y that
    the compiler appends sorts before beta's computation tasks.  z is pinned
    to PE0's higher frequency.
    """
    f1, f2 = Fraction(1), Fraction(2)
    pes = [Processor("PE0", [f1, f2], {f1: (0.1, 0.9), f2: (0.2, 2.0)}),
           Processor("PE1", [f1], {f1: (0.1, 0.9)})]
    beta = JobType("beta", [TaskSpec("z", WorkInterval.of(2, 3)), TaskSpec("y", WorkInterval.of(1, 2)),
                            TaskSpec("x", WorkInterval.of(1, 1))],
                   [DataEdge("z", "y", 64), DataEdge("z", "x")])
    alpha = JobType("alpha", [TaskSpec("n", WorkInterval.of(1, 2)), TaskSpec("m", WorkInterval.of(2, 2))],
                    [DataEdge("n", "m")])
    gens = [Generator("beta", "periodic", period=to_ticks(6), count=3),
            Generator("alpha", "periodic", period=to_ticks(4), count=3)]
    dep = Deployment(policy=policy,
                     mapping={"z": "PE0", "x": "PE0", "m": "PE0", "y": "PE1", "n": "PE1"},
                     priorities={"z": 3, "m": 2, "x": 1, "y": 2, "n": 1}, task_frequency={"z": f2})
    platform = Platform(pes, interconnects=[Interconnect("bus", rate=Fraction(64))])
    return SystemModel([beta, alpha], platform, gens, dep, instance_bound=3)


def tree_digest(root: pathlib.Path) -> str:
    """sha256 over every file's relative path and bytes, in path order."""
    h = hashlib.sha256()
    for p in sorted(root.rglob("*")):
        if p.is_file():
            h.update(p.relative_to(root).as_posix().encode() + b"\0")
            h.update(hashlib.sha256(p.read_bytes()).digest())
    return h.hexdigest()


def cases(workdir: pathlib.Path) -> dict:
    """Case name -> CLI argv whose output tree gets digested."""
    out = {f"simulate-{c}": ["simulate", str(CONFIGS / f"{c}.json")] + SIMULATE for c in BUNDLED}
    out.update({f"verify-{c}": ["verify", str(CONFIGS / f"{c}.json")] for c in FAST_VERIFY})
    for name, m in priority_variants().items():
        path = workdir / f"{name}.json"
        path.write_text(config.dumps(m))
        out[f"simulate-{name}"] = ["simulate", str(path)] + SIMULATE
        out[f"verify-{name}"] = ["verify", str(path)]
    return out


def run_digest(argv: list, out: pathlib.Path) -> str:
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv + ["--out", str(out)]) == 0, argv
    return tree_digest(out)


def digests(workdir: pathlib.Path) -> dict:
    return {name: run_digest(argv, workdir / name) for name, argv in cases(workdir).items()}


DIGESTS = {
    'simulate-band16': '1820e43391cda8fcd6f490e3c873bc2711f4bcd8805881aec8cdf2319cb39460',
    'simulate-blockwise': 'b661afcf93546bdaca1ed08c09d9ae023743a8f00584acd9fc53017b66b1c9f6',
    'simulate-chain2': '3ae19230904778cd55a4b47b1f8be798023e7a8ebaf48b84196e44b7a0325ae9',
    'simulate-diamond': '1b42b46a70c52a5dec0fb6a799df6898c013450e4ad7e32a513967fc9fb9da59',
    'simulate-diamond-fifo_priority_global': 'c5f319b20805e9279acec8226426f0e3dedff0b2258ac06ccac37864ef156f42',
    'simulate-diamond-strict_priority_local': '35dd2c4c9670acbc397b6f080d210f6cc504bfb9267e01cee973e58e0b644485',
    'simulate-indep2': '8c15ebf6de542480f84dcc44b0a5a846c86f82ca9eaadae9c18dd3b06b83f149',
    'simulate-mapping_stream': '2f865135cb79ee5457980f23d5743204d6f6e3ebe499eaee3e3a58d268857542',
    'simulate-power_sweep': 'bb3b004833010c59f5173900956acd4e329328f500c45e22dd658bfaa20f59d4',
    'simulate-stream_chain': '0a955029f5286b851356e2db02d42918bef45ee1fba4a37813ead435a61dcfc4',
    'simulate-stream_chain-fifo_priority_global': '08ec65c5a296db358507a15f867697957f2dc69012653e82955800a378e476df',
    'simulate-stream_chain-strict_priority_local': 'eb70d88645c10b2e5c3e9550463b7c55df9b5210cbbc39945eeeef9ff9687f5b',
    'verify-band16': '59b0b7196caece9aaac72813c980f06568f109aa3c3c7597cf3bda6a9744f054',
    'verify-chain2': 'f98da5eba1f675bfe7562a9378a248dd6524582e12f85bdfc7d1364ed9649577',
    'verify-diamond': '5ac9a99f18aca18ecdccd2d2f42f4c0f9f8d8d1485e827e871ee4a41f864726c',
    'verify-diamond-fifo_priority_global': '9d5cc05bb1791a0150e9d5f35c8ef4dcc6e6c1807c7584de2497f554e4908207',
    'verify-diamond-strict_priority_local': 'ad7bf2a0ab081821ab2ee52e4b161edb95d8532dc7f2d56b1d8efe549366faa5',
    'verify-indep2': '5019a539502ccc0c6a8c973ae24277a8d7acbfe8367f59d4bdd73eec0b52801d',
    'verify-stream_chain': 'bbc2d20fcbd1e8ca92464581b460d64669dddd1df7c77902d78ad4b2911eba94',
    'verify-stream_chain-fifo_priority_global': '5e30c5f2de8b632801c50e9f4491d1d022148a94c6c2526b59b08fcdac817935',
    'verify-stream_chain-strict_priority_local': '4c0a2e655196ad42cc4e1356acba92447c84b65ce5dedafbdf717fe16c9b1d2f',
}


def test_outputs_match_recorded_digests(tmp_path):
    got = digests(tmp_path)
    assert sorted(got) == sorted(DIGESTS)
    for name in sorted(got):
        assert got[name] == DIGESTS[name], name


def assert_samples_inside_formal_bounds(name: str, m: SystemModel):
    r = reach_bounds(m)
    c = run_campaign(m, 300, seed=11)
    makespans = c.values("makespan")
    latencies = [v for label in c.per_run if label.startswith("job_latency")
                 for v in c.values(label)]
    assert len(makespans) == 300 and latencies
    for v in makespans:
        assert r.makespan.lo <= v <= r.makespan.hi, f"{name}: makespan {v} outside"
    for v in latencies:
        assert r.latency.lo <= v <= r.latency.hi, f"{name}: latency {v} outside"


@pytest.mark.parametrize("name", sorted(priority_variants()))
def test_priority_variant_samples_inside_formal_bounds(name):
    assert_samples_inside_formal_bounds(name, priority_variants()[name])


# output trees of two_jobs under each policy, cases "<verb>-<policy>"
TWO_JOB_DIGESTS = {
    'simulate-fifo_local': '8b4eea8bc6e9d0527fabe0aef173e706b8f9c85fc1399ad368c1e098d0d564c1',
    'simulate-strict_priority_local': '77d8cb25f1b30b424e494866c9cd8db2f9db668e030feebf9e18f714aa721e48',
    'verify-fifo_local': '112f67de99ec1237dc73dcc9ec7791828fed5e19d275b5308d37ba32246cf74a',
    'verify-strict_priority_local': '1c19eb5cbc773a012824f9f521edbfb2eec32650b5e8597674a26a4eca97f779',
}


def test_two_job_types_are_coded_in_job_then_task_order():
    names = CompiledModel(two_jobs("fifo_local")).names
    assert names == [("alpha", "m"), ("alpha", "n"),
                     ("beta", "dma.z.y"), ("beta", "x"), ("beta", "y"), ("beta", "z")]


@pytest.mark.parametrize("policy", ["fifo_local", "strict_priority_local"])
def test_two_job_types_keep_their_outputs(policy, tmp_path):
    path = tmp_path / "two_jobs.json"
    path.write_text(config.dumps(two_jobs(policy)))
    for verb, argv in (("simulate", ["simulate", str(path)] + SIMULATE),
                       ("verify", ["verify", str(path)])):
        got = run_digest(argv, tmp_path / verb)
        assert got == TWO_JOB_DIGESTS[f"{verb}-{policy}"], verb
    trace = (tmp_path / "simulate" / "trace-0000.txt").read_text()
    assert "job=beta task=dma.z.y on=bus" in trace and "job=alpha" in trace


@pytest.mark.parametrize("policy", ["fifo_local", "strict_priority_local"])
def test_two_job_samples_inside_formal_bounds(policy):
    assert_samples_inside_formal_bounds(policy, two_jobs(policy))


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        for name, digest in sorted(digests(pathlib.Path(tmp)).items()):
            print(f"    {name!r}: {digest!r},")
