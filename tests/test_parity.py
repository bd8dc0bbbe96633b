"""Output parity: the CLI keeps writing the exact bytes it wrote before.

DIGESTS pins the sha256 of every output tree below.  Both engines run the
priority policies through the shared strict-priority scan and enabling
rules, which no bundled config exercises, so two fixtures also run under
strict_priority_local and fifo_priority_global, where sampled runs must also
lie inside the formal bounds.  Print the current digests with

    PYTHONPATH=src python tests/test_parity.py
"""

import contextlib
import hashlib
import io
import pathlib

import pytest

from taskdse import cli, config, fixtures
from taskdse.reachability import reach_bounds
from taskdse.simulator import run_campaign

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


def digests(workdir: pathlib.Path) -> dict:
    got = {}
    for name, argv in cases(workdir).items():
        out = workdir / name
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv + ["--out", str(out)]) == 0, name
        got[name] = tree_digest(out)
    return got


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
    'verify-band16': 'c9e6f1488c8583e1c342cf472c14ab4261da66f037ab1baf7993083441360e81',
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


@pytest.mark.parametrize("name", sorted(priority_variants()))
def test_priority_variant_samples_inside_formal_bounds(name):
    m = priority_variants()[name]
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


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        for name, digest in sorted(digests(pathlib.Path(tmp)).items()):
            print(f"    {name!r}: {digest!r},")
