"""Config parsing, serialization round-trips, and error reporting."""

import json

import pytest

from taskdse import config, fixtures
from taskdse.config import ConfigError
from taskdse.model import time_horizon, validate_model
from taskdse.timebase import MAX_TICKS


def _minimal() -> dict:
    return {
        "application": {
            "jobs": [
                {
                    "name": "j",
                    "tasks": {
                        "a": {"work": [1, 2]},
                        "b": {"work": 3},
                    },
                    "edges": {"a->b": 0},
                }
            ]
        },
        "platform": {
            "processors": [
                {"name": "PE0", "frequencies": [1], "power": {"1": [0.1, 0.9]}}
            ]
        },
        "generators": [
            {"job": "j", "variant": "periodic", "period": 100, "count": 1}
        ],
        "deployment": {"policy": "fifo_global"},
    }


def test_minimal_config_parses():
    m = config.parse(_minimal())
    assert [j.name for j in m.job_types] == ["j"]
    job = m.job_types[0]
    assert {t.id for t in job.tasks} == {"a", "b"}
    b = {t.id: t for t in job.tasks}["b"]
    assert b.work.lo == b.work.hi


def test_roundtrip_is_identity_on_models():
    for build in (
        fixtures.chain2,
        fixtures.indep2,
        fixtures.diamond,
        fixtures.stream_chain,
        lambda: fixtures.band16(4),
        lambda: fixtures.blockwise(4),
        fixtures.mapping_stream,
        fixtures.power_sweep_model,
    ):
        m = build()
        again = config.parse(config.serialize(m))
        assert again == m
        assert config.model_hash(again) == config.model_hash(m)


FROZEN_HASHES = {
    "chain2.json": "f924b3b54b20",
    "indep2.json": "aa993faf704a",
    "diamond.json": "f3a036ebfcd3",
    "stream_chain.json": "d1a6bf632ab8",
    "mapping_stream.json": "8b23fd03825b",
    "band16.json": "37b4adf826f5",
    "blockwise.json": "ead11d58374d",
    "power_sweep.json": "a49623710171",
}


def test_checked_in_configs_load_and_hash(configs_dir):
    found = {p.name for p in configs_dir.glob("*.json")}
    assert found == set(FROZEN_HASHES)
    for name, expect in FROZEN_HASHES.items():
        m = config.load(configs_dir / name)
        assert config.model_hash(m) == expect, name


def test_checked_in_configs_are_canonical_dumps(configs_dir):
    for name in FROZEN_HASHES:
        text = (configs_dir / name).read_text()
        assert text == config.dumps(config.load(configs_dir / name)), name


def test_checked_in_configs_lie_far_inside_the_time_range(configs_dir):
    """mapping_stream reaches furthest: 60 instances, 2.4e12 ticks in all,
    about 4e-6 of MAX_TICKS."""
    for name in FROZEN_HASHES:
        m = config.load(configs_dir / name)
        assert validate_model(m) == [] and time_horizon(m) < MAX_TICKS // 10**5, name


def test_builders_match_checked_in_configs(configs_dir):
    pairs = {
        "chain2.json": fixtures.chain2(),
        "indep2.json": fixtures.indep2(),
        "diamond.json": fixtures.diamond(),
        "stream_chain.json": fixtures.stream_chain(),
        "mapping_stream.json": fixtures.mapping_stream(),
        "power_sweep.json": fixtures.power_sweep_model(),
    }
    for name, built in pairs.items():
        assert config.load(configs_dir / name) == built, name


def test_unknown_key_reports_path():
    data = _minimal()
    data["application"]["jobs"][0]["tasks"]["a"]["wrok"] = 1
    with pytest.raises(ConfigError) as ei:
        config.parse(data)
    assert "application.jobs[0].tasks.a" in str(ei.value)
    assert "wrok" in str(ei.value)


def test_missing_section_reports_path():
    data = _minimal()
    del data["platform"]
    with pytest.raises(ConfigError) as ei:
        config.parse(data)
    assert "platform" in str(ei.value)


def test_bad_edge_key():
    data = _minimal()
    data["application"]["jobs"][0]["edges"] = {"a=>b": 0}
    with pytest.raises(ConfigError) as ei:
        config.parse(data)
    assert "edges" in str(ei.value)


def test_bad_number_reports_field():
    data = _minimal()
    data["generators"][0]["period"] = "often"
    with pytest.raises(ConfigError) as ei:
        config.parse(data)
    assert "period" in str(ei.value)


def test_off_grid_number_rejected():
    data = _minimal()
    data["application"]["jobs"][0]["tasks"]["b"]["work"] = 0.0000001
    with pytest.raises(ConfigError):
        config.parse(data)


def test_unknown_policy_flagged_by_validation():
    data = _minimal()
    data["deployment"]["policy"] = "round_robin"
    m = config.parse(data)  # shape is fine; the rule check owns the name
    assert "UnknownPolicy" in {v.rule for v in validate_model(m)}


def test_load_missing_file(tmp_path):
    with pytest.raises(ConfigError):
        config.load(tmp_path / "nope.json")


def test_load_reports_json_position(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text('{"application": }')
    with pytest.raises(ConfigError) as ei:
        config.load(p)
    assert "line 1" in str(ei.value)


def test_dumps_stable_and_newline_terminated():
    m = fixtures.chain2()
    text = config.dumps(m)
    assert text.endswith("\n")
    assert text == config.dumps(config.parse(json.loads(text)))
    # model order is preserved: application section leads
    assert text.lstrip().startswith('{\n  "application"')


def test_model_hash_tracks_content():
    a = fixtures.mapping_stream(period=7000)
    b = fixtures.mapping_stream(period=6000)
    assert config.model_hash(a) != config.model_hash(b)
    assert len(config.model_hash(a)) == 12


def test_analysis_section_sets_instance_bound():
    data = _minimal()
    data["analysis"] = {"instance_bound": 3}
    assert config.parse(data).instance_bound == 3
