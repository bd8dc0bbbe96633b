"""Model construction, duration windows, and structural validation."""

from fractions import Fraction

import pytest

from taskdse.model import (
    DataEdge,
    Deployment,
    Interconnect,
    JobType,
    Platform,
    Processor,
    SystemModel,
    TaskSpec,
    TimeInterval,
    WorkInterval,
    comm_duration,
    duration_interval,
    validate_model,
)
from taskdse.generators import Generator
from taskdse import fixtures


def _pe(pid="PE0", freqs=(1,)):
    fs = [Fraction(f) for f in freqs]
    return Processor(pid, fs, {f: (0.1, 0.9) for f in fs})


def _single_job_model(job, policy="fifo_global", mapping=None, pes=1):
    plat = Platform([_pe(f"PE{i}") for i in range(pes)])
    dep = Deployment(policy=policy, mapping=mapping or {})
    gen = Generator(job.name, "periodic", period=100_000_000, count=1)
    return SystemModel([job], plat, [gen], dep)


def test_duration_interval_exact_at_unit_frequency():
    w = WorkInterval.of(1, 2)
    assert duration_interval(w, 1) == TimeInterval.of(1, 2)


def test_duration_interval_rounds_outward():
    # 1 cycle at f=3 is 1/3 unit: floor to 333333, ceil to 333334 ticks
    w = WorkInterval.of(1, 1)
    d = duration_interval(w, 3)
    assert (d.lo, d.hi) == (333_333, 333_334)


def test_duration_interval_scales_inverse_frequency():
    w = WorkInterval.of(82, 118)
    half = duration_interval(w, Fraction(1, 2))
    assert half == TimeInterval.of(164, 236)


def test_comm_duration_point_window():
    ic = Interconnect("bus", rate=Fraction(4), init_latency=500_000)
    d = comm_duration(2, ic)
    # 2 bytes at 4 bytes/unit = 0.5 units + 0.5 latency
    assert d.lo == d.hi == 1_000_000


def test_comm_duration_rounds_half_up():
    ic = Interconnect("bus", rate=Fraction(3))
    d = comm_duration(1, ic)  # 1/3 unit = 333333.33.. ticks
    assert d.lo == d.hi == 333_333
    ic2 = Interconnect("bus", rate=Fraction(2_000_000))
    d2 = comm_duration(1, ic2)  # exactly half a tick rounds up
    assert d2.lo == d2.hi == 1


def test_fixtures_validate_clean():
    for m in (
        fixtures.chain2(),
        fixtures.indep2(),
        fixtures.diamond(),
        fixtures.stream_chain(),
        fixtures.band16(4),
        fixtures.blockwise(4),
        fixtures.mapping_stream(),
        fixtures.power_sweep_model(),
    ):
        assert validate_model(m) == []


def test_cycle_detected():
    job = JobType(
        "loop",
        [TaskSpec("a", WorkInterval.of(1, 1)), TaskSpec("b", WorkInterval.of(1, 1))],
        [DataEdge("a", "b"), DataEdge("b", "a")],
    )
    rules = {v.rule for v in validate_model(_single_job_model(job))}
    assert "CyclicPrecedence" in rules


def test_duplicate_task_id():
    job = JobType("dup", [TaskSpec("a", WorkInterval.of(1, 1))] * 2)
    rules = {v.rule for v in validate_model(_single_job_model(job))}
    assert "DuplicateTaskId" in rules


def test_duplicate_edge():
    """An edge given twice would enable its target twice."""
    job = JobType(
        "twice",
        [TaskSpec("a", WorkInterval.of(1, 1)), TaskSpec("b", WorkInterval.of(1, 1))],
        [DataEdge("a", "b"), DataEdge("a", "b")],
    )
    got = [v for v in validate_model(_single_job_model(job)) if v.rule == "DuplicateEdge"]
    assert [v.subject for v in got] == ["twice.a->b"]


def test_unknown_edge_endpoint():
    job = JobType(
        "bad",
        [TaskSpec("a", WorkInterval.of(1, 1))],
        [DataEdge("a", "ghost")],
    )
    rules = {v.rule for v in validate_model(_single_job_model(job))}
    assert "UnknownTaskRef" in rules


def test_work_interval_order():
    job = JobType("w", [TaskSpec("a", WorkInterval(5, 2))])
    rules = {v.rule for v in validate_model(_single_job_model(job))}
    assert "IntervalOrder" in rules


def test_local_policy_requires_mapping():
    job = JobType("solo", [TaskSpec("a", WorkInterval.of(1, 1))])
    m = _single_job_model(job, policy="fifo_local", mapping={})
    rules = {v.rule for v in validate_model(m)}
    assert "MappingIncomplete" in rules
    m_ok = _single_job_model(job, policy="fifo_local", mapping={"a": "PE0"})
    assert validate_model(m_ok) == []


def test_mapping_to_unknown_processor():
    job = JobType("solo", [TaskSpec("a", WorkInterval.of(1, 1))])
    m = _single_job_model(job, policy="fifo_local", mapping={"a": "PE9"})
    assert "UnknownProcessor" in {v.rule for v in validate_model(m)}


def test_violation_str_mentions_rule_and_subject():
    job = JobType("dup", [TaskSpec("a", WorkInterval.of(1, 1))] * 2)
    v = validate_model(_single_job_model(job))[0]
    s = str(v)
    assert v.rule in s and v.subject in s
