"""Model construction, duration windows, and structural validation."""

from fractions import Fraction

import pytest

from taskdse.model import (
    DataEdge,
    Deployment,
    Interconnect,
    JobType,
    Memory,
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


def _routed_chain2() -> SystemModel:
    """chain2 with a memory, an interconnect, and both of its edge's routes."""
    m = fixtures.chain2()
    m.platform.memories = [Memory("M0")]
    m.platform.interconnects = [Interconnect("bus", rate=Fraction(1))]
    m.deployment.data_placement = {("a", "b"): "M0"}
    m.deployment.edge_interconnect = {("a", "b"): "bus"}
    return m


def _second_job(m):
    m.job_types.append(JobType("other", [TaskSpec("x", WorkInterval.of(1, 1))]))


def _off_processor(m):
    m.platform.processors.append(_pe("PE1"))
    m.platform.processors[1].initially_on = False
    m.deployment.policy = "fifo_local"
    m.deployment.mapping = {"a": "PE1", "b": "PE0"}


def _generator(m, variant, **fields):
    m.generators[0] = Generator("chain", variant, **fields)


# one break per rule, keyed by the rule's name: (change to the model, subject)
BROKEN = {
    "DuplicateComponentId": (lambda m: setattr(m.platform.memories[0], "id", "PE0"), "PE0"),
    "DuplicateJobType": (lambda m: m.job_types.append(m.job_types[0]), "chain"),
    "NegativeVolume": (lambda m: setattr(m.job_types[0], "edges", [DataEdge("a", "b", -1)]),
                       "chain.a->b"),
    "EmptyFrequencySet": (lambda m: setattr(m.platform.processors[0], "frequencies", []), "PE0"),
    "NonPositiveFrequency": (lambda m: setattr(m.platform.processors[0], "frequencies", [Fraction(0)]),
                             "PE0"),
    "FrequencyPowerGap": (lambda m: m.platform.processors[0].frequencies.append(Fraction(2)), "PE0"),
    "BadLocality": (lambda m: setattr(m.platform.memories[0], "locality", "nearby"), "M0"),
    "NegativeAccessTime": (lambda m: setattr(m.platform.memories[0], "access_time", -1), "M0"),
    "NonPositiveRate": (lambda m: setattr(m.platform.interconnects[0], "rate", Fraction(0)), "bus"),
    "NegativeLatency": (lambda m: setattr(m.platform.interconnects[0], "init_latency", -1), "bus"),
    "BadQueueCapacity": (lambda m: setattr(m.deployment, "queue_capacity", 0), "0"),
    "MappedToOffProcessor": (_off_processor, "PE1"),
    "UnknownTaskRef-mapping": (lambda m: m.deployment.mapping.update(zz="PE0"), "zz"),
    "UnknownTaskRef-task_frequency": (lambda m: m.deployment.task_frequency.update(zz=Fraction(1)),
                                      "zz"),
    "UnknownEdgeRef-placement": (lambda m: m.deployment.data_placement.update({("b", "a"): "M0"}),
                                 "b->a"),
    "UnknownEdgeRef-route": (lambda m: m.deployment.edge_interconnect.update({("b", "a"): "bus"}),
                             "b->a"),
    "UnknownMemory": (lambda m: m.deployment.data_placement.update({("a", "b"): "M9"}), "M9"),
    "UnknownInterconnect-route": (lambda m: m.deployment.edge_interconnect.update({("a", "b"): "bus9"}),
                                  "bus9"),
    "UnknownJobType": (lambda m: setattr(m.generators[0], "job_type", "zz"), "zz"),
    "MissingGenerator": (_second_job, "other"),
    "DuplicateGenerator": (lambda m: m.generators.append(m.generators[0]), "chain"),
    "BadInstanceBound": (lambda m: setattr(m, "instance_bound", 0), "0"),
    "BadInstanceCount": (lambda m: setattr(m.generators[0], "count", 0), "chain"),
    "BadJitter": (lambda m: _generator(m, "jitter", period=10, jitter=-1), "chain"),
    "BadWindow": (lambda m: _generator(m, "bounded_var", window=0, max_events=1), "chain"),
    "BadEventBound-max_events": (lambda m: _generator(m, "bounded_var", window=10, max_events=0),
                                 "chain"),
    "BadExplicitArrivals-count": (lambda m: _generator(m, "periodic", period=10, count=2, arrivals=[0]),
                                  "chain"),
}


@pytest.mark.parametrize("case", sorted(BROKEN))
def test_each_rule_reports_its_break(case):
    """Each break of a valid model commits the rule it names, on its subject."""
    m = _routed_chain2()
    assert validate_model(m) == []
    brk, subject = BROKEN[case]
    brk(m)
    assert (case.partition("-")[0], subject) in {(v.rule, v.subject) for v in validate_model(m)}
