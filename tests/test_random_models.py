"""Seeded random small models: config round-trip and sampled containment.

`random_model` draws everything from one SplitMix64 stream: 1-4 tasks with
random precedence (some edges carry data), 1-3 processors and sometimes a
bus, one of the four policies with a random mapping and priorities, and a
periodic, jitter or uncertain generator with up to 3 arrivals.
`random_bus_model` draws a second family from its own seed: the same tasks,
policies and generators on 2-3 processors with PE0 sometimes off and two
buses declared out of id order with different rates, every edge routed over
a random bus with its data in a random local or offchip memory.  The formal
engine analyses every arrival (instance_bound = count), so the bounds cover
each sampled instance.  Draws that `validate_model` rejects are skipped.
"""

from fractions import Fraction

import pytest

from taskdse import config
from taskdse.generators import Generator
from taskdse.metrics import MetricSpec, extract
from taskdse.model import (
    COMMUNICATION,
    LOCAL,
    OFFCHIP,
    DataEdge,
    Deployment,
    Interconnect,
    JobType,
    Memory,
    Platform,
    Processor,
    SystemModel,
    TaskSpec,
    WorkInterval,
    validate_model,
)
from taskdse.reachability import reach_bounds
from taskdse.rng import SplitMix64
from taskdse.simulator import CompiledModel, simulate
from taskdse.timebase import to_ticks

SEED = 20240611
BUS_SEED = 7
MODELS = 150
RUNS = 50
POLICIES = ("fifo_global", "fifo_priority_global", "fifo_local", "strict_priority_local")
VARIANTS = ("periodic", "jitter", "uncertain")


def _pick(rng: SplitMix64, lo: int, hi: int) -> int:
    return rng.uniform_ticks(lo, hi)


def _random_tasks(rng: SplitMix64, n_tasks: int) -> tuple[list[TaskSpec], list[DataEdge]]:
    tasks = []
    for i in range(n_tasks):
        lo = _pick(rng, 0, 3)
        tasks.append(TaskSpec(f"t{i}", WorkInterval.of(lo, lo + _pick(rng, 0, 3))))
    edges = [DataEdge(f"t{i}", f"t{j}", _pick(rng, 0, 2))
             for j in range(n_tasks) for i in range(j) if _pick(rng, 0, 1)]
    return tasks, edges


def _processors(n: int) -> list[Processor]:
    f1 = Fraction(1)
    return [Processor(f"PE{i}", [f1], {f1: (0.1, 0.9)}) for i in range(n)]


def _random_system(rng: SplitMix64, tasks, edges, platform: Platform, **routing) -> SystemModel:
    """Draw the policy, a mapping onto the powered-on processors, priorities,
    the queue capacity and the generator, in that order."""
    on = [p.id for p in platform.active_processors()]
    dep = Deployment(
        policy=POLICIES[_pick(rng, 0, 3)],
        mapping={t.id: on[_pick(rng, 0, len(on) - 1)] for t in tasks},
        priorities={t.id: _pick(rng, 1, 4) for t in tasks},
        queue_capacity=_pick(rng, 1, 3),
        **routing,
    )
    count = _pick(rng, 1, 3)
    gen = Generator("job", VARIANTS[_pick(rng, 0, 2)], period=to_ticks(_pick(rng, 0, 8)),
                    jitter=to_ticks(_pick(rng, 0, 3)), count=count)
    return SystemModel([JobType("job", tasks, edges)], platform, [gen], dep, instance_bound=count)


def random_model(rng: SplitMix64) -> SystemModel:
    n_tasks, n_pes = _pick(rng, 1, 4), _pick(rng, 1, 3)
    tasks, edges = _random_tasks(rng, n_tasks)
    ics = [Interconnect("bus", Fraction(1), init_latency=to_ticks(1))] if _pick(rng, 0, 1) else []
    return _random_system(rng, tasks, edges, Platform(_processors(n_pes), interconnects=ics))


def random_bus_model(rng: SplitMix64) -> SystemModel:
    n_tasks, n_pes = _pick(rng, 1, 4), _pick(rng, 2, 3)
    tasks, edges = _random_tasks(rng, n_tasks)
    pes = _processors(n_pes)
    pes[0].initially_on = bool(_pick(rng, 0, 1))
    ics = [Interconnect("busB", Fraction(1), init_latency=to_ticks(1)),
           Interconnect("busA", Fraction(2), init_latency=to_ticks(1))]
    mems = [Memory("dram", OFFCHIP), Memory("sram", LOCAL)]
    routes = {e.key: ics[_pick(rng, 0, 1)].id for e in edges}
    places = {e.key: mems[_pick(rng, 0, 1)].id for e in edges}
    return _random_system(rng, tasks, edges, Platform(pes, mems, ics),
                          edge_interconnect=routes, data_placement=places)


FAMILIES = {"one_bus": (SEED, random_model), "two_buses": (BUS_SEED, random_bus_model)}


def accepted_models(family: str) -> list[SystemModel]:
    seed, draw = FAMILIES[family]
    rng = SplitMix64(seed)
    models = [draw(rng) for _ in range(MODELS)]
    return [m for m in models if not validate_model(m)]


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_enough_random_models_are_accepted(family):
    models = accepted_models(family)
    assert len(models) >= 40
    assert {m.deployment.policy for m in models} == set(POLICIES)
    assert {m.generators[0].variant for m in models} == set(VARIANTS)


def test_two_bus_models_use_each_bus_and_an_off_processor():
    models = accepted_models("two_buses")
    routed = {t.interconnect for m in models for t in CompiledModel(m).tasks
              if t.kind == COMMUNICATION}
    assert routed == {"busA", "busB"}
    assert any(not p.initially_on for m in models for p in m.platform.processors)


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_random_models_round_trip_through_the_config_format(family):
    for m in accepted_models(family):
        assert config.model_hash(config.parse(config.serialize(m))) == config.model_hash(m)


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_random_model_samples_lie_inside_the_formal_bounds(family):
    seed = FAMILIES[family][0]
    checked = 0
    for n, m in enumerate(accepted_models(family)):
        r = reach_bounds(m)
        compiled = CompiledModel(m)
        runs = 0
        for i in range(4 * RUNS):
            t = simulate(m, seed + n, i, compiled=compiled)
            if t.overflow_count:
                continue  # the bounds cover runs without overflow only
            for spec, bound in ((MetricSpec("makespan"), r.makespan),
                                (MetricSpec("job_latency"), r.latency)):
                for key, v in extract(t, spec):
                    assert bound.lo <= v <= bound.hi, (n, i, spec.kind, key, v, bound)
            runs += 1
            if runs == RUNS:
                break
        checked += runs
    assert checked >= 40 * RUNS
