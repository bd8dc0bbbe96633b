"""Seeded random small models: config round-trip and sampled containment.

`random_model` draws everything from one SplitMix64 stream: 1-4 tasks with
random precedence (some edges carry data), 1-3 processors and sometimes a
bus, one of the four policies with a random mapping and priorities, and a
periodic, jitter or uncertain generator with up to 3 arrivals.  The formal
engine analyses every arrival (instance_bound = count), so the bounds cover
each sampled instance.  Draws that `validate_model` rejects are skipped.
"""

from fractions import Fraction

from taskdse import config
from taskdse.generators import Generator
from taskdse.metrics import MetricSpec, extract
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
    validate_model,
)
from taskdse.reachability import reach_bounds
from taskdse.rng import SplitMix64
from taskdse.simulator import CompiledModel, simulate
from taskdse.timebase import to_ticks

SEED = 20240611
MODELS = 150
RUNS = 50
POLICIES = ("fifo_global", "fifo_priority_global", "fifo_local", "strict_priority_local")
VARIANTS = ("periodic", "jitter", "uncertain")


def _pick(rng: SplitMix64, lo: int, hi: int) -> int:
    return rng.uniform_ticks(lo, hi)


def random_model(rng: SplitMix64) -> SystemModel:
    n_tasks, n_pes = _pick(rng, 1, 4), _pick(rng, 1, 3)
    tasks = []
    for i in range(n_tasks):
        lo = _pick(rng, 0, 3)
        tasks.append(TaskSpec(f"t{i}", WorkInterval.of(lo, lo + _pick(rng, 0, 3))))
    edges = [DataEdge(f"t{i}", f"t{j}", _pick(rng, 0, 2))
             for j in range(n_tasks) for i in range(j) if _pick(rng, 0, 1)]
    f1 = Fraction(1)
    pes = [Processor(f"PE{i}", [f1], {f1: (0.1, 0.9)}) for i in range(n_pes)]
    ics = [Interconnect("bus", f1, init_latency=to_ticks(1))] if _pick(rng, 0, 1) else []
    dep = Deployment(
        policy=POLICIES[_pick(rng, 0, 3)],
        mapping={t.id: f"PE{_pick(rng, 0, n_pes - 1)}" for t in tasks},
        priorities={t.id: _pick(rng, 1, 4) for t in tasks},
        queue_capacity=_pick(rng, 1, 3),
    )
    count = _pick(rng, 1, 3)
    gen = Generator("job", VARIANTS[_pick(rng, 0, 2)], period=to_ticks(_pick(rng, 0, 8)),
                    jitter=to_ticks(_pick(rng, 0, 3)), count=count)
    return SystemModel([JobType("job", tasks, edges)], Platform(pes, interconnects=ics),
                       [gen], dep, instance_bound=count)


def accepted_models() -> list[SystemModel]:
    rng = SplitMix64(SEED)
    models = [random_model(rng) for _ in range(MODELS)]
    return [m for m in models if not validate_model(m)]


def test_enough_random_models_are_accepted():
    models = accepted_models()
    assert len(models) >= 40
    assert {m.deployment.policy for m in models} == set(POLICIES)
    assert {m.generators[0].variant for m in models} == set(VARIANTS)


def test_random_models_round_trip_through_the_config_format():
    for m in accepted_models():
        assert config.model_hash(config.parse(config.serialize(m))) == config.model_hash(m)


def test_random_model_samples_lie_inside_the_formal_bounds():
    checked = 0
    for n, m in enumerate(accepted_models()):
        r = reach_bounds(m)
        compiled = CompiledModel(m)
        runs = 0
        for i in range(4 * RUNS):
            t = simulate(m, SEED + n, i, compiled=compiled)
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
