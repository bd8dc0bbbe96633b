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
`random_symmetric_model` draws a third family with processor symmetry: 2-4
identical processors each run a copy of one random chain or fork (windows
drawn per position) between a source and a sink on PE0, under fifo_local or
under strict_priority_local with equal priorities per position.
Over all three families, no verb exits with an internal error (property a),
merging changes no bound (property c) and no layout outgrows the clock count
checked before the search.  `random_two_generator_model` draws a fourth
family, checked for sampled containment only: two job types, each with its
own generator, so that instance numbers and arrival order differ.
`random_window_model` draws a fifth: 1-3 tasks on 1-3 processors, sometimes
with a bus, under any policy, fed by a bounded_var or bibounded_var
generator whose 1-3 explicit arrivals are drawn inside its windows, so the
zone engine sets and reads the slots of a sliding window.  It is checked
for sampled containment and for bounds that symmetry and merging leave
alone, and kept out of `every_family()`.

REACH_DIGESTS pins every search result over the three families: for each
option set, the sha256 of the `ReachResult` reprs of `every_family()` in
order, so every bound, `instance_latency` and counter of 777 searches is
compared.  A change that simplifies or speeds up the zone search must leave
them as they are; one that changes them must say why, as with `DIGESTS`.
"""

import contextlib
import hashlib
import io
from fractions import Fraction

import pytest

from taskdse import cli, config
from taskdse.generators import Generator, _windows
from taskdse.metrics import MetricSpec, extract
from taskdse.model import (
    COMMUNICATION,
    LOCAL,
    LOCAL_POLICIES,
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
from taskdse.reachability import (
    ARRIVE,
    END,
    MIRROR,
    OVERFLOW,
    Network,
    ReachOptions,
    SearchCapExceeded,
    reach_bounds,
)
from taskdse.rng import SplitMix64, stream_for
from taskdse.simulator import CompiledModel, simulate
from taskdse.timebase import to_ticks
from test_parity import BUNDLED, CONFIGS, two_jobs
from test_reachability import (
    check_antichains,
    check_layouts,
    check_no_permuted_covers,
    final_stores,
    recorded_steps,
)

SEED = 20240611
BUS_SEED = 7
SYMMETRIC_SEED = 11
SYMMETRIC_MODELS = 40
TWO_GENERATOR_SEED = 9
TWO_GENERATOR_MODELS = 120
WINDOW_SEED = 13
WINDOW_MODELS = 100
MODELS = 150
RUNS = 50
SWEEP_EVERY = 4  # property (a) sweeps every fourth model to stay within seconds
POLICIES = ("fifo_global", "fifo_priority_global", "fifo_local", "strict_priority_local")
VARIANTS = ("periodic", "jitter", "uncertain")


def _pick(rng: SplitMix64, lo: int, hi: int) -> int:
    return rng.uniform_ticks(lo, hi)


def _random_tasks(rng: SplitMix64, n_tasks: int,
                  prefix: str = "t") -> tuple[list[TaskSpec], list[DataEdge]]:
    tasks = []
    for i in range(n_tasks):
        lo = _pick(rng, 0, 3)
        tasks.append(TaskSpec(f"{prefix}{i}", WorkInterval.of(lo, lo + _pick(rng, 0, 3))))
    edges = [DataEdge(f"{prefix}{i}", f"{prefix}{j}", _pick(rng, 0, 2))
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


def random_symmetric_model(rng: SplitMix64) -> SystemModel:
    """src on PE0 feeds a copy of one chain or fork on each of PE1..PEn, whose
    ends feed snk on PE0; copy i's task at position k is b{i}_{k}."""
    copies, count = _pick(rng, 2, 4), _pick(rng, 1, 2)
    # at most 12 task instances on the copies keeps the unreduced search small
    n_tasks = _pick(rng, 1, min(3, 12 // (copies * count)))
    fork = n_tasks > 1 and bool(_pick(rng, 0, 1))
    windows = []
    for _k in range(n_tasks):
        lo = _pick(rng, 0, 3)
        windows.append(WorkInterval.of(lo, lo + _pick(rng, 0, 3)))
    # position k's predecessor: the previous position in a chain, the first in a fork
    pred = [None] + [0 if fork else k - 1 for k in range(1, n_tasks)]
    ends = [k for k in range(n_tasks) if k not in pred]
    tasks = [TaskSpec("src", WorkInterval.of(0, _pick(rng, 0, 2))),
             TaskSpec("snk", WorkInterval.of(0, _pick(rng, 0, 2)))]
    edges, mapping = [], {"src": "PE0", "snk": "PE0"}
    # levels are distinct per processor and fall along every edge, so the
    # hold-back scan cannot deadlock
    priorities = {"src": 2, "snk": 1}
    levels = [n_tasks - k for k in range(n_tasks)]
    for i in range(1, copies + 1):
        for k, w in enumerate(windows):
            tid = f"b{i}_{k}"
            tasks.append(TaskSpec(tid, w))
            mapping[tid] = f"PE{i}"
            priorities[tid] = levels[k]
            edges.append(DataEdge("src" if pred[k] is None else f"b{i}_{pred[k]}", tid))
        edges += [DataEdge(f"b{i}_{k}", "snk") for k in ends]
    policy = ("fifo_local", "strict_priority_local")[_pick(rng, 0, 1)]
    dep = Deployment(policy=policy, mapping=mapping, priorities=priorities,
                     queue_capacity=_pick(rng, 1, 3))
    period = _pick(rng, 1, 8)
    gen = Generator("job", ("periodic", "jitter")[_pick(rng, 0, 1)],
                    period=to_ticks(period), jitter=to_ticks(_pick(rng, 0, min(3, period - 1))),
                    count=count)
    return SystemModel([JobType("job", tasks, edges)], Platform(_processors(copies + 1)), [gen],
                       dep, instance_bound=count)


def random_two_generator_model(rng: SplitMix64) -> SystemModel:
    """Job types a and b of 1-3 tasks each (a0.., b0..), each with its own
    generator of `count` arrivals, on 1-3 processors and sometimes a bus,
    under any policy with distinct priorities across all tasks."""
    n_pes = _pick(rng, 1, 3)
    jobs, gens = [], []
    count = _pick(rng, 1, 2)
    for name in ("a", "b"):
        tasks, edges = _random_tasks(rng, _pick(rng, 1, 3), prefix=name)
        jobs.append(JobType(name, tasks, edges))
        period = _pick(rng, 1, 8)
        gens.append(Generator(name, VARIANTS[_pick(rng, 0, 2)], period=to_ticks(period),
                              jitter=to_ticks(_pick(rng, 0, min(3, period - 1))), count=count))
    ics = [Interconnect("bus", Fraction(1), init_latency=to_ticks(1))] if _pick(rng, 0, 1) else []
    ids = [t.id for jt in jobs for t in jt.tasks]
    levels = list(range(1, len(ids) + 1))
    for i in range(len(levels) - 1, 0, -1):  # Fisher-Yates
        j = _pick(rng, 0, i)
        levels[i], levels[j] = levels[j], levels[i]
    dep = Deployment(
        policy=POLICIES[_pick(rng, 0, 3)],
        mapping={tid: f"PE{_pick(rng, 0, n_pes - 1)}" for tid in ids},
        priorities=dict(zip(ids, levels)),
        queue_capacity=_pick(rng, 2, 4),
    )
    return SystemModel(jobs, Platform(_processors(n_pes), interconnects=ics), gens, dep,
                       instance_bound=count)


def random_window_model(rng: SplitMix64) -> SystemModel:
    """1-3 tasks on 1-3 processors, sometimes with a bus, under any policy,
    fed by a bounded_var or bibounded_var generator: window 1-6, at most 1-3
    events per window, and `count` 1-3 explicit arrivals, each drawn in
    whole time units inside the window its predecessors leave it.  The
    backlog holds all `count` instances, so no run overflows."""
    n_tasks, n_pes = _pick(rng, 1, 3), _pick(rng, 1, 3)
    tasks, edges = _random_tasks(rng, n_tasks)
    ics = [Interconnect("bus", Fraction(1), init_latency=to_ticks(1))] if _pick(rng, 0, 1) else []
    on = [f"PE{i}" for i in range(n_pes)]
    count = _pick(rng, 1, 3)
    dep = Deployment(
        policy=POLICIES[_pick(rng, 0, 3)],
        mapping={t.id: on[_pick(rng, 0, n_pes - 1)] for t in tasks},
        priorities={t.id: _pick(rng, 1, 4) for t in tasks},
        queue_capacity=_pick(rng, count, 3),
    )
    window, most = _pick(rng, 1, 6), _pick(rng, 1, 3)
    gen = Generator("job", ("bounded_var", "bibounded_var")[_pick(rng, 0, 1)],
                    window=to_ticks(window), max_events=most,
                    min_events=_pick(rng, 1, most), count=count)
    times: list[int] = []
    unit = to_ticks(1)
    for lo, hi in _windows(gen, times):
        lo = max([lo] + times[-1:])  # explicit arrivals come in order
        first = -(-lo // unit)
        times.append(to_ticks(_pick(rng, first, max(first, min(hi, lo + to_ticks(window)) // unit))))
    gen.arrivals = times
    return SystemModel([JobType("job", tasks, edges)], Platform(_processors(n_pes), interconnects=ics),
                       [gen], dep, instance_bound=count)


FAMILIES = {"one_bus": (SEED, random_model), "two_buses": (BUS_SEED, random_bus_model)}


def accepted_models(family: str) -> list[SystemModel]:
    seed, draw = FAMILIES[family]
    rng = SplitMix64(seed)
    models = [draw(rng) for _ in range(MODELS)]
    return [m for m in models if not validate_model(m)]


def symmetric_models() -> list[SystemModel]:
    rng = SplitMix64(SYMMETRIC_SEED)
    models = [random_symmetric_model(rng) for _ in range(SYMMETRIC_MODELS)]
    return [m for m in models if not validate_model(m)]


def every_family() -> list[SystemModel]:
    return accepted_models("one_bus") + accepted_models("two_buses") + symmetric_models()


def test_no_drawn_model_is_refused_for_its_time_range():
    """Every model the three families draw, accepted or not, lies inside
    the time range."""
    draws = [(seed, draw, MODELS) for seed, draw in FAMILIES.values()]
    draws.append((SYMMETRIC_SEED, random_symmetric_model, SYMMETRIC_MODELS))
    for seed, draw, n in draws:
        rng = SplitMix64(seed)
        for _ in range(n):
            assert "TimeOutOfRange" not in {v.rule for v in validate_model(draw(rng))}


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


def samples_inside(m: SystemModel, r, seed: int, n: int) -> int:
    """Simulate up to RUNS runs without overflow and assert each sampled
    makespan and latency lies inside the bounds of `r`; returns the count."""
    compiled = CompiledModel(m)
    runs = 0
    for i in range(4 * RUNS):
        t = simulate(m, stream_for(seed + n, i), compiled=compiled)
        if t.overflow_count:
            continue  # the bounds cover runs without overflow only
        for spec, bound in ((MetricSpec("makespan"), r.makespan),
                            (MetricSpec("job_latency"), r.latency)):
            for key, v in extract(t, spec):
                assert bound.lo <= v <= bound.hi, (n, i, spec.kind, key, v, bound)
        runs += 1
        if runs == RUNS:
            break
    return runs


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_random_model_samples_lie_inside_the_formal_bounds(family):
    seed = FAMILIES[family][0]
    checked = sum(samples_inside(m, reach_bounds(m), seed, n)
                  for n, m in enumerate(accepted_models(family)))
    assert checked >= 40 * RUNS


def two_generator_models() -> list[SystemModel]:
    rng = SplitMix64(TWO_GENERATOR_SEED)
    models = [random_two_generator_model(rng) for _ in range(TWO_GENERATOR_MODELS)]
    return [m for m in models if not validate_model(m)]


def test_two_generator_model_samples_lie_inside_the_formal_bounds():
    """With two generators the formal engine numbers instances generator by
    generator and the simulator by arrival time, so a later-numbered
    instance can be admitted first.  Sampled runs still lie inside the
    bounds under every policy, the hold-back scan's included: it serves
    instances in admission order in both engines."""
    models = two_generator_models()
    assert len(models) >= 80
    assert {m.deployment.policy for m in models} == set(POLICIES)
    checked = strict = 0
    for n, m in enumerate(models):
        runs = samples_inside(m, reach_bounds(m), TWO_GENERATOR_SEED, n)
        checked += runs
        strict += bool(runs) and m.deployment.policy == "strict_priority_local"
    assert strict >= 15 and checked >= 80 * RUNS


def window_models() -> list[SystemModel]:
    rng = SplitMix64(WINDOW_SEED)
    models = [random_window_model(rng) for _ in range(WINDOW_MODELS)]
    return [m for m in models if not validate_model(m)]


def test_window_generator_models_are_exact_and_contain_their_samples():
    """On the window family, unreduced and unmerged searches give the
    bounds of the default one, no overflow is reachable, and every sampled
    run lies inside the bounds.  The family reaches guards on a reused slot
    (more arrivals than events per window) and several slots set in one
    run."""
    def bounds(r):
        return r.makespan, r.latency, r.instance_latency, r.overflow_reachable, r.terminal_reached

    models = window_models()
    assert len(models) >= 60
    assert {m.deployment.policy for m in models} == set(POLICIES)
    assert any(m.platform.interconnects for m in models)
    gens = [m.generators[0] for m in models]
    assert {g.variant for g in gens} == {"bounded_var", "bibounded_var"}
    assert any(g.count > g.max_events for g in gens)
    assert any(g.count >= 2 and g.max_events >= 2 for g in gens)
    checked = 0
    for n, m in enumerate(models):
        r = reach_bounds(m)
        assert r.terminal_reached and not r.overflow_reachable, n
        for opts in (ReachOptions(symmetry=False), ReachOptions(merge=False)):
            assert bounds(reach_bounds(m, opts)) == bounds(r), (n, opts)
        runs = samples_inside(m, r, WINDOW_SEED, n)
        assert runs == RUNS, n
        checked += runs
    assert checked == len(models) * RUNS


def test_symmetry_reduction_keeps_random_symmetric_models_exact():
    """Reduced and full searches give the same bounds on the symmetric
    family, the reduced one expands no more configurations, and sampled runs
    lie inside the bounds."""
    models = symmetric_models()
    assert len(models) >= 30
    assert {m.deployment.policy for m in models} == {"fifo_local", "strict_priority_local"}
    reduced = [m for m in models if Network(m).orbits]
    assert len(reduced) >= 0.8 * len(models)
    checked = 0
    for n, m in enumerate(models):
        on, off = reach_bounds(m), reach_bounds(m, ReachOptions(symmetry=False))
        assert (on.makespan, on.latency, on.instance_latency, on.overflow_reachable) == \
            (off.makespan, off.latency, off.instance_latency, off.overflow_reachable), n
        assert on.states <= off.states, n
        checked += samples_inside(m, on, SYMMETRIC_SEED, n)
    assert checked >= 20 * RUNS


def test_no_verb_exits_with_an_internal_error(tmp_path):
    """Property (a): every accepted model runs through check, verify and
    simulate, and every fourth one through a sweep over policy and period,
    without exit code 1.  A sweep may exit 2 where a policy makes the model
    invalid; strict_priority_local comes last, so the other points run."""
    sweep = ["--axis", "policy=" + ",".join(POLICIES), "--axis", "period=4,8",
             "--runs", "1", "--seed", "1"]
    models = every_family()
    codes = {}
    for n, m in enumerate(models):
        path = tmp_path / f"m{n}.json"
        path.write_text(config.dumps(m))
        verbs = [["check", str(path)],
                 ["verify", str(path), "--out", str(tmp_path / "v")],
                 ["simulate", str(path), "--runs", "2", "--seed", "1", "--out", str(tmp_path / "s")]]
        if n % SWEEP_EVERY == 0:
            verbs.append(["sweep", str(path), *sweep, "--out", str(tmp_path / "w")])
        for argv in verbs:
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = cli.main(argv)
            assert code != cli.EXIT_INTERNAL, (n, argv[0], err.getvalue())
            codes[argv[0], code] = codes.get((argv[0], code), 0) + 1
    for verb in ("check", "verify", "simulate"):
        assert codes[verb, 0] == len(models), verb
    assert codes["sweep", 0] >= len(models) // (2 * SWEEP_EVERY)


def test_merge_changes_no_bound():
    """Property (c): exact union merging is a pure optimisation; switching
    it off gives the same bounds."""
    def bounds(r):
        return (r.makespan, r.latency, r.instance_latency, r.overflow_reachable,
                r.terminal_reached)

    for n, m in enumerate(every_family()):
        want = bounds(reach_bounds(m))
        assert bounds(reach_bounds(m, ReachOptions(merge=False))) == want, n


REACH_DIGESTS = {
    "default": "379eac4937c1160904de824c287919e8a4af7fe2bce9c0325cf0bb3d94dcfe9f",
    "symmetry=False": "0e6b75be01445e38c74e2a97d674c94eb07d8886507bfd9747fe558a76cafc6c",
    "merge=False": "92377516d27f05fdbaf2dc99af977e113b72c20f73ac77fa2a5da0d642b65c71",
}
REACH_OPTIONS = {"default": ReachOptions(), "symmetry=False": ReachOptions(symmetry=False),
                 "merge=False": ReachOptions(merge=False)}


@pytest.mark.parametrize("name", sorted(REACH_DIGESTS))
def test_every_search_result_of_the_families_is_pinned(name):
    h = hashlib.sha256()
    for m in every_family():
        r = reach_bounds(m, REACH_OPTIONS[name])
        assert r.zones == r.states  # one zone per configuration, ROADMAP item 15's premise
        h.update(repr(r).encode())
    assert h.hexdigest() == REACH_DIGESTS[name]


def test_layouts_of_random_models_fit_the_clock_count(monkeypatch):
    seen = check_layouts(monkeypatch)
    for m in every_family():
        reach_bounds(m)
    assert seen


def test_store_of_random_symmetric_models_stays_an_antichain(monkeypatch):
    check_antichains(monkeypatch)
    for m in symmetric_models():
        for merge in (True, False):
            reach_bounds(m, ReachOptions(merge=merge))


def test_store_of_random_symmetric_models_holds_no_permuted_covers(monkeypatch):
    """The brute-force check of test_reachability on the symmetric family's
    models whose classes have at most 4 members, with merging on and off."""
    stores = final_stores(monkeypatch)
    pairs = 0
    for m in symmetric_models():
        net = Network(m)
        if net.orbits and all(len(cls) <= 4 for cls in net.orbits):
            for merge in (True, False):
                reach_bounds(m, ReachOptions(merge=merge))
                pairs += check_no_permuted_covers(net, stores[-1])
    assert pairs


def test_successors_yield_ends_then_arrivals_in_order(monkeypatch):
    """Every `_successors` call yields its END and MIRROR labels first, in
    ascending (ref, slot), then its ARRIVE and OVERFLOW labels, in
    ascending generator order: on the bundled configs, on every family and,
    for two generators, on two_jobs under each policy (unpinned under the
    global queues, where PE1 lacks z's pinned frequency), all under the
    defaults.  power_sweep stops at 300 configurations, since its full
    search expands 65,540."""
    calls = recorded_steps(monkeypatch)
    for name in BUNDLED:
        try:
            reach_bounds(config.load(str(CONFIGS / f"{name}.json")), ReachOptions(state_cap=300))
        except SearchCapExceeded:
            assert name == "power_sweep"
    two = [two_jobs(policy) for policy in POLICIES]
    for m in two:
        if m.deployment.policy not in LOCAL_POLICIES:
            m.deployment.task_frequency = {}
        assert not validate_model(m), m.deployment.policy
    for m in every_family() + two:
        reach_bounds(m)
    kinds, most_arrivals = set(), 0
    for call in calls:
        labels = [label for label, _zg, _step in call]
        kinds.update(label[0] for label in labels)
        arriving = [label[0] in (ARRIVE, OVERFLOW) for label in labels]
        assert arriving == sorted(arriving), labels
        ends = [(label[2], label[1]) for label in labels if label[0] in (END, MIRROR)]
        assert ends == sorted(set(ends)), labels
        gens = [label[1] for label in labels if label[0] in (ARRIVE, OVERFLOW)]
        assert gens == sorted(set(gens)), labels
        most_arrivals = max(most_arrivals, len(gens))
    assert kinds == {END, MIRROR, ARRIVE, OVERFLOW} and most_arrivals == 2
