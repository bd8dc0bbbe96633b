"""End-to-end acceptance checks, one test per criterion.

Every check runs at a fixed seed and states its tolerance inline; the
expected numbers are independent derivations (order statistics, closed-form
schedules, brute-force oracles), never values read back from the engines.
Run with -v for one pass/fail line per criterion; passing tests also print
a summary line visible under -s or -rA.
"""

import math
import time

import pytest

from taskdse import cli, fixtures
from taskdse.generators import Generator, check_variability, sample_arrivals
from taskdse.reachability import Network, ReachOptions, reach_bounds
from taskdse.rng import SplitMix64, derive_seed, stream_for
from taskdse.simulator import run_campaign
from taskdse.timebase import SCALE, to_ticks
from taskdse.zones import clock_window, zone_includes

from test_generators import _oracle_check
from test_zones import grid_points, random_weak_zone, satisfies

SEED = 20260819
U = to_ticks


def _soundness_fixtures():
    return [
        ("chain2", fixtures.chain2()),
        ("indep2", fixtures.indep2()),
        ("diamond", fixtures.diamond()),
        ("stream_chain", fixtures.stream_chain()),
        ("mapping_stream_k1", fixtures.mapping_stream(count=1)),
    ]


def test_criterion_01_simulation_inside_formal_bounds():
    t0 = time.time()
    checked = 0
    for name, m in _soundness_fixtures():
        Network(m)  # fits the default 25-clock budget
        r = reach_bounds(m)
        c = run_campaign(m, 1000, seed=SEED)
        for v in c.values("makespan"):
            assert r.makespan.lo <= v <= r.makespan.hi, f"{name}: makespan {v} outside"
            checked += 1
        lat = [v for label in c.per_run if label.startswith("job_latency")
               for v in c.values(label)]
        for v in lat:
            assert r.latency.lo <= v <= r.latency.hi, f"{name}: latency {v} outside"
            checked += 1
    elapsed = time.time() - t0
    assert elapsed < 300, f"soundness suite took {elapsed:.0f}s"
    print(f"criterion 1: PASS - {checked} samples from 5 models x 1000 runs "
          f"inside formal bounds ({elapsed:.1f}s)")


def test_criterion_02_analytic_two_task_bounds():
    r = reach_bounds(fixtures.chain2())
    assert (r.makespan.lo, r.makespan.hi) == (U(4), U(6))
    r2 = reach_bounds(fixtures.indep2())
    assert (r2.makespan.lo, r2.makespan.hi) == (U(2), U(4))
    print("criterion 2: PASS - chain [4,6] and independent pair [2,4], exact")


def test_criterion_03_fixed_mapping_worst_case():
    t0 = time.time()
    r = reach_bounds(fixtures.mapping_stream())  # analysis depth 1
    elapsed = time.time() - t0
    assert r.makespan.hi == U(8400), "worst case must be exactly 4 x 2100"
    assert elapsed < 60, f"took {elapsed:.0f}s"
    print(f"criterion 3: PASS - fixed-mapping upper bound 8400 exactly ({elapsed:.1f}s)")


BAND_BOUNDS = {
    1: (U(1312), U(1888)),
    2: (U(656), U(944)),
    4: (U(328), U(472)),
    8: (U(164), U(236)),
    16: (U(82), U(118)),
}


def test_criterion_04_band_distribution_shape():
    t0 = time.time()
    means = {}
    for p, (lo, hi) in BAND_BOUNDS.items():
        m = fixtures.band16(p)
        r = reach_bounds(m)
        assert (r.makespan.lo, r.makespan.hi) == (lo, hi), f"P={p} formal bounds"
        c = run_campaign(m, 1000, seed=SEED)
        for v in c.values("makespan"):
            assert lo <= v <= hi, f"P={p}: sample {v} outside [{lo}, {hi}]"
        means[p] = c.reports["makespan"].mean

    exp16 = 100 * (0.82 + (16 / 17) * 0.36)  # E[max of 16 iid U(82,118)]
    assert abs(means[16] - exp16) / exp16 < 0.015, f"P=16 mean {means[16]} vs {exp16}"
    exp1 = 16 * 100  # E[sum of 16 iid U(82,118)]
    assert abs(means[1] - exp1) / exp1 < 0.01, f"P=1 mean {means[1]} vs {exp1}"
    print(f"criterion 4: PASS - P=16 mean {means[16]:.2f} (target {exp16:.2f}, "
          f"tol 1.5%), P=1 mean {means[1]:.2f} (target {exp1}, tol 1%), all "
          f"5000 samples inside formal bounds ({time.time() - t0:.1f}s)")


def test_criterion_05_global_beats_fixed_mapping():
    t0 = time.time()
    advantage = {}
    for period in (7000, 6000, 5000, 4500):
        mean = {}
        for policy in ("fifo_local", "fifo_global"):
            m = fixtures.mapping_stream(period=period, policy=policy)
            c = run_campaign(m, 100, seed=SEED)
            mean[policy] = c.reports["job_latency[stream]"].mean
        assert mean["fifo_global"] < mean["fifo_local"], (
            f"period {period}: global {mean['fifo_global']:.1f} "
            f">= fixed {mean['fifo_local']:.1f}"
        )
        advantage[period] = mean["fifo_local"] - mean["fifo_global"]
    assert advantage[4500] > advantage[7000], (
        f"advantage must widen under load: {advantage[4500]:.1f} at 4500 "
        f"vs {advantage[7000]:.1f} at 7000"
    )
    elapsed = time.time() - t0
    assert elapsed < 300, f"took {elapsed:.0f}s"
    print(f"criterion 5: PASS - global < fixed at all periods; advantage "
          f"{advantage[7000]:.0f} @7000 -> {advantage[4500]:.0f} @4500 ({elapsed:.1f}s)")


def test_criterion_06_overflow_at_short_period():
    m = fixtures.mapping_stream(period=4000)
    c = run_campaign(m, 100, seed=SEED)
    assert c.overflow_runs >= 50, f"overflow in only {c.overflow_runs}/100 runs"
    print(f"criterion 6: PASS - overflow in {c.overflow_runs}/100 runs at period 4000")


def test_criterion_07_power_performance_monotonicity():
    t0 = time.time()
    procs = [int(v) for v in dict(fixtures.POWER_SWEEP_AXES)["processors"]]
    freqs = [int(v) for v in dict(fixtures.POWER_SWEEP_AXES)["frequency"]]
    grid = {}
    idx = 0
    for pv in procs:
        for fv in freqs:
            m = fixtures.power_sweep_model()
            cli.apply_axis(m, "processors", str(pv))
            cli.apply_axis(m, "frequency", str(fv))
            c = run_campaign(m, 100, seed=derive_seed(SEED, idx))
            en = c.values("energy")
            power = sum(e / (h / SCALE) for e, h in zip(en, c.horizons)) / len(en)
            grid[(pv, fv)] = (c.reports["makespan"].mean, power)
            idx += 1

    for f in freqs:
        for a, b in zip(procs, procs[1:]):
            assert grid[(a, f)][0] >= grid[(b, f)][0], f"makespan up from P={a} to P={b} at f={f}"
    for p in procs:
        for a, b in zip(freqs, freqs[1:]):
            assert grid[(p, a)][0] >= grid[(p, b)][0], f"makespan up from f={a} to f={b} at P={p}"
            assert grid[(p, a)][1] <= grid[(p, b)][1], f"power down from f={a} to f={b} at P={p}"
    print(f"criterion 7: PASS - {len(grid)} sweep points, makespan monotone in "
          f"P and f, power monotone in f ({time.time() - t0:.1f}s)")


def test_criterion_08_dbm_against_integer_point_oracle():
    rng = SplitMix64(SEED)
    inclusion_checked = 0
    for case in range(500):
        n = 1 + int(rng.next_u64() % 4)
        pts = grid_points(n)
        a, cons_a = random_weak_zone(rng, n)
        b, cons_b = random_weak_zone(rng, n)
        in_a, in_b = satisfies(cons_a, pts), satisfies(cons_b, pts)

        assert (a is None) == (not in_a.any()), f"case {case}: emptiness"
        assert (b is None) == (not in_b.any()), f"case {case}: emptiness"
        if a is not None and b is not None:
            assert zone_includes(a, b) == bool((~in_b | in_a).all()), f"case {case}: inclusion"
            inclusion_checked += 1
        if a is not None:
            for c in range(1, n + 1):
                col = pts[in_a, c - 1]
                assert clock_window(a, c) == (int(col.min()), int(col.max())), f"case {case}"
    print(f"criterion 8: PASS - 500 random zones agree with the brute-force "
          f"lattice oracle ({inclusion_checked} inclusion pairs)")


def test_criterion_09_byte_identical_replays(tmp_path):
    import pathlib

    cfg = str(pathlib.Path(__file__).resolve().parent.parent / "configs" / "stream_chain.json")
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert cli.main(["simulate", cfg, "--runs", "4", "--seed", str(SEED),
                         "--traces", "--out", str(out)]) == 0
    names = sorted(p.name for p in a.iterdir())
    assert names == sorted(p.name for p in b.iterdir())
    for name in names:
        assert (a / name).read_bytes() == (b / name).read_bytes(), name

    w1, w3 = tmp_path / "w1", tmp_path / "w3"
    argv = ["sweep", cfg, "--axis", "period=6,8,10", "--runs", "5", "--seed", str(SEED)]
    assert cli.main(argv + ["--out", str(w1), "--workers", "1"]) == 0
    assert cli.main(argv + ["--out", str(w3), "--workers", "3"]) == 0
    rel1 = sorted(p.relative_to(w1) for p in w1.rglob("*") if p.is_file())
    rel3 = sorted(p.relative_to(w3) for p in w3.rglob("*") if p.is_file())
    assert rel1 == rel3
    for rel in rel1:
        assert (w1 / rel).read_bytes() == (w3 / rel).read_bytes(), rel
    print(f"criterion 9: PASS - {len(names)} simulate files and {len(rel1)} "
          f"sweep files byte-identical across reruns and worker counts")


def test_criterion_10_generator_laws():
    g = Generator("j", "jitter", period=U(5), jitter=U(1), count=1000)
    times = sample_arrivals(g, stream_for(SEED, 0))
    for k, t in enumerate(times, start=1):
        dev = t - (k - 1) * U(5)
        assert 0 <= dev <= U(1), f"jitter deviation {dev} at index {k}"

    g2 = Generator("j", "uncertain", period=U(5), jitter=U(1), count=1000)
    times2 = sample_arrivals(g2, stream_for(SEED, 1))
    for a, b in zip(times2, times2[1:]):
        assert U(5) <= b - a <= U(6), f"uncertain gap {b - a}"

    rng = SplitMix64(SEED)
    agreements = 0
    for _case in range(100):
        n = 1 + int(rng.next_u64() % 10)
        evs = sorted(int(rng.next_u64() % 40) for _ in range(n))
        window = 1 + int(rng.next_u64() % 15)
        max_events = 1 + int(rng.next_u64() % 5)
        min_events = int(rng.next_u64() % 3) or None
        got = check_variability(evs, window, max_events, min_events)
        want = _oracle_check(evs, window, max_events, min_events)
        assert got == want, (evs, window, max_events, min_events)
        agreements += 1
    print(f"criterion 10: PASS - 1000 jitter deviations <= J, 999 uncertain "
          f"gaps in [d, d+J], {agreements} variability checks match the "
          f"fine-grid oracle")
