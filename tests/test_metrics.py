"""Metric extraction and summaries, against hand-computed expectations."""

import math
from fractions import Fraction

import pytest

from taskdse.config import ConfigError
from taskdse.metrics import (
    MetricSpec,
    MissingPowerEntry,
    PowerTable,
    busy_intervals,
    default_metrics,
    energy,
    extract,
    histogram_csv,
    summarize,
    utilization,
)
from taskdse.model import Interconnect, Platform, Processor
from taskdse.simulator import Event, TimedTrace
from taskdse import fixtures
from taskdse.timebase import to_ticks

F1 = Fraction(1)


def _trace(events, horizon=None):
    h = horizon if horizon is not None else max((e.time for e in events), default=0)
    return TimedTrace(list(events), h)


def _exec(inst, task, res, t0, t1, f=F1, job="j"):
    return [
        Event(t0, "start", inst, job, task, res, f),
        Event(t1, "end", inst, job, task, res),
    ]


def test_busy_intervals_pairs_starts_with_ends():
    ev = _exec(0, "a", "PE0", 0, to_ticks(2)) + _exec(0, "b", "PE0", to_ticks(3), to_ticks(4))
    assert busy_intervals(_trace(ev)) == {"PE0": [(0, to_ticks(2)), (to_ticks(3), to_ticks(4))]}


def test_busy_intervals_rejects_overlap():
    ev = [
        Event(0, "start", 0, "j", "a", "PE0", F1),
        Event(1, "start", 1, "j", "b", "PE0", F1),
    ]
    with pytest.raises(ValueError):
        busy_intervals(_trace(ev))


def test_busy_intervals_rejects_dangling_start():
    ev = [Event(0, "start", 0, "j", "a", "PE0", F1)]
    with pytest.raises(ValueError):
        busy_intervals(_trace(ev))


def test_utilization_is_busy_fraction():
    ev = _exec(0, "a", "PE0", 0, to_ticks(1))
    u = utilization(_trace(ev, horizon=to_ticks(4)))
    assert u == {"PE0": 0.25}


def test_energy_single_processor_hand_computed():
    # static 0.1 W always (idle at min frequency), +0.9 W dynamic while busy:
    # busy 2 of 4 units -> 2*(0.1+0.9) + 2*0.1 = 2.2
    plat = Platform([Processor("PE0", [F1], {F1: (0.1, 0.9)})])
    ev = _exec(0, "a", "PE0", 0, to_ticks(2))
    assert energy(_trace(ev, horizon=to_ticks(4)), PowerTable(plat)) == pytest.approx(2.2)


def test_energy_prices_each_interval_at_its_own_frequency():
    f2 = Fraction(2)
    proc = Processor("PE0", [F1, f2], {F1: (0.1, 0.4), f2: (0.1, 1.6)})
    plat = Platform([proc])
    ev = _exec(0, "a", "PE0", 0, to_ticks(1), f=F1) + _exec(0, "b", "PE0", to_ticks(1), to_ticks(2), f=f2)
    # 1 unit at 0.5 W + 1 unit at 1.7 W + 2 idle units at 0.1 W
    got = energy(_trace(ev, horizon=to_ticks(4)), PowerTable(plat))
    assert got == pytest.approx(0.5 + 1.7 + 0.2)


def test_energy_off_processor_draws_nothing():
    plat = Platform([
        Processor("PE0", [F1], {F1: (0.1, 0.9)}),
        Processor("PE1", [F1], {F1: (0.1, 0.9)}, initially_on=False),
    ])
    ev = _exec(0, "a", "PE0", 0, to_ticks(1))
    assert energy(_trace(ev, horizon=to_ticks(2)), PowerTable(plat)) == pytest.approx(1.0 + 0.1)


def test_energy_interconnect_static_over_horizon():
    ic = Interconnect("bus", rate=Fraction(1), power=(0.2, 0.8))
    plat = Platform([Processor("PE0", [F1], {F1: (0.0, 0.0)})], interconnects=[ic])
    ev = [
        Event(0, "start", 0, "j", "a->b", "bus", None),
        Event(to_ticks(1), "end", 0, "j", "a->b", "bus"),
    ]
    # bus: 0.2*3 static + 0.8*1 dynamic; PE0 idle static 0
    assert energy(_trace(ev, horizon=to_ticks(3)), PowerTable(plat)) == pytest.approx(0.6 + 0.8)


def test_energy_missing_power_entry():
    f2 = Fraction(2)
    plat = Platform([Processor("PE0", [F1], {F1: (0.1, 0.9)})])
    ev = _exec(0, "a", "PE0", 0, to_ticks(1), f=f2)
    with pytest.raises(MissingPowerEntry):
        energy(_trace(ev), PowerTable(plat))


def _job_trace():
    ev = [Event(to_ticks(1), "arrival", 0, "j", generator=0)]
    ev += _exec(0, "a", "PE0", to_ticks(1), to_ticks(2))
    ev += _exec(0, "b", "PE0", to_ticks(2), to_ticks(5))
    ev += [Event(to_ticks(4), "arrival", 1, "j", generator=0)]
    ev += _exec(1, "a", "PE0", to_ticks(5), to_ticks(6))
    ev += _exec(1, "b", "PE0", to_ticks(6), to_ticks(7))
    return _trace(sorted(ev, key=lambda e: e.time))


def test_extract_job_latency_per_instance():
    got = extract(_job_trace(), MetricSpec("job_latency"))
    assert got == [("0", to_ticks(4)), ("1", to_ticks(3))]


def test_extract_makespan_anchors_first_arrival():
    got = extract(_job_trace(), MetricSpec("makespan"))
    assert got == [("", to_ticks(6))]  # 7 - 1


def test_extract_event_pair():
    spec = MetricSpec("event_pair", first=("start", "a"), second=("end", "b"))
    got = extract(_job_trace(), spec)
    assert got == [("0", to_ticks(4)), ("1", to_ticks(2))]


def test_extract_utilization_single_resource():
    got = extract(_job_trace(), MetricSpec("utilization", resource="PE0"))
    ((key, val),) = got
    assert key == "PE0" and val == pytest.approx(6 / 7)


def test_extract_energy_requires_platform():
    with pytest.raises(ValueError):
        extract(_job_trace(), MetricSpec("energy"))


def test_default_metrics_cover_model():
    m = fixtures.indep2()
    labels = [s.label for s in default_metrics(m)]
    assert labels == [
        "makespan",
        "job_latency[pair]",
        "utilization[PE0]",
        "utilization[PE1]",
        "energy",
        "overflow_count",
    ]


def test_summarize_constant_samples():
    r = summarize([5, 5, 5])
    assert (r.count, r.mean, r.std, r.min, r.max, r.median, r.p95) == (3, 5.0, 0.0, 5.0, 5.0, 5.0, 5.0)
    assert r.histogram == [(5.0, 5.0, 3)]


def test_summarize_small_sample():
    r = summarize([1, 2, 3, 4])
    assert r.mean == 2.5
    assert r.median == 2.5
    assert r.p95 == 4.0  # nearest rank: ceil(0.95*4) = 4th value
    assert r.std == pytest.approx(1.2909944487358056)
    assert sum(c for _lo, _hi, c in r.histogram) == 4
    assert len(r.histogram) == 20


def test_summarize_empty():
    r = summarize([])
    assert r.count == 0 and math.isnan(r.mean)


@pytest.mark.parametrize("values", [[1.0, math.inf], [math.nan, 2.0], [1e308, 1e308]])
def test_summarize_rejects_samples_it_cannot_sum(values):
    """A non-finite sample, or finite ones whose sum overflows, is a
    configuration error naming the metric, not a crash in statistics."""
    with pytest.raises(ConfigError, match="^energy: "):
        summarize(values, metric="energy")


def test_histogram_csv_two_columns():
    text = histogram_csv(summarize([0.0, 1.0]))
    lines = text.splitlines()
    assert lines[0] == "bin_left,count"
    assert len(lines) == 21
    assert text.endswith("\n")
    first = lines[1].split(",")
    assert float(first[0]) == 0.0 and first[1] == "1"
