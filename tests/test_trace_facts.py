"""The metric facts the simulator's loop gathers equal what `trace_facts`
derives from the run's events, dict order included: `energy` sums floats in
that order, so a different order could change its last bits."""

import pytest

from taskdse import fixtures
from taskdse.metrics import busy_intervals, trace_facts
from taskdse.rng import stream_for
from taskdse.simulator import CompiledModel, simulate
from taskdse.timebase import to_ticks
from test_parity import priority_variants, two_jobs
from test_random_models import every_family

RUNS = 3


def ordered(facts) -> list:
    return [list(d.items()) for d in facts]


def assert_facts_match(model, runs: int = RUNS, horizon=None) -> list:
    compiled = CompiledModel(model)
    traces = []
    for i in range(runs):
        t = simulate(model, stream_for(5, i), horizon, compiled=compiled)
        assert ordered(t.facts) == ordered(trace_facts(t.events, t.horizon))
        traces.append(t)
    return traces


def overflowing_stream_chain():
    m = fixtures.stream_chain()
    m.deployment.queue_capacity = 1
    m.generators[0].period = to_ticks(3)
    return m


def fixture_models() -> dict:
    out = {
        "chain2": fixtures.chain2(),
        "indep2": fixtures.indep2(),
        "diamond": fixtures.diamond(),
        "stream_chain": fixtures.stream_chain(),
        "band16(3)": fixtures.band16(3),
        "blockwise(4)": fixtures.blockwise(4),
        "mapping_stream": fixtures.mapping_stream(count=12),
        "mapping_stream-fifo_global": fixtures.mapping_stream(period=4500, policy="fifo_global",
                                                              count=12),
        "power_sweep": fixtures.power_sweep_model(),
        "two_jobs-fifo_local": two_jobs("fifo_local"),
        "two_jobs-strict_priority_local": two_jobs("strict_priority_local"),
    }
    out.update(priority_variants())
    return out


@pytest.mark.parametrize("name", sorted(fixture_models()))
def test_gathered_facts_match_the_events_on_every_fixture(name):
    assert_facts_match(fixture_models()[name])


def test_gathered_facts_match_the_events_when_arrivals_overflow():
    traces = assert_facts_match(overflowing_stream_chain(), runs=10)
    assert any(t.overflow_count for t in traces)


def test_gathered_facts_match_the_events_past_a_short_horizon():
    m = fixtures.mapping_stream(count=6)
    end = simulate(m, stream_for(5, 0)).horizon
    for t in assert_facts_match(m, horizon=end // 2):
        # work runs past the horizon, so the busy intervals are clipped
        assert any(en > t.horizon for iv in busy_intervals(t.events).values() for _st, en, _f in iv)


def test_gathered_facts_match_the_events_on_the_random_families():
    for m in every_family():
        assert_facts_match(m, runs=2)
