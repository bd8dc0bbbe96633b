"""Arrival-stream generators with bounded timing uncertainty.

Five variants:

  periodic        t_k = (k-1)*period, exactly
  jitter          t_k in [(k-1)*period, (k-1)*period + jitter], grid-anchored
  uncertain       t_k in [t_{k-1} + period, t_{k-1} + period + jitter]; drift accumulates
  bounded_var     any stream with at most max_events arrivals in every closed
                  window of length `window`
  bibounded_var   additionally at least min_events arrivals per window

`arrival_rule` states each variant as clock guards, deadlines and resets; the
sampler, the zone engine and the explicit-arrival check all read it.  The
first three are sampled, one `draws.uniform_ticks(lo, hi)` call per arrival;
the last two are pure constraints (usable by the formal engine and as trace
validators) and refuse to sample.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .model import Violation

PERIODIC = "periodic"
JITTER = "jitter"
UNCERTAIN = "uncertain"
BOUNDED_VAR = "bounded_var"
BIBOUNDED_VAR = "bibounded_var"

VARIANTS = (PERIODIC, JITTER, UNCERTAIN, BOUNDED_VAR, BIBOUNDED_VAR)
SAMPLABLE = (PERIODIC, JITTER, UNCERTAIN)


@dataclass
class Generator:
    job_type: str
    variant: str
    period: int = 0  # ticks
    jitter: int = 0  # ticks
    window: int = 0  # ticks (bounded_var / bibounded_var)
    min_events: int = 0
    max_events: int = 0
    count: int = 1  # finite stream length
    arrivals: list[int] | None = None  # explicit times, lets variants 4-5 simulate


def generator_violations(g: Generator) -> list[Violation]:
    out: list[Violation] = []
    sub = g.job_type

    if g.variant not in VARIANTS:
        out.append(Violation("UnknownGeneratorVariant", sub, g.variant))
        return out
    if g.count <= 0:
        out.append(Violation("BadInstanceCount", sub, str(g.count)))

    if g.variant == PERIODIC:
        if g.period <= 0:
            out.append(Violation("BadPeriod", sub, str(g.period)))
    elif g.variant in (JITTER, UNCERTAIN):
        if g.period <= 0:
            out.append(Violation("BadPeriod", sub, str(g.period)))
        if g.jitter < 0:
            out.append(Violation("BadJitter", sub, str(g.jitter)))
        if g.variant == JITTER and g.jitter >= g.period > 0:
            # windows of consecutive arrivals must stay disjoint
            out.append(Violation("JitterExceedsPeriod", sub, f"{g.jitter} >= {g.period}"))
    else:
        if g.window <= 0:
            out.append(Violation("BadWindow", sub, str(g.window)))
        if g.max_events <= 0:
            out.append(Violation("BadEventBound", sub, str(g.max_events)))
        if g.variant == BIBOUNDED_VAR and not (0 < g.min_events <= g.max_events):
            out.append(Violation("BadEventBound", sub, f"min {g.min_events}, max {g.max_events}"))
        elif g.variant == BIBOUNDED_VAR and g.min_events == g.max_events < g.count:
            # arrival max+1 must come both more than and at most a window after arrival 1
            out.append(Violation("EmptyStream", sub, f"min = max = {g.max_events} < count {g.count}"))

    if g.arrivals is not None:
        times = g.arrivals
        if any(b < a for a, b in zip(times, times[1:])) or (times and times[0] < 0):
            out.append(Violation("BadExplicitArrivals", sub, "not sorted and non-negative"))
        elif len(times) != g.count:
            out.append(Violation("BadExplicitArrivals", sub, f"{len(times)} times for count {g.count}"))
        elif not out:  # arrival_rule needs valid fields
            walk = enumerate(zip(times, _windows(g, times)), start=1)
            k = next((k for k, (t, (lo, hi)) in walk if not lo <= t <= hi), None)
            if k is not None:
                out.append(Violation("BadExplicitArrivals", sub, f"arrival {k} breaks the {g.variant} rule"))
    return out


GLOBAL = -1  # the global clock T; own clocks are slots 0 .. own_clocks(g) - 1


class Bound(NamedTuple):
    clock: int  # GLOBAL or an own slot
    ticks: int
    strict: bool = False  # guards only: clock > ticks instead of >=


class ArrivalRule(NamedTuple):
    guard: Bound | None  # enabled once clock >= ticks; None: from the start
    deadline: Bound | None  # must happen while clock <= ticks; None: never forced
    reset: int | None  # own slot the arrival sets to 0


def own_clocks(g: Generator) -> int:
    """How many own clocks g needs; like T, they start at 0."""
    return {UNCERTAIN: 1, BOUNDED_VAR: g.max_events, BIBOUNDED_VAR: g.max_events}.get(g.variant, 0)


def arrival_rule(g: Generator, k: int) -> ArrivalRule:
    """The rule of the k-th arrival (1-based) of a valid generator."""
    if g.variant in (PERIODIC, JITTER):
        base = (k - 1) * g.period
        slack = g.jitter if g.variant == JITTER else 0
        return ArrivalRule(Bound(GLOBAL, base), Bound(GLOBAL, base + slack), None)
    if g.variant == UNCERTAIN:
        if k == 1:
            return ArrivalRule(None, Bound(0, g.jitter), 0)
        return ArrivalRule(Bound(0, g.period), Bound(0, g.period + g.jitter), 0)
    # sliding windows: arrival k resets slot (k-1) mod max, so slot s holds the
    # time since the latest arrival numbered s+1 modulo max
    slot = (k - 1) % g.max_events
    guard = Bound(slot, g.window, strict=True) if k > g.max_events else None
    if g.variant == BOUNDED_VAR:
        return ArrivalRule(guard, None, slot)
    on = GLOBAL if k <= g.min_events else (k - g.min_events - 1) % g.max_events
    return ArrivalRule(guard, Bound(on, g.window), slot)


def _windows(g: Generator, times: list[int]):
    """Yield the tick window [lo, hi] of each of g's count arrivals in turn;
    each reads the arrivals before it from `times`, which the sampler extends."""
    last = [0] * (own_clocks(g) + 1)  # reset times; last[GLOBAL] stays 0
    for k in range(1, g.count + 1):
        guard, deadline, reset = arrival_rule(g, k)
        # ticks are integers, so a strict guard c > v means c >= v + 1
        yield (last[guard.clock] + guard.ticks + guard.strict if guard else 0,
               last[deadline.clock] + deadline.ticks if deadline else math.inf)
        if reset is not None:
            last[reset] = times[k - 1]


def sample_arrivals(g: Generator, draws) -> list[int]:
    """One arrival list: the explicit one, else one draw per arrival window."""
    if g.arrivals is not None:
        return list(g.arrivals)
    if g.variant not in SAMPLABLE:
        raise NoProbabilisticSemantics(
            f"{g.variant} generators are constraints, not distributions; give explicit arrivals"
        )
    times: list[int] = []
    for lo, hi in _windows(g, times):
        times.append(draws.uniform_ticks(lo, hi))
    return times


def check_variability(times: list[int], window: int, max_events: int, min_events: int | None = None) -> bool:
    """Validate a trace against sliding-window event-count bounds.

    Every closed window [r, r+window] with r >= 0 must contain at most
    max_events times; when min_events is given, every such window with
    r+window <= times[-1] must also contain at least min_events.  The count
    only changes when a window boundary crosses an event, so it is enough to
    anchor r at 0, at each event (maxima) and just after each event (minima).
    """
    import bisect

    if window <= 0:
        raise ValueError("window must be positive")
    if any(b < a for a, b in zip(times, times[1:])):
        raise ValueError("times must be sorted")
    if not times:
        return min_events is None or min_events == 0

    for t in times:
        count = bisect.bisect_right(times, t + window) - bisect.bisect_left(times, t)
        if count > max_events:
            return False

    if min_events is not None and min_events > 0:
        last = times[-1]
        if window <= last:
            count = bisect.bisect_right(times, window) - bisect.bisect_left(times, 0)
            if count < min_events:
                return False
            for t in times:
                if t + window >= last:
                    continue
                count = bisect.bisect_right(times, t + window) - bisect.bisect_right(times, t)
                if count < min_events:
                    return False
    return True


class NoProbabilisticSemantics(ValueError):
    pass
