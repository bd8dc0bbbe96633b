"""Fixed-point time/work arithmetic on a common 1e-6 grid.

All durations, arrival times and work amounts are held as integer "ticks"
(one tick = 1e-6 of a model unit).  Keeping everything integral makes zone
arithmetic exact and lets simulated event times be compared against symbolic
bounds without any floating-point slack.
"""

from __future__ import annotations

from fractions import Fraction

SCALE = 10**6

# every time a model can reach stays below this many ticks: zones encode a
# bound v as 2v + 1 below the "no bound" mark 2**62, and the sum of two
# encoded finite bounds must stay below that mark
MAX_TICKS = 2**59


def as_fraction(value) -> Fraction:
    """Parse a number-like value into an exact Fraction.

    Floats go through their shortest decimal repr, so 0.1 means 1/10 and not
    the nearest binary double.
    """
    if isinstance(value, bool):
        raise TypeError("booleans are not quantities")
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        return Fraction(str(value))
    if isinstance(value, str):
        try:
            return Fraction(value)
        except ZeroDivisionError:
            raise ValueError(f"{value!r}: denominator is zero") from None
    raise TypeError(f"cannot interpret {value!r} as a quantity")


def to_ticks(value) -> int:
    """Convert a model-unit quantity to integer ticks.

    Rejects values finer than the 1e-6 grid instead of silently rounding;
    config files are expected to state at most six decimal places.
    """
    scaled = as_fraction(value) * SCALE
    if scaled.denominator != 1:
        raise ValueError(f"{value!r} does not land on the 1e-6 unit grid")
    return scaled.numerator


def from_ticks(ticks: int) -> float:
    return ticks / SCALE


def format_ticks(ticks: int) -> str:
    """Exact decimal rendering of a tick count, trailing zeros trimmed."""
    sign = "-" if ticks < 0 else ""
    units, frac = divmod(abs(ticks), SCALE)
    if frac == 0:
        return f"{sign}{units}"
    return f"{sign}{units}.{frac:06d}".rstrip("0")


def format_ticks_fixed(ticks: int) -> str:
    """Tick count with exactly six decimal places (trace text format)."""
    sign = "-" if ticks < 0 else ""
    units, frac = divmod(abs(ticks), SCALE)
    return f"{sign}{units}.{frac:06d}"


def ceil_div(num: int, den: int) -> int:
    return -((-num) // den)
