"""Tick grid arithmetic: exact parsing, outward rounding, formatting."""

from fractions import Fraction

import pytest

from taskdse.timebase import (
    SCALE,
    as_fraction,
    ceil_div,
    format_ticks,
    format_ticks_fixed,
    from_ticks,
    to_ticks,
)


def test_scale_is_micro():
    assert SCALE == 1_000_000


def test_to_ticks_exact_decimal_strings():
    assert to_ticks("0.1") == 100_000
    assert to_ticks("2.5") == 2_500_000
    assert to_ticks(3) == 3_000_000
    assert to_ticks(Fraction(1, 4)) == 250_000


def test_to_ticks_float_uses_decimal_literal():
    # 0.1 the float is off-grid in binary; the string form must be honored
    assert to_ticks(0.1) == 100_000


def test_off_grid_value_rejected():
    with pytest.raises(ValueError):
        to_ticks("0.0000001")
    with pytest.raises(ValueError):
        to_ticks(Fraction(1, 3))


def test_negative_allowed_roundtrip():
    assert from_ticks(to_ticks("-1.5")) == -1.5


def test_format_ticks_trims_zeros():
    assert format_ticks(1_500_000) == "1.5"
    assert format_ticks(1_000_000) == "1"
    assert format_ticks(100) == "0.0001"
    assert format_ticks(0) == "0"
    assert format_ticks(-2_500_000) == "-2.5"


def test_format_ticks_fixed_always_six_places():
    assert format_ticks_fixed(0) == "0.000000"
    assert format_ticks_fixed(1_500_000) == "1.500000"
    assert format_ticks_fixed(1) == "0.000001"
    assert format_ticks_fixed(-42) == "-0.000042"


def test_format_parse_roundtrip():
    for t in (0, 1, 999_999, 1_000_000, 1_234_567, 10**12 + 7):
        assert to_ticks(format_ticks(t)) == t


def test_floor_ceil_div():
    # duration windows floor their lower end with // and ceil their upper end
    assert 7 // 2 == 3
    assert ceil_div(7, 2) == 4
    assert -7 // 2 == -4
    assert ceil_div(-7, 2) == -3
    assert 8 // 2 == ceil_div(8, 2) == 4


def test_as_fraction_exact():
    assert as_fraction("0.2") == Fraction(1, 5)
    assert as_fraction(2) == Fraction(2)
    assert as_fraction(Fraction(3, 7)) == Fraction(3, 7)
