"""Exact fixed-point rendering of rationals."""

from fractions import Fraction

import pytest

from genquilt.cli import decimal_string, percent_string


def test_basic_places():
    assert decimal_string(Fraction(1, 2), 4) == "0.5000"
    assert decimal_string(Fraction(1, 3), 6) == "0.333333"
    assert decimal_string(Fraction(2, 3), 6) == "0.666667"


def test_half_rounds_up():
    assert decimal_string(Fraction(1, 2), 0) == "1"
    assert decimal_string(Fraction(25, 1000), 2) == "0.03"
    assert decimal_string(Fraction(-25, 1000), 2) == "-0.03"


def test_integer_and_negative():
    assert decimal_string(Fraction(7), 3) == "7.000"
    assert decimal_string(Fraction(-7, 4), 2) == "-1.75"
    # a value that rounds to zero prints no sign; -0.005 still rounds away
    assert decimal_string(Fraction(-1, 1000), 2) == "0.00"
    assert decimal_string(Fraction(-4, 10), 0) == "0"
    assert decimal_string(Fraction(-5, 1000), 2) == "-0.01"


def test_zero_places():
    assert decimal_string(Fraction(123, 10), 0) == "12"


def test_negative_places_rejected():
    with pytest.raises(ValueError):
        decimal_string(Fraction(1), -1)


def test_percent_matches_success_ratio():
    assert percent_string(Fraction(184, 199)) == "92.4623"
    assert percent_string(Fraction(5, 6)) == "83.3333"
    assert percent_string(Fraction(1, 1)) == "100.0000"


def test_carry_across_point():
    # 0.99995 at 4 places rounds into the integer part
    assert decimal_string(Fraction(99995, 100000), 4) == "1.0000"


def test_big_fraction_no_float_involved():
    value = Fraction(10**50 + 1, 3 * 10**50)
    assert decimal_string(value, 12) == "0.333333333333"
