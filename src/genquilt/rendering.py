"""Exact decimal rendering for rationals (no float round-trips)."""

from __future__ import annotations

from fractions import Fraction


def decimal_string(value: Fraction, places: int) -> str:
    """``value`` as a fixed-point decimal with ``places`` digits, half-up."""
    if places < 0:
        raise ValueError(f"places must be >= 0, got {places}")
    scaled = abs(value) * 10**places
    units = (2 * scaled.numerator + scaled.denominator) // (2 * scaled.denominator)
    sign = "-" if value < 0 and units else ""  # never "-0.00"
    digits = str(units).rjust(places + 1, "0")
    if places == 0:
        return sign + digits
    return f"{sign}{digits[:-places]}.{digits[-places:]}"


def percent_string(ratio: Fraction) -> str:
    """A ratio as a percentage with four decimals, e.g. 92.4623."""
    return decimal_string(ratio * 100, 4)
