"""Decimal rendering of exact rationals at the output boundary.

Mechanism code never touches floats.  Output is rounded here, with
banker's rounding at a configurable number of digits; network files get
the exact rendering, which round-trips.
"""

from __future__ import annotations

from fractions import Fraction

DEFAULT_PRECISION = 6


def decimal_str(x: Fraction, digits: int = DEFAULT_PRECISION) -> str:
    """Round-half-even decimal rendering of a rational, as a string.

    The rounding is exact, done once on integers; a negative amount keeps
    its sign even when it rounds to zero.
    """
    if digits < 0:
        raise ValueError("precision must be non-negative")
    den = x.denominator
    q, r = divmod(abs(x.numerator) * 10**digits, den)
    if 2 * r > den or (2 * r == den and q % 2):
        q += 1
    sign = "-" if x.numerator < 0 else ""
    if digits == 0:
        return f"{sign}{q}"
    s = str(q).rjust(digits + 1, "0")
    return f"{sign}{s[:-digits]}.{s[-digits:]}"


def exact_decimal_str(x: Fraction) -> str:
    """Exact decimal rendering; falls back to p/q if the value is not decimal."""
    den = x.denominator
    two = 0
    while den % 2 == 0:
        den //= 2
        two += 1
    five = 0
    while den % 5 == 0:
        den //= 5
        five += 1
    if den != 1:
        return f"{x.numerator}/{x.denominator}"
    return decimal_str(x, max(two, five))
