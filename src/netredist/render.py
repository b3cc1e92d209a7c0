"""Decimal rendering of exact rationals at the output boundary.

Mechanism code never touches floats.  Output is rounded here, with
banker's rounding at a configurable number of digits; network files get
the exact rendering, which round-trips.
"""

from __future__ import annotations

from decimal import ROUND_HALF_EVEN, Decimal, localcontext
from fractions import Fraction

DEFAULT_PRECISION = 6


def decimal_str(x: Fraction, digits: int = DEFAULT_PRECISION) -> str:
    """Round-half-even decimal rendering of a rational, as a string."""
    if digits < 0:
        raise ValueError("precision must be non-negative")
    with localcontext() as ctx:
        ctx.prec = max(28, digits + 10)
        q = Decimal(x.numerator) / Decimal(x.denominator)
        quantum = Decimal(1).scaleb(-digits)
        return str(q.quantize(quantum, rounding=ROUND_HALF_EVEN))


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
    digits = max(two, five)
    scaled = x * 10**digits
    if digits == 0:
        return str(scaled.numerator)
    s = str(abs(scaled.numerator)).rjust(digits + 1, "0")
    sign = "-" if x < 0 else ""
    return f"{sign}{s[:-digits]}.{s[-digits:]}"
