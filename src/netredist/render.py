"""Decimal rendering of exact rationals at the output boundary.

Mechanism code never touches floats.  Output is rounded here, with
banker's rounding at a configurable number of digits; network files get
the exact rendering, which round-trips.  Amounts of any size render: an
integer past the interpreter's int-to-text digit limit is written through
``Decimal``.
"""

from __future__ import annotations

from decimal import Decimal
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
    s = _long_digits(q)
    if digits == 0:
        return sign + s
    s = s.rjust(digits + 1, "0")
    return f"{sign}{s[:-digits]}.{s[-digits:]}"


def fraction_str(x: Fraction) -> str:
    """``str(x)``, that is ``p`` or ``p/q``, for a rational of any size."""
    sign = "-" if x.numerator < 0 else ""
    num = _long_digits(abs(x.numerator))
    if x.denominator == 1:
        return sign + num
    return f"{sign}{num}/{_long_digits(x.denominator)}"


def _long_digits(n: int) -> str:
    """``str(n)`` for ``n >= 0``, written through ``Decimal`` when it has
    more digits than the interpreter converts at once (4,300 by default)."""
    try:
        return str(n)
    except ValueError:
        return str(Decimal(n))  # exact, and free of that limit


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
        return fraction_str(x)
    return decimal_str(x, max(two, five))
