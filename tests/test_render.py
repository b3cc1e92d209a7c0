import random
from fractions import Fraction

import pytest

from netredist.render import decimal_str, exact_decimal_str, fraction_str

from oracles import without_digit_limit


def test_rounds_half_to_even_at_the_exact_midpoint():
    assert decimal_str(Fraction(1, 2), 0) == "0"
    assert decimal_str(Fraction(3, 2), 0) == "2"
    assert decimal_str(Fraction(-5, 2), 0) == "-2"
    assert decimal_str(Fraction(1234565, 10**7), 6) == "0.123456"
    assert decimal_str(Fraction(1234575, 10**7), 6) == "0.123458"


def test_rounds_once_just_above_a_midpoint():
    assert decimal_str(Fraction(1, 2) + Fraction(1, 10**40), 0) == "1"
    assert decimal_str(Fraction(1234565, 10**7) + Fraction(1, 10**35), 6) == "0.123457"


def test_amounts_of_any_size_render_in_plain_digits():
    assert decimal_str(Fraction(10**22)) == "10000000000000000000000.000000"
    assert decimal_str(Fraction(2 * 10**10), 20) == "20000000000.00000000000000000000"
    assert decimal_str(Fraction(-10**40, 3), 2) == "-" + "3" * 40 + ".33"
    assert decimal_str(Fraction(0), 20) == "0." + "0" * 20
    assert decimal_str(Fraction(1, 10**15), 8) == "0.00000000"


def test_a_negative_amount_keeps_its_sign_when_it_rounds_to_zero():
    assert decimal_str(Fraction(-1, 10**9)) == "-0.000000"
    assert decimal_str(Fraction(-1, 3), 0) == "-0"
    assert decimal_str(Fraction(0)) == "0.000000"


def test_rendering_is_the_nearest_decimal_ties_to_even():
    rng = random.Random(7)
    for _ in range(2000):
        x = Fraction(rng.randint(-10**9, 10**9), rng.randint(1, 10**6))
        digits = rng.randint(0, 9)
        text = decimal_str(x, digits)
        assert Fraction(text) == Fraction(round(x * 10**digits), 10**digits)
        assert text.startswith("-") == (x < 0)
        assert len(text.partition(".")[2]) == digits


def test_negative_precision_is_rejected():
    with pytest.raises(ValueError):
        decimal_str(Fraction(1), -1)


def test_exact_rendering_round_trips_or_falls_back_to_a_ratio():
    assert exact_decimal_str(Fraction(7, 2)) == "3.5"
    assert exact_decimal_str(Fraction(-1, 40)) == "-0.025"
    assert exact_decimal_str(Fraction(-5)) == "-5"
    assert exact_decimal_str(Fraction(1, 3)) == "1/3"
    rng = random.Random(8)
    for _ in range(500):
        x = Fraction(rng.randint(-10**6, 10**6), 2**rng.randint(0, 9) * 5**rng.randint(0, 9))
        assert Fraction(exact_decimal_str(x)) == x


def test_amounts_past_the_int_text_limit_render_exactly():
    rng = random.Random(9)
    amounts = [Fraction(10**5000), Fraction(-10**5000), Fraction(-1, 10**5000),
               Fraction(10**8000 + 1, 10**4000),
               Fraction(10**4300 - 1), Fraction(10**4300), Fraction(-7, 3) * 10**6000]
    amounts += [Fraction(rng.randint(-10**9000, 10**9000), rng.randint(1, 10**rng.randint(1, 9000)))
                for _ in range(30)]
    for x in amounts:
        # plain str() is the exact rendering once the limit is lifted
        assert fraction_str(x) == without_digit_limit(str, x)
        for digits in (0, 6, 20):
            assert decimal_str(x, digits) == without_digit_limit(decimal_str, x, digits)
    assert exact_decimal_str(Fraction(1, 10**5000)) == "0." + "0" * 4999 + "1"
    assert exact_decimal_str(Fraction(10**5000, 3)) == without_digit_limit(str, Fraction(10**5000, 3))
    for x in (Fraction(-3, 2), Fraction(4), Fraction(-5), Fraction(0)):
        assert fraction_str(x) == str(x)
