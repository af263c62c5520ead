"""The exact square roots behind `series burgers`: the Taylor coefficients
C(1/2, m) of sqrt(1+z) and the principal root of a bivariate series."""

import math
from fractions import Fraction

import pytest

from ptl.burgers import _add, _compose, _mul, _sqrt, binom_half, rational_sqrt


def test_q_series_printed_values():
    assert [binom_half(m) for m in range(4)] == [
        Fraction(1), Fraction(1, 2), Fraction(-1, 8), Fraction(1, 16)]


def test_q_series_order_zero():
    assert _sqrt({(0, 0): Fraction(9, 4)}, 1) == {(0, 0): Fraction(3, 2)}


def test_q_series_fifth_coefficient():
    # direct evaluation of C(1/2, 4)
    direct = Fraction(1, 2) * Fraction(-1, 2) * Fraction(-3, 2) * Fraction(-5, 2) / 24
    assert binom_half(4) == direct == Fraction(-5, 128)


def test_q_series_recurrence():
    coeffs = [binom_half(m) for m in range(13)]
    for m in range(12):
        assert coeffs[m + 1] == coeffs[m] * (Fraction(1, 2) - m) / (m + 1)


def test_sqrt_of_one_plus_x2():
    g = _sqrt({(0, 0): 1, (1, 0): 1}, 4)
    assert g == {(m, 0): binom_half(m) for m in range(4)}


def test_sqrt_of_pure_square_term():
    assert _sqrt({(0, 0): 4}, 3) == {(0, 0): Fraction(2)}


def test_sqrt_of_perfect_square():
    g = _sqrt({(0, 0): 1, (1, 0): 2, (2, 0): 1}, 3)
    assert g == {(0, 0): Fraction(1), (1, 0): Fraction(1)}


def test_sqrt_squares_back(rng):
    for _ in range(40):
        order = rng.randint(1, 6)
        lead = rng.choice([1, 4, Fraction(9, 4), Fraction(1, 16)])
        terms = {(i, j): Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                 for i in range(order) for j in range(order - i)}
        f = {k: c for k, c in {**terms, (0, 0): lead}.items() if c}
        g = _sqrt(f, order)
        assert g[(0, 0)] == rational_sqrt(lead)
        assert _mul(g, g, order) == f


def test_sqrt_of_zero_rejected():
    with pytest.raises(ValueError):
        _sqrt({(1, 0): 1}, 3)


def test_sqrt_needs_perfect_square():
    with pytest.raises(ValueError):
        _sqrt({(0, 0): 2, (1, 0): 1}, 2)
    for bad in (Fraction(-1), Fraction(1, 2)):
        with pytest.raises(ValueError):
            rational_sqrt(bad)
    assert rational_sqrt(Fraction(9, 4)) == Fraction(3, 2)


def test_sqrt_with_polynomial_tail_coefficients():
    # a root whose tail mixes both variables: (1 + dx*t)^2
    f = {(0, 0): 1, (1, 1): 2, (2, 2): 1}
    assert _sqrt(f, 5) == {(0, 0): Fraction(1), (1, 1): Fraction(1)}


def test_binom_half_zero():
    assert binom_half(0) == 1


def test_series_arithmetic_truncates_consistently():
    # the product keeps total degrees below its order, whatever its factors hold
    a = {(0, 0): 1, (1, 0): 2, (2, 0): 3}
    b = {(1, 0): 1, (0, 2): 1, (3, 0): 9}
    assert _mul(a, b, 3) == {(1, 0): 1, (2, 0): 2, (0, 2): 1}
    assert _add(a, {(1, 0): 1, (0, 2): 1}) == {(0, 0): 1, (1, 0): 3, (2, 0): 3, (0, 2): 1}


def test_compose_truncates_powers():
    # sum_m z^m at z = dx + t: the coefficient of dx^i t^j is C(i + j, i)
    z = {(1, 0): 1, (0, 1): 1}
    assert _compose([1] * 9, z, 4) == {(i, j): math.comb(i + j, i)
                                        for i in range(4) for j in range(4 - i)}
