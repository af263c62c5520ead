"""The exact square roots behind `series burgers`: the Taylor coefficients
C(1/2, m) of sqrt(1+z) and the principal root of a bivariate series."""

from fractions import Fraction

import pytest

from ptl.burgers import BiSeries, _sqrt_biseries, binom_half, rational_sqrt


def test_q_series_printed_values():
    assert [binom_half(m) for m in range(4)] == [
        Fraction(1), Fraction(1, 2), Fraction(-1, 8), Fraction(1, 16)]


def test_q_series_order_zero():
    assert _sqrt_biseries(BiSeries.constant(Fraction(9, 4), 1), 1).terms == {
        (0, 0): Fraction(3, 2)}


def test_q_series_fifth_coefficient():
    # direct evaluation of C(1/2, 4)
    direct = Fraction(1, 2) * Fraction(-1, 2) * Fraction(-3, 2) * Fraction(-5, 2) / 24
    assert binom_half(4) == direct == Fraction(-5, 128)


def test_q_series_recurrence():
    coeffs = [binom_half(m) for m in range(13)]
    for m in range(12):
        assert coeffs[m + 1] == coeffs[m] * (Fraction(1, 2) - m) / (m + 1)


def test_sqrt_of_one_plus_x2():
    g = _sqrt_biseries(BiSeries({(0, 0): 1, (1, 0): 1}, 4), 4)
    assert g.terms == {(m, 0): binom_half(m) for m in range(4)}


def test_sqrt_of_pure_square_term():
    g = _sqrt_biseries(BiSeries.constant(4, 3), 3)
    assert g.terms == {(0, 0): Fraction(2)}


def test_sqrt_of_perfect_square():
    g = _sqrt_biseries(BiSeries({(0, 0): 1, (1, 0): 2, (2, 0): 1}, 3), 3)
    assert g.terms == {(0, 0): Fraction(1), (1, 0): Fraction(1)}


def test_sqrt_squares_back(rng):
    for _ in range(40):
        order = rng.randint(1, 6)
        lead = rng.choice([1, 4, Fraction(9, 4), Fraction(1, 16)])
        terms = {(i, j): Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                 for i in range(order) for j in range(order - i)}
        f = BiSeries({**terms, (0, 0): lead}, order)
        g = _sqrt_biseries(f, order)
        assert g.terms[(0, 0)] == rational_sqrt(lead)
        assert (g * g).terms == f.terms


def test_sqrt_of_zero_rejected():
    with pytest.raises(ValueError):
        _sqrt_biseries(BiSeries({(1, 0): 1}, 3), 3)


def test_sqrt_needs_perfect_square():
    with pytest.raises(ValueError):
        _sqrt_biseries(BiSeries({(0, 0): 2, (1, 0): 1}, 2), 2)
    for bad in (Fraction(-1), Fraction(1, 2)):
        with pytest.raises(ValueError):
            rational_sqrt(bad)
    assert rational_sqrt(Fraction(9, 4)) == Fraction(3, 2)


def test_sqrt_with_polynomial_tail_coefficients():
    # a root whose tail mixes both variables: (1 + dx*t)^2
    f = BiSeries({(0, 0): 1, (1, 1): 2, (2, 2): 1}, 5)
    assert _sqrt_biseries(f, 5).terms == {(0, 0): Fraction(1), (1, 1): Fraction(1)}


def test_binom_half_zero():
    assert binom_half(0) == 1


def test_series_arithmetic_truncates_consistently():
    a = BiSeries({(0, 0): 1, (1, 0): 2, (2, 0): 3}, 3)
    b = BiSeries({(1, 0): 1, (0, 2): 1, (3, 0): 9}, 4)
    s = a + b
    assert s.order == 3
    assert s.terms == {(0, 0): 1, (1, 0): 3, (2, 0): 3, (0, 2): 1}
    p = a * b
    assert p.order == 3
    assert p.terms == {(1, 0): 1, (2, 0): 2, (0, 2): 1}
