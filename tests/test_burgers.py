from fractions import Fraction

import pytest

from ptl.burgers import _add, _diff, _mul, burgers_residual, burgers_residual_of, closed_form_residual


def test_closed_form_solves():
    assert closed_form_residual(6) == {}


def test_closed_form_other_base_points():
    for x0 in (Fraction(1), Fraction(2), Fraction(-1), Fraction(1, 2)):
        assert closed_form_residual(5, x0=x0) == {}


def test_closed_form_needs_nonzero_base_point():
    with pytest.raises(ValueError):
        closed_form_residual(4, x0=0)


def test_constant_is_solution():
    assert burgers_residual_of({(0, 0): Fraction(5)}, 7) == {}


def test_linear_is_not_solution():
    u = {(0, 0): Fraction(1), (1, 0): Fraction(1)}
    assert burgers_residual_of(u, 7) == {(0, 0): Fraction(1)}


def test_h0_driven_solutions():
    assert burgers_residual([0, 1, 0, 0], 6) == {}
    assert burgers_residual([0, 4, 0], 5) == {}
    assert burgers_residual([0, 1, 1, 0], 5, x0=Fraction(3, 4)) == {}
    assert burgers_residual([0, 1, Fraction(3, 4)], 5, x0=2) == {}


def test_h0_requires_leading_x2():
    with pytest.raises(ValueError):
        burgers_residual([1, 0, 0], 4)
    with pytest.raises(ValueError):
        burgers_residual([0, 1], 4, x0=0)


def test_series_truncation_arithmetic():
    a = {(0, 0): Fraction(1), (1, 0): Fraction(2)}
    b = {(0, 1): Fraction(1)}
    assert _mul(a, b, 3) == {(0, 1): Fraction(1), (1, 1): Fraction(2)}
    assert _mul(a, b, 2) == {(0, 1): Fraction(1)}
    assert _add(a, a, -1) == {}
    assert _diff(a, 0) == {(0, 0): Fraction(2)}
    assert _diff(a, 1) == {}
