from fractions import Fraction

import pytest

from ptl.burgers import (
    BiSeries,
    burgers_residual,
    burgers_residual_of,
    closed_form_witness,
)


def test_closed_form_witness_solves():
    u = closed_form_witness(6)
    assert burgers_residual_of(u).truncate(6).is_zero()


def test_closed_form_other_base_points():
    for x0 in (Fraction(1), Fraction(2), Fraction(-1), Fraction(1, 2)):
        u = closed_form_witness(5, x0=x0)
        assert burgers_residual_of(u).truncate(5).is_zero()


def test_constant_is_solution():
    assert burgers_residual_of(BiSeries.constant(5, 8)).is_zero()


def test_linear_is_not_solution():
    u = BiSeries.dx(8) + Fraction(1)
    residual = burgers_residual_of(u)
    assert residual.terms == {(0, 0): Fraction(1)}


def test_h0_driven_solutions():
    assert burgers_residual([0, 1, 0, 0], 6).is_zero()
    assert burgers_residual([0, 4, 0], 5).is_zero()
    assert burgers_residual([0, 1, 1, 0], 5, x0=Fraction(3, 4)).is_zero()
    assert burgers_residual([0, 1, Fraction(3, 4)], 5, x0=2).is_zero()


def test_h0_requires_leading_x2():
    with pytest.raises(ValueError):
        burgers_residual([1, 0, 0], 4)
    with pytest.raises(ValueError):
        burgers_residual([0, 1], 4, x0=0)


def test_biseries_truncation_arithmetic():
    a = BiSeries({(0, 0): 1, (1, 0): 2}, 3)
    b = BiSeries({(0, 1): 1}, 3)
    p = a * b
    assert p.terms == {(0, 1): Fraction(1), (1, 1): Fraction(2)}
    assert (a - a).is_zero()
    assert a.diff_dx().terms == {(0, 0): Fraction(2)}
