from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ptl.solver import polynomial_text
from reference import Polynomial, s_names

S4 = s_names(4)


def sv(name):
    return Polynomial.variable(S4, name)


def test_monomial_product():
    s1, s2 = sv("s1"), sv("s2")
    assert (s1 * s2 * s1).text() == "s1^2*s2"


def test_power_rule():
    s1 = sv("s1")
    assert (s1 * s1).derivative("s1") == 2 * s1


def test_degree_and_grading():
    s2, s3 = sv("s2"), sv("s3")
    p = s2 * s3
    assert [sum(i * e for i, e in enumerate(expo, 1)) for expo in p.terms] == [5]
    expo = next(iter(p.terms))
    assert sum(4 * (1 - i) * e for i, e in enumerate(expo, 1)) == 4 * (1 - 2) + 4 * (1 - 3)


def test_context_mismatch_raises():
    with pytest.raises(ValueError):
        sv("s1") * Polynomial.variable(s_names(3), "s1")


def test_unknown_variable_raises():
    with pytest.raises(ValueError):
        sv("s1").derivative("s9")


def test_text_fixed_strings():
    # the display form `typed families` prints: graded-lex descending,
    # explicit rational coefficients, the leading sign attached
    s1, s2, s3, s4 = (sv(f"s{i}") for i in range(1, 5))
    s2inv = Polynomial.variable(S4, "s2", -1)
    assert s2inv.text() == "s2^-1"
    assert (Fraction(3, 2) * s2inv * s3).text() == "3/2*s2^-1*s3"
    assert (Fraction(5, 2) * s2inv * s4 - Fraction(5, 8) * s2inv * s2inv * s3 * s3).text() == \
        "5/2*s2^-1*s4 - 5/8*s2^-2*s3^2"
    assert polynomial_text({}) == "0"
    assert polynomial_text({(0, 0, 0, 0): Fraction(-7, 3)}) == "-7/3"
    assert (s4 + s1 * s1 * s2).text() == "s1^2*s2 + s4"
    assert (2 * s2 - s1).text() == (-s1 + 2 * s2).text() == "2*s2 - s1"
    assert (1 - 3 * s1 * s3 + s2 * s2).text() == "-3*s1*s3 + s2^2 + 1"
    assert polynomial_text({(1, 2, 0, 0, 1): Fraction(-7, 2), (0, 3, 0, 1, 0): 1}) == \
        "-7/2*s1*s2^2*s5 + s2^3*s4"


def _poly_strategy(names):
    coeff = st.fractions(min_value=-4, max_value=4, max_denominator=6)
    expo = st.tuples(*[st.integers(min_value=0, max_value=3)] * len(names))
    term = st.tuples(expo, coeff)
    return st.lists(term, max_size=5).map(lambda ts: Polynomial(names, ts))


@settings(max_examples=60, deadline=None)
@given(_poly_strategy(S4), _poly_strategy(S4), _poly_strategy(S4))
def test_ring_axioms(p, q, r):
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert p * q == q * p
    assert p + (-p) == 0


@settings(max_examples=30, deadline=None)
@given(_poly_strategy(S4))
def test_text_ignores_term_order(p):
    # one polynomial, one string: however its terms were inserted
    terms = dict(list(p.terms.items())[::-1])
    assert terms == p.terms and polynomial_text(terms) == p.text()
    assert p.text().count(" + ") + p.text().count(" - ") == max(len(p.terms), 1) - 1
