from fractions import Fraction

import pytest

from ptl.poisson import (
    darboux_structure,
    raw_bracket,
    reflection_structure,
)
from reference import Polynomial, darboux_names, poisson_bracket


def _var(P, name):
    return Polynomial.variable(darboux_names(P.pairs), name)


def _sl2(P):
    """(E, F, H) = (sum x_i^2, sum y_i^2, sum x_i y_i) over the rank-n
    coordinates; on the reflection pair, x_n = -(x_1 + ... + x_{n-1})."""
    m = P.pairs
    xs = [_var(P, f"x{i}") for i in range(1, m + 1)]
    ys = [_var(P, f"y{i}") for i in range(1, m + 1)]
    if P.kind == "reflection":
        xs, ys = xs + [-sum(xs[1:], xs[0])], ys + [-sum(ys[1:], ys[0])]
    return (sum(x * x for x in xs), sum(y * y for y in ys),
            sum(x * y for x, y in zip(xs, ys)))


def _random_poly(P, rng, max_terms=3, max_deg=2):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        expo = tuple(rng.randint(0, max_deg) for _ in range(2 * P.pairs))
        terms[expo] = terms.get(expo, 0) + Fraction(rng.randint(-4, 4))
    return Polynomial(darboux_names(P.pairs), terms)


def test_darboux_basic_relations():
    P = darboux_structure(1)
    x, y = _var(P, "x1"), _var(P, "y1")
    assert poisson_bracket(x, y, P) == 1
    assert poisson_bracket(x * x, y * y, P) == 4 * x * y


def test_reflection_structure_constant():
    R = reflection_structure(2)
    x, y = _var(R, "x1"), _var(R, "y1")
    assert poisson_bracket(x, y, R) == Fraction(1, 2)
    R3 = reflection_structure(3)
    x1, y2 = _var(R3, "x1"), _var(R3, "y2")
    assert poisson_bracket(x1, y2, R3) == Fraction(-1, 3)
    assert poisson_bracket(x1, _var(R3, "y1"), R3) == Fraction(2, 3)


def test_sl2_printed_generators():
    P = darboux_structure(2)
    x1, x2, y1, y2 = (_var(P, v) for v in ("x1", "x2", "y1", "y2"))
    assert _sl2(P) == (x1 * x1 + x2 * x2, y1 * y1 + y2 * y2, x1 * y1 + x2 * y2)
    R = reflection_structure(3)
    x1, x2, y1, y2 = (_var(R, v) for v in ("x1", "x2", "y1", "y2"))
    E, _, H = _sl2(R)
    assert E == 2 * x1 * x1 + 2 * x1 * x2 + 2 * x2 * x2
    assert H == 2 * x1 * y1 + x1 * y2 + x2 * y1 + 2 * x2 * y2


def test_sl2_brackets():
    for P in (darboux_structure(1), darboux_structure(3), reflection_structure(3)):
        E, F, H = _sl2(P)
        assert poisson_bracket(E, H, P) == 2 * E
        assert poisson_bracket(F, H, P) == -2 * F
        assert poisson_bracket(E, F, P) == 4 * H


def test_bracket_context_mismatch():
    P = darboux_structure(2)
    Q = darboux_structure(1)
    with pytest.raises(ValueError):
        poisson_bracket(_var(P, "x1"), _var(Q, "x1"), P)


@pytest.mark.parametrize("structure", ["darboux", "reflection"])
def test_jacobi_leibniz_antisymmetry(structure, rng):
    P = darboux_structure(2) if structure == "darboux" else reflection_structure(3)
    for _ in range(100):
        f = _random_poly(P, rng)
        g = _random_poly(P, rng)
        h = _random_poly(P, rng)
        br = lambda a, b: poisson_bracket(a, b, P)
        assert br(f, g) == -br(g, f)
        assert br(f * g, h) == f * br(g, h) + g * br(f, h)
        jac = br(f, br(g, h)) + br(g, br(h, f)) + br(h, br(f, g))
        assert not jac.terms


def test_degree_homogeneity(rng):
    P = darboux_structure(3)
    for _ in range(30):
        e1 = tuple(rng.randint(0, 3) for _ in range(6))
        e2 = tuple(rng.randint(0, 3) for _ in range(6))
        m1 = Polynomial(darboux_names(3), {e1: 1})
        m2 = Polynomial(darboux_names(3), {e2: 1})
        b = poisson_bracket(m1, m2, P)
        if b.terms:
            assert {sum(e) for e in b.terms} == {sum(e1) + sum(e2) - 2}


def test_reflection_sum_images_vanish():
    # the eliminated-coordinate images of sum x_i and sum y_i are zero
    from ptl.weyl import _sn_orbit, restrict_to_zero_sum
    for n in (2, 3, 4):
        pad = (0,) * (n - 1)

        def power_sum(a, b):
            orbit = {e: 1 for e in _sn_orbit((a,) + pad + (b,) + pad, n)}
            return next(restrict_to_zero_sum(n, a + b, [orbit]))

        assert not power_sum(1, 0)
        assert not power_sum(0, 1)
        assert power_sum(2, 0)  # sum x_i^2 survives


def test_ad_h_acts_diagonally(rng):
    # {., H} scales each (x-degree, y-degree) bicomponent by xdeg - ydeg
    from ptl.weyl import GroupSpec
    from reference import invariant_basis
    cases = [(GroupSpec("hyperoctahedral", 2), darboux_structure(2)),
             (GroupSpec("symmetric-reflection", 3), reflection_structure(3))]
    for spec, P in cases:
        _, _, H = _sl2(P)
        m = P.pairs
        for degree in (2, 3, 4):
            for f in invariant_basis(spec, degree):
                out = poisson_bracket(f, H, P)
                expected = Polynomial(f.names, {expo: c * (sum(expo[:m]) - sum(expo[m:]))
                                                for expo, c in f.terms.items()})
                assert out == expected


def test_raw_bracket_matches_public(rng):
    P = darboux_structure(2)
    for _ in range(20):
        f = _random_poly(P, rng)
        g = _random_poly(P, rng)
        fd = {e: int(c) for e, c in f.terms.items()}
        gd = {e: int(c) for e, c in g.terms.items()}
        raw = raw_bracket(fd, gd, P)
        pub = poisson_bracket(f, g, P)
        assert {e: Fraction(c) for e, c in raw.items()} == dict(pub.terms)

    R = reflection_structure(3)
    for _ in range(10):
        f = _random_poly(R, rng)
        g = _random_poly(R, rng)
        fd = {e: int(c) for e, c in f.terms.items()}
        gd = {e: int(c) for e, c in g.terms.items()}
        raw = raw_bracket(fd, gd, R)  # scaled by n = 3
        pub = poisson_bracket(f, g, R) * 3
        assert {e: Fraction(c) for e, c in raw.items()} == dict(pub.terms)
