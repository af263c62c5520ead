import itertools
from fractions import Fraction

import pytest

from ptl.linalg import SparseRationalEchelon
from ptl.poisson import darboux_structure, poisson_bracket, reflection_structure
from ptl.poly import SparsePolynomial
from ptl.weyl import (
    GroupSpec,
    SignedPermutation,
    act,
    bn_class_count,
    conjugacy_class_count_brute,
    dn_class_count,
    fixed_point_free_class_count,
    hh0_dimension,
    invariant_basis,
    invariant_basis_raw,
    monomials_of_degree,
    orbit_rep,
    _sn_orbit,
)


def _random_element(spec, rng):
    perm = list(range(spec.n))
    rng.shuffle(perm)
    if spec.family in ("symmetric-full", "symmetric-reflection"):
        signs = (1,) * spec.n
    elif spec.family == "hyperoctahedral":
        signs = tuple(rng.choice((1, -1)) for _ in range(spec.n))
    else:
        signs = [rng.choice((1, -1)) for _ in range(spec.n - 1)]
        prod = 1
        for s in signs:
            prod *= s
        signs = tuple(signs + [prod])
    return SignedPermutation(tuple(perm), signs)


def _random_poly(ctx, rng, max_terms=3, max_deg=2):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        expo = tuple(rng.randint(0, max_deg) for _ in range(ctx.arity))
        terms[expo] = terms.get(expo, 0) + Fraction(rng.randint(-3, 3))
    return SparsePolynomial(ctx, terms)


def test_signed_permutation_group_axioms(rng):
    for _ in range(50):
        spec = GroupSpec("hyperoctahedral", rng.randint(1, 5))
        g = _random_element(spec, rng)
        h = _random_element(spec, rng)
        k = _random_element(spec, rng)
        e = SignedPermutation.identity(spec.n)
        assert g.compose(e) == g == e.compose(g)
        assert g.compose(g.inverse()) == e
        assert g.compose(h.compose(k)) == g.compose(h).compose(k)


def test_membership_predicates():
    g = SignedPermutation((1, 0), (1, 1))
    assert GroupSpec("symmetric-full", 2).contains(g)
    assert GroupSpec("demihyperoctahedral", 2).contains(g)
    h = SignedPermutation((0, 1), (-1, 1))
    assert not GroupSpec("demihyperoctahedral", 2).contains(h)
    assert GroupSpec("hyperoctahedral", 2).contains(h)


def test_act_examples():
    spec = GroupSpec("symmetric-full", 2)
    ctx = spec.context()
    x1 = SparsePolynomial.variable(ctx, "x1")
    swap = SignedPermutation((1, 0), (1, 1))
    assert act(swap, x1, spec) == SparsePolynomial.variable(ctx, "x2")

    d2 = GroupSpec("demihyperoctahedral", 2)
    flip = SignedPermutation((0, 1), (-1, -1))
    x1y2 = SparsePolynomial(ctx, {(1, 0, 0, 1): 1})
    assert act(flip, x1y2, d2) == x1y2

    b2 = GroupSpec("hyperoctahedral", 2)
    flip1 = SignedPermutation((0, 1), (-1, 1))
    assert act(flip1, x1, b2) == -x1


def test_act_is_group_action(rng):
    for family in ("hyperoctahedral", "demihyperoctahedral", "symmetric-full",
                   "symmetric-reflection"):
        spec = GroupSpec(family, 3)
        ctx = spec.context()
        for _ in range(25):
            g = _random_element(spec, rng)
            h = _random_element(spec, rng)
            f = _random_poly(ctx, rng)
            assert act(g.compose(h), f, spec) == act(g, act(h, f, spec), spec)


def test_act_commutes_with_bracket(rng):
    cases = [
        (GroupSpec("hyperoctahedral", 2), darboux_structure(2)),
        (GroupSpec("demihyperoctahedral", 3), darboux_structure(3)),
        (GroupSpec("symmetric-full", 3), darboux_structure(3)),
        (GroupSpec("symmetric-reflection", 3), reflection_structure(3)),
    ]
    for spec, P in cases:
        for _ in range(25):
            g = _random_element(spec, rng)
            f = _random_poly(P.context, rng)
            h = _random_poly(P.context, rng)
            lhs = act(g, poisson_bracket(f, h, P), spec)
            rhs = poisson_bracket(act(g, f, spec), act(g, h, spec), P)
            assert lhs == rhs


def test_act_rejects_outside_elements():
    spec = GroupSpec("demihyperoctahedral", 2)
    f = SparsePolynomial.variable(spec.context(), "x1")
    with pytest.raises(ValueError):
        act(SignedPermutation((0, 1), (-1, 1)), f, spec)


def test_invariant_basis_hyperoctahedral_rank_one():
    spec = GroupSpec("hyperoctahedral", 1)
    basis = invariant_basis(spec, 2)
    texts = sorted(b.text() for b in basis)
    assert texts == ["x1*y1", "x1^2", "y1^2"]
    assert invariant_basis(spec, 1) == []


def test_invariant_basis_demi_2_degree_2():
    basis = invariant_basis(GroupSpec("demihyperoctahedral", 2), 2)
    assert len(basis) == 6
    texts = {b.text() for b in basis}
    assert "x1^2 + x2^2" in texts
    assert "x1*x2" in texts
    assert "x1*y2 + x2*y1" in texts


def test_invariant_basis_is_fixed_by_generators(rng):
    for family in ("symmetric-full", "hyperoctahedral", "demihyperoctahedral",
                   "symmetric-reflection"):
        spec = GroupSpec(family, 3)
        for degree in (2, 3, 4):
            for b in invariant_basis(spec, degree):
                for g in spec.generators():
                    assert act(g, b, spec) == b


def test_averaging_lands_in_span(rng):
    # the Reynolds image of any monomial lies in the span of the basis
    for family, n, degree in (("hyperoctahedral", 2, 4), ("demihyperoctahedral", 2, 4),
                              ("symmetric-reflection", 3, 4),
                              ("symmetric-reflection", 4, 4)):
        spec = GroupSpec(family, n)
        ctx = spec.context()
        ech = SparseRationalEchelon()
        for b in invariant_basis_raw(spec, degree):
            assert ech.add({e: Fraction(c) for e, c in b.items()})
        for expo in monomials_of_degree(2 * spec.pairs, degree):
            avg = SparsePolynomial.zero(ctx)
            mono = SparsePolynomial.monomial(ctx, expo)
            for g in spec.elements():
                avg = avg + act(g, mono, spec)
            if avg.terms:
                red, _ = ech.reduce_only(dict(avg.terms))
                assert not red


def test_reflection_basis_sizes():
    # dimensions of the S_n-invariants on the reflection pair, by degree
    sizes = {3: [1, 0, 3, 4, 6, 10, 17, 18, 31], 4: [1, 0, 3, 4, 11, 12, 32]}
    for n, expected in sizes.items():
        spec = GroupSpec("symmetric-reflection", n)
        assert [len(invariant_basis_raw(spec, d)) for d in range(len(expected))] == expected


def _permutation_orbit(expo, m):
    # reference orbit: every index permutation of the (x, y) pairs, deduplicated
    pairs = [(expo[i], expo[m + i]) for i in range(m)]
    return sorted({tuple(p[0] for p in pp) + tuple(p[1] for p in pp)
                   for pp in itertools.permutations(pairs)})


def _scanned_basis(spec, degree, sector):
    # reference construction: scan every monomial, keep the orbit
    # representatives (pairs sorted descending) that the sign subgroup fixes
    m = spec.pairs
    out = []
    for expo in monomials_of_degree(2 * m, degree):
        pairs = [(expo[i], expo[m + i]) for i in range(m)]
        if pairs != sorted(pairs, reverse=True):
            continue
        parities = {(a + b) % 2 for a, b in pairs}
        if spec.family == "hyperoctahedral":
            keep = parities == {0} and sector != "-"
        elif spec.family == "demihyperoctahedral":
            keep = len(parities) == 1 and sector in (None, "+-"[min(parities)])
        else:
            keep = True
        if keep:
            out.append({e: 1 for e in _permutation_orbit(expo, m)})
    out.sort(key=lambda d: max(d), reverse=True)
    return out


def test_direct_orbit_enumeration_matches_scan():
    for family in ("symmetric-full", "hyperoctahedral", "demihyperoctahedral"):
        for n in range(1, 5):
            spec = GroupSpec(family, n)
            for degree in range(9):
                for sector in (None, "+", "-"):
                    basis = invariant_basis_raw(spec, degree, sector)
                    reference = _scanned_basis(spec, degree, sector)
                    assert [list(b.items()) for b in basis] == \
                        [list(b.items()) for b in reference], (family, n, degree, sector)


def test_sn_orbit_matches_permutations():
    # any monomial, representative or not, against the permutation scan
    for m in range(1, 5):
        for degree in range(5):
            for expo in monomials_of_degree(2 * m, degree):
                assert _sn_orbit(expo, m) == _permutation_orbit(expo, m)
                assert orbit_rep(expo, m) == max(_permutation_orbit(expo, m))


def test_stabilizer_basis_counts():
    # S_{n-1} orbit sums on the surviving 2(n-1) coordinates
    basis = invariant_basis_raw(GroupSpec("symmetric-full", 2), 2)
    # degree-2 monomials in x1,x2,y1,y2 up to swapping index 1<->2
    assert len(basis) == 6


def test_hh0_dimensions():
    assert hh0_dimension("typeA", 5) == 1
    assert hh0_dimension("typeD", 6) == 6
    assert hh0_dimension("typeB", 3) == 3
    with pytest.raises(ValueError):
        hh0_dimension("typeD", 1)


def test_typeD_even_part_characterization():
    # even-part partitions of 6: (5,1),(4,2),(3,3),(3,1,1,1),(2,2,1,1),(1^6)
    assert hh0_dimension("typeD", 6) == 6


def test_class_counts_against_brute():
    for n in (2, 3, 4):
        assert dn_class_count(n) == conjugacy_class_count_brute(
            GroupSpec("demihyperoctahedral", n))
        assert bn_class_count(n) == conjugacy_class_count_brute(
            GroupSpec("hyperoctahedral", n))


def test_fixed_point_free_scan_matches_formulas():
    for n in (2, 3, 4, 5):
        assert fixed_point_free_class_count(
            GroupSpec("demihyperoctahedral", n)) == hh0_dimension("typeD", n)
    for n in (2, 3, 4):
        assert fixed_point_free_class_count(
            GroupSpec("hyperoctahedral", n)) == hh0_dimension("typeB", n)
    # reflection representation of S_n: only the n-cycle class is fixed-point free
    for n in (2, 3, 4):
        assert fixed_point_free_class_count(
            GroupSpec("symmetric-reflection", n)) == 1


def test_signed_cycle_type():
    g = SignedPermutation((1, 0, 2), (1, -1, -1))
    pos, neg = g.signed_cycle_type()
    assert pos == () and sorted(neg) == [1, 2]
