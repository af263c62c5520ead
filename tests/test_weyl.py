import itertools
from collections import Counter
from fractions import Fraction

import pytest

from ptl import linalg, weyl
from ptl.engine import BracketSpanProblem, hp0_graded_dims
from ptl.partitions import hh0_dimension
from ptl.poisson import darboux_structure, reflection_structure
from ptl.weyl import (
    GroupSpec,
    invariant_basis_raw,
    monomials_of_degree,
    orbit_rep,
    orbit_size,
    reflection_dimension,
    _sn_orbit,
)
from reference import (
    Polynomial,
    SignedPermutation,
    SparseRationalEchelon,
    act,
    bn_class_count,
    conjugacy_class_count_brute,
    contains,
    darboux_names,
    dn_class_count,
    elements,
    exact_reflection_invariants,
    fixed_point_free_class_count,
    generators,
    invariant_basis,
    poisson_bracket,
    whole_basis,
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


def _random_poly(names, rng, max_terms=3, max_deg=2):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        expo = tuple(rng.randint(0, max_deg) for _ in range(len(names)))
        terms[expo] = terms.get(expo, 0) + Fraction(rng.randint(-3, 3))
    return Polynomial(names, terms)


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
    assert contains(GroupSpec("symmetric-full", 2), g)
    assert contains(GroupSpec("demihyperoctahedral", 2), g)
    h = SignedPermutation((0, 1), (-1, 1))
    assert not contains(GroupSpec("demihyperoctahedral", 2), h)
    assert contains(GroupSpec("hyperoctahedral", 2), h)


def test_act_examples():
    spec = GroupSpec("symmetric-full", 2)
    names = darboux_names(2)
    x1 = Polynomial.variable(names, "x1")
    swap = SignedPermutation((1, 0), (1, 1))
    assert act(swap, x1, spec) == Polynomial.variable(names, "x2")

    d2 = GroupSpec("demihyperoctahedral", 2)
    flip = SignedPermutation((0, 1), (-1, -1))
    x1y2 = Polynomial(names, {(1, 0, 0, 1): 1})
    assert act(flip, x1y2, d2) == x1y2

    b2 = GroupSpec("hyperoctahedral", 2)
    flip1 = SignedPermutation((0, 1), (-1, 1))
    assert act(flip1, x1, b2) == -x1


def test_act_is_group_action(rng):
    for family in ("hyperoctahedral", "demihyperoctahedral", "symmetric-full",
                   "symmetric-reflection"):
        spec = GroupSpec(family, 3)
        for _ in range(25):
            g = _random_element(spec, rng)
            h = _random_element(spec, rng)
            f = _random_poly(darboux_names(spec.pairs), rng)
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
            f = _random_poly(darboux_names(P.pairs), rng)
            h = _random_poly(darboux_names(P.pairs), rng)
            lhs = act(g, poisson_bracket(f, h, P), spec)
            rhs = poisson_bracket(act(g, f, spec), act(g, h, spec), P)
            assert lhs == rhs


def test_act_rejects_outside_elements():
    spec = GroupSpec("demihyperoctahedral", 2)
    f = Polynomial.variable(darboux_names(spec.pairs), "x1")
    with pytest.raises(ValueError):
        act(SignedPermutation((0, 1), (-1, 1)), f, spec)


def test_invariant_basis_hyperoctahedral_rank_one():
    spec = GroupSpec("hyperoctahedral", 1)
    x, y = (Polynomial.variable(darboux_names(1), v) for v in ("x1", "y1"))
    assert invariant_basis(spec, 2) == [x * x, x * y, y * y]
    assert invariant_basis(spec, 1) == []


def test_invariant_basis_demi_2_degree_2():
    basis = invariant_basis(GroupSpec("demihyperoctahedral", 2), 2)
    assert len(basis) == 6
    x1, x2, y1, y2 = (Polynomial.variable(darboux_names(2), v) for v in ("x1", "x2", "y1", "y2"))
    assert x1 * x1 + x2 * x2 in basis
    assert x1 * x2 in basis
    assert x1 * y2 + x2 * y1 in basis


def test_invariant_basis_is_fixed_by_generators(rng):
    for family in ("symmetric-full", "hyperoctahedral", "demihyperoctahedral",
                   "symmetric-reflection"):
        spec = GroupSpec(family, 3)
        for degree in (2, 3, 4):
            for b in invariant_basis(spec, degree):
                for g in generators(spec):
                    assert act(g, b, spec) == b


def test_averaging_lands_in_span(rng):
    # the Reynolds image of any monomial lies in the span of the basis
    for family, n, degree in (("hyperoctahedral", 2, 4), ("demihyperoctahedral", 2, 4),
                              ("symmetric-reflection", 3, 4),
                              ("symmetric-reflection", 4, 4)):
        spec = GroupSpec(family, n)
        ech = SparseRationalEchelon()
        for b in whole_basis(spec, degree):
            assert ech.add({e: Fraction(c) for e, c in b.items()})
        for expo in monomials_of_degree(2 * spec.pairs, degree):
            avg = Polynomial(darboux_names(spec.pairs))
            mono = Polynomial(darboux_names(spec.pairs), {expo: 1})
            for g in elements(spec):
                avg = avg + act(g, mono, spec)
            if avg.terms:
                assert not ech.add(dict(avg.terms))


def test_reflection_basis_sizes():
    # dimensions of the S_n-invariants on the reflection pair, by degree
    sizes = {3: [1, 0, 3, 4, 6, 10, 17, 18, 31], 4: [1, 0, 3, 4, 11, 12, 32]}
    for n, expected in sizes.items():
        spec = GroupSpec("symmetric-reflection", n)
        assert [sum(len(invariant_basis_raw(spec, d, p)) for p in range(d + 1))
                for d in range(len(expected))] == expected


def test_counted_reflection_dimension_matches_exact_greedy():
    # D(p, q), counted from S_n-orbits on C^{2n}, against the bidegrees of
    # the invariants that exact rational elimination keeps; the mod-p
    # selection stops at D(p, q) elements
    for n, top in ((2, 6), (3, 6), (4, 6), (5, 5)):
        for d in range(top + 1):
            exact = Counter(sum(next(iter(f))[:n - 1]) for f in exact_reflection_invariants(n, d))
            for p in range(d + 1):
                assert reflection_dimension(n, p, d - p) == exact[p], (n, d, p)
                spec = GroupSpec("symmetric-reflection", n)
                assert len(invariant_basis_raw(spec, d, p)) == exact[p], (n, d, p)


@pytest.mark.parametrize("start", [2, 3])
def test_reflection_selection_survives_small_primes(monkeypatch, start):
    # a selection prime too small to keep D(p, q) candidates independent
    # hands over to the next one (at 2, every odd bidegree of n = 2, whose
    # restricted orbit sums are 2 x^p y^q); the bases keep D(p, q) elements,
    # independent over Q, and the reflection and relative tables stay
    drawn = []
    monkeypatch.setattr(weyl, "_selection_primes", lambda: (
        drawn.append(q) or q for q in itertools.chain([start], linalg.prime_stream())))
    weyl.invariant_basis_raw.cache_clear()
    try:
        for n, top in ((2, 8), (3, 8), (4, 6)):
            spec = GroupSpec("symmetric-reflection", n)
            for d in range(top + 1):
                for p in range(d + 1):
                    basis = invariant_basis_raw(spec, d, p)
                    assert len(basis) == reflection_dimension(n, p, d - p)
                    ech = SparseRationalEchelon()
                    assert all(ech.add({e: Fraction(c) for e, c in b.items()}) for b in basis)
            table = hp0_graded_dims(BracketSpanProblem(spec), top)
            assert dict(table.items()) == {0: 1}
        assert (start == 2) == any(q > start for q in drawn)
        relative = GroupSpec("symmetric-reflection", 4)
        table = hp0_graded_dims(BracketSpanProblem(relative, "last-point-stabilizer"), 6)
        assert dict(table.items()) == {0: 1}
    finally:
        weyl.invariant_basis_raw.cache_clear()


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
                    basis = whole_basis(spec, degree, sector)
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
                assert orbit_size(orbit_rep(expo, m), m) == len(_permutation_orbit(expo, m))


def test_stabilizer_basis_counts():
    # S_{n-1} orbit sums on the surviving 2(n-1) coordinates
    basis = whole_basis(GroupSpec("symmetric-full", 2), 2)
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

