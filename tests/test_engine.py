from fractions import Fraction

import pytest

from ptl import engine, linalg, poisson, solver
from ptl.engine import (
    BracketSpanProblem,
    GuardrailExceeded,
    bracket_membership,
    check_aminus_identity,
    hp0_graded_dims,
    leading_term_identity_report,
)
from ptl.linalg import SparseRationalEchelon
from ptl.partitions import bn_hilbert
from ptl.poisson import darboux_structure, raw_bracket
from ptl.poly import SparsePolynomial
from ptl.solver import kernel_basis
from ptl.weyl import GroupSpec, invariant_basis_raw


def _prob(family, n, subgroup="full"):
    return BracketSpanProblem(GroupSpec(family, n), subgroup)


def test_symmetric_reflection_3_is_trivial():
    table = hp0_graded_dims(_prob("symmetric-reflection", 3), 8)
    assert dict(table.items()) == {0: 1}


def test_symmetric_full_vanishes_everywhere():
    table = hp0_graded_dims(_prob("symmetric-full", 2), 6)
    assert dict(table.items()) == {}


def test_hyperoctahedral_2_table():
    table = hp0_graded_dims(_prob("hyperoctahedral", 2), 8)
    assert dict(table.items()) == {0: 1, 4: 1}


def test_hyperoctahedral_matches_bn_hilbert():
    for n in (2, 3):
        table = hp0_graded_dims(_prob("hyperoctahedral", n), 12)
        assert all(d % 4 == 0 for d in table.entries)
        reindexed = table.reindexed(lambda d: d // 4)
        expected = {e: c for e, c in bn_hilbert(n).items() if 4 * e <= 12}
        assert dict(reindexed.items()) == expected


def test_demihyperoctahedral_2_table():
    table = hp0_graded_dims(_prob("demihyperoctahedral", 2), 8)
    assert dict(table.items()) == {0: 1}


def test_relative_stabilizer_table():
    # HP0(O^{S_n}, O^{S_{n-1}}) = C, concentrated in degree zero
    table = hp0_graded_dims(_prob("symmetric-reflection", 3, "last-point-stabilizer"), 6)
    assert dict(table.items()) == {0: 1}
    table = hp0_graded_dims(_prob("symmetric-reflection", 2, "last-point-stabilizer"), 8)
    assert dict(table.items()) == {0: 1}
    table = hp0_graded_dims(_prob("symmetric-reflection", 4, "last-point-stabilizer"), 6)
    assert dict(table.items()) == {0: 1}


def test_ambient_target_darboux_vanishes():
    # H trivial on the full Darboux plane: brackets reach everything
    table = hp0_graded_dims(_prob("symmetric-full", 1, "ambient"), 4)
    assert dict(table.items()) == {}


def test_certify_always_agrees():
    for family, n, deg in (("hyperoctahedral", 2, 8), ("demihyperoctahedral", 2, 6),
                           ("symmetric-full", 2, 4)):
        fast = hp0_graded_dims(_prob(family, n), deg, certify="fast")
        always = hp0_graded_dims(_prob(family, n), deg, certify="always")
        assert fast == always


def test_generator_reduction_mode_agrees():
    for family, n, deg in (("hyperoctahedral", 2, 8), ("symmetric-full", 2, 6),
                           ("demihyperoctahedral", 2, 8),
                           ("symmetric-reflection", 3, 6)):
        full = hp0_graded_dims(_prob(family, n), deg)
        reduced = hp0_graded_dims(_prob(family, n), deg, generator_mode=True)
        assert full == reduced


def test_hyperoctahedral_4_matches_partition_statistic():
    table = hp0_graded_dims(_prob("hyperoctahedral", 4), 12)
    expected = {e: c for e, c in bn_hilbert(4).items() if 4 * e <= 12}
    assert dict(table.reindexed(lambda d: d // 4).items()) == expected


def test_deficit_certificate_needs_no_rational_fallback(monkeypatch):
    # B_4 and D_4 have rank-deficit cells at degrees 0, 4 and 8, and in the
    # solver components below the families fall short of the modular bound;
    # the certified nullspace settles all of them without rational elimination
    def refuse(*args, **kwargs):
        raise AssertionError("rational fallback taken")

    monkeypatch.setattr(linalg, "rational_nullspace", refuse)
    table = hp0_graded_dims(_prob("hyperoctahedral", 4), 8)
    assert dict(table.items()) == {0: 1, 4: 1, 8: 2}
    table = hp0_graded_dims(_prob("demihyperoctahedral", 4), 8)
    assert dict(table.items()) == {0: 1, 4: 1, 8: 1}
    lifted = []
    monkeypatch.setattr(solver, "certified_nullspace",
                        lambda *a: lifted.append(a) or linalg.certified_nullspace(*a))
    exceptional = ((8, -20, 2), (9, -24, 2), (11, -28, 6), (12, -32, 8),
                   (13, -36, 7), (14, -40, 8), (14, -36, 16))
    for n, w, dim in exceptional:
        assert dict(kernel_basis(n, w).weight_dims.items()) == {w: dim}
    assert len(lifted) == len(exceptional)


def test_fast_certificate_matches_rational_reference(monkeypatch):
    for family in ("hyperoctahedral", "demihyperoctahedral"):
        fast = hp0_graded_dims(_prob(family, 3), 10, certify="fast")
        always = hp0_graded_dims(_prob(family, 3), 10, certify="always")
        assert fast == always
    fast = check_aminus_identity(3, 7)
    certified_rank = engine._certified_rank

    def always_rational(columns, length, dim, **options):
        return certified_rank(columns, length, dim, **dict(options, certify="always"))

    monkeypatch.setattr(engine, "_certified_rank", always_rational)
    assert check_aminus_identity(3, 7) == fast


def test_engine_certification_survives_bad_primes():
    for p in (3, 5, 65537):
        t = hp0_graded_dims(_prob("hyperoctahedral", 2), 8, prime=p)
        assert dict(t.items()) == {0: 1, 4: 1}
        t = hp0_graded_dims(_prob("demihyperoctahedral", 2), 8, prime=p)
        assert dict(t.items()) == {0: 1}


def test_guardrail_raises_with_partial_table():
    with pytest.raises(GuardrailExceeded) as exc:
        hp0_graded_dims(_prob("hyperoctahedral", 2), 8, max_columns=10)
    table = exc.value.table
    assert table.metadata["truncated"] is True
    assert "truncated_at_degree" in table.metadata


def test_membership_certificate_z2():
    P = darboux_structure(1)
    prob = _prob("hyperoctahedral", 1)
    f = SparsePolynomial(P.context, {(1, 1): 4})
    res = bracket_membership(f, prob)
    assert res.certificate is not None
    assert res.certificate.expand(P) == f
    pairs = [(u.text(), v.text(), c) for u, v, c in res.certificate.pairs]
    assert pairs == [("x1^2", "y1^2", Fraction(1))]


def test_membership_constant_in_ambient():
    P = darboux_structure(1)
    prob = _prob("symmetric-full", 1, "ambient")
    one = SparsePolynomial.constant(P.context, 1)
    res = bracket_membership(one, prob)
    assert res.certificate is not None
    assert res.certificate.expand(P) == one


def test_membership_degree_four_bracket():
    # degree-4 invariants of C[x,y]^{Z/2} form the sl2-module V_4 inside brackets
    P = darboux_structure(1)
    prob = _prob("hyperoctahedral", 1)
    f = SparsePolynomial(P.context, {(4, 0): 1})
    res = bracket_membership(f, prob)
    assert res.certificate is not None


def test_membership_residue_idempotent():
    P = darboux_structure(1)
    prob = _prob("hyperoctahedral", 1)
    # degree 0: the constant 1 is not a bracket for B_1
    one = SparsePolynomial.constant(P.context, 1)
    res = bracket_membership(one, prob)
    assert res.certificate is None
    again = bracket_membership(res.residue, prob)
    assert again.residue == res.residue


def test_membership_residue_idempotent_nontrivial():
    # a degree-4 hyperoctahedral(2) invariant with a nonzero class
    from ptl.weyl import invariant_basis
    prob = _prob("hyperoctahedral", 2)
    found = 0
    for f in invariant_basis(GroupSpec("hyperoctahedral", 2), 4):
        res = bracket_membership(f, prob)
        if res.residue is not None:
            found += 1
            again = bracket_membership(res.residue, prob)
            assert again.residue == res.residue
    assert found  # HP0 is one-dimensional in degree 4, so some class is nonzero


def test_trivial_group_plane_vanishes():
    # D_1 is the trivial group on C^2; HP0(C[x,y]) = 0 in every degree
    table = hp0_graded_dims(_prob("demihyperoctahedral", 1), 4)
    assert dict(table.items()) == {}


def test_reflection_rank_one():
    # S_2 on its 2-dimensional reflection pair: trace space is C
    table = hp0_graded_dims(_prob("symmetric-reflection", 2), 8)
    assert dict(table.items()) == {0: 1}


def test_worker_pool_matches_sequential():
    prob = _prob("hyperoctahedral", 2)
    seq = hp0_graded_dims(prob, 8, workers=1)
    par = hp0_graded_dims(prob, 8, workers=2)
    assert seq == par and seq.metadata == par.metadata


def test_membership_rejects_inhomogeneous():
    P = darboux_structure(1)
    x = SparsePolynomial.variable(P.context, "x1")
    with pytest.raises(ValueError):
        bracket_membership(x + x * x, _prob("symmetric-full", 1, "ambient"))


def test_aminus_identity_small():
    assert all(v == "pass" for v in check_aminus_identity(2, 6).values())
    assert all(v == "pass" for v in check_aminus_identity(3, 5).values())


def test_aminus_vacuous_degrees():
    report = check_aminus_identity(3, 2)
    # degree 1: (A_-)_1 = 0 for n = 3
    assert report[1] == "pass"


def test_leading_term_identity(rng):
    # the hand-checkable cases plus random admissible exponents, n in {2, 3}
    fixed = [[(0, 1), (0, 1)], [(2, 1), (0, 1)], [(2, 1), (1, 0)],
             [(1, 2), (0, 1)], [(3, 2), (2, 1), (0, 1)], [(1, 0), (1, 0), (1, 0)]]
    for pairs in fixed:
        rep = leading_term_identity_report(pairs)
        assert rep["ok"], (pairs, rep)
    for n in (2, 3):
        for _ in range(8):
            pairs = []
            for _ in range(n):
                total = rng.choice([1, 3, 5])
                a = rng.randint(0, total)
                pairs.append((a, total - a))
            pairs.sort(key=lambda ab: (ab[0] + ab[1], ab[0]), reverse=True)
            rep = leading_term_identity_report(pairs)
            assert rep["ok"], (pairs, rep)


def _unfolded_rank(structure, blocks, dim):
    # reference column builder: bracket whole orbit sums, keep every output
    # monomial as its own row, and rank the columns over Q (every column is
    # an invariant, so the rank stops at the invariant dimension dim)
    ech = SparseRationalEchelon()
    for us, vs in blocks:
        for u in us:
            for v in vs:
                if ech.rank == dim:
                    return dim
                ech.add({k: Fraction(c) for k, c in raw_bracket(u, v, structure).items()})
    return ech.rank


def _unfolded_dimension(problem, degree, generator_mode=False):
    gb = engine._power_sum_generators if generator_mode else engine._g_basis_raw
    blocks = [(gb(problem, a), invariant_basis_raw(problem.spec, degree + 2 - a))
              for a in range(1, degree + 2)]
    dim = len(invariant_basis_raw(problem.spec, degree))
    return dim - _unfolded_rank(problem.structure(), blocks, dim)


@pytest.mark.parametrize("family", ["hyperoctahedral", "demihyperoctahedral", "symmetric-full"])
def test_folded_cells_match_unfolded_reference(family):
    for n in (1, 2, 3):
        prob = _prob(family, n)
        for generator_mode in (False, True):
            table = hp0_graded_dims(prob, 10, generator_mode=generator_mode)
            expected = {d: _unfolded_dimension(prob, d, generator_mode) for d in range(11)}
            assert dict(table.items()) == {d: v for d, v in expected.items() if v}, \
                (family, n, generator_mode)


def test_folded_aminus_matches_unfolded_reference():
    spec = GroupSpec("demihyperoctahedral", 4)
    structure = darboux_structure(4)
    expected = {}
    for d in range(0, 9, 2):
        blocks = [(invariant_basis_raw(spec, a, "+"), invariant_basis_raw(spec, d + 2 - a, "-"))
                  for a in range(2, d + 2, 2)]
        dim = len(invariant_basis_raw(spec, d, "-"))
        expected[d] = "pass" if _unfolded_rank(structure, blocks, dim) == dim else "fail"
    assert check_aminus_identity(4, 8) == expected


def test_full_cells_bracket_one_term_representatives(monkeypatch):
    # the folded path runs: every bracket of a full B_4 cell starts from a
    # single monomial, never from a whole orbit sum
    firsts = []
    darboux = poisson.raw_bracket_darboux

    def spy(fd, gd, m):
        firsts.append(len(fd))
        return darboux(fd, gd, m)

    monkeypatch.setattr(poisson, "raw_bracket_darboux", spy)
    assert dict(hp0_graded_dims(_prob("hyperoctahedral", 4), 8).items()) == {0: 1, 4: 1, 8: 2}
    assert firsts and set(firsts) == {1}
