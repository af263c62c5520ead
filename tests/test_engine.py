import functools
from fractions import Fraction

import pytest

from ptl import engine, linalg, poisson, weyl
from ptl.cli import _worker_map
from ptl.engine import (
    BracketSpanProblem,
    GuardrailExceeded,
    check_aminus_identity,
    hp0_graded_dims,
)
from ptl.linalg import DEFAULT_PRIME
from ptl.partitions import bn_hilbert
from ptl.poisson import raw_bracket
from ptl.solver import kernel_basis
from ptl.weyl import GroupSpec, monomials_of_degree, orbit_sum, restrict_to_zero_sum
from reference import (
    SparseRationalEchelon,
    exact_bracket_rank,
    exact_reflection_invariants,
    leading_term_identity_report,
    whole_aminus_report,
    whole_basis,
    whole_cell_dimension,
    whole_h_basis,
)


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


def test_hyperoctahedral_4_matches_partition_statistic():
    table = hp0_graded_dims(_prob("hyperoctahedral", 4), 12)
    expected = {e: c for e, c in bn_hilbert(4).items() if 4 * e <= 12}
    assert dict(table.reindexed(lambda d: d // 4).items()) == expected


def test_deficit_certificate_needs_no_rational_fallback(monkeypatch):
    # B_4 and D_4 have rank-deficit cells at degrees 0, 4 and 8, and in the
    # solver components below the families fall short of the modular bound;
    # the certified nullspace settles all of them
    table = hp0_graded_dims(_prob("hyperoctahedral", 4), 8)
    assert dict(table.items()) == {0: 1, 4: 1, 8: 2}
    table = hp0_graded_dims(_prob("demihyperoctahedral", 4), 8)
    assert dict(table.items()) == {0: 1, 4: 1, 8: 1}
    lifted, lift = [], linalg.certified_nullspace
    monkeypatch.setattr(linalg, "certified_nullspace", lambda *a: lifted.append(a) or lift(*a))
    exceptional = ((8, -20, 2), (9, -24, 2), (11, -28, 6), (12, -32, 8),
                   (13, -36, 7), (14, -40, 8), (14, -36, 16))
    for n, w, dim in exceptional:
        assert dict(kernel_basis(n, w).weight_dims.items()) == {w: dim}
    assert len(lifted) == len(exceptional)


def test_engine_certification_survives_bad_primes():
    for p in (3, 5, 65537):
        t = hp0_graded_dims(_prob("hyperoctahedral", 2), 8, prime=p)
        assert dict(t.items()) == {0: 1, 4: 1}
        t = hp0_graded_dims(_prob("demihyperoctahedral", 2), 8, prime=p)
        assert dict(t.items()) == {0: 1}
    # the reflection and relative cells, which bracket whole polynomials,
    # at primes down to 2
    for p in (2, 3, 5):
        t = hp0_graded_dims(_prob("symmetric-reflection", 3), 6, prime=p)
        assert dict(t.items()) == {0: 1}
        t = hp0_graded_dims(_prob("symmetric-reflection", 3, "last-point-stabilizer"), 6, prime=p)
        assert dict(t.items()) == {0: 1}


def test_guardrail_raises_with_partial_table():
    # B_2 streams 0, 1, 2, 6 and 9 columns at degrees 0, 2, 4, 6 and 8
    tables = []
    for workers in (1, 2):
        with pytest.raises(GuardrailExceeded) as exc, _worker_map(workers) as mapper:
            hp0_graded_dims(_prob("hyperoctahedral", 2), 8, max_columns=5, mapper=mapper)
        tables.append(exc.value.table)
    assert tables[0].metadata["truncated"] is True
    assert tables[0].metadata["truncated_at_degree"] == 6
    assert tables[0] == tables[1] and tables[0].metadata == tables[1].metadata


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
    seq = hp0_graded_dims(prob, 8)
    with _worker_map(2) as mapper:
        par = hp0_graded_dims(prob, 8, mapper=mapper)
    assert seq == par and seq.metadata == par.metadata


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


def _unfolded_dimension(problem, degree):
    # every split a + b = degree + 2, the whole of O^G_a in the first slot,
    # every weight, whole orbit sums, ranked over Q
    blocks = [(whole_basis(problem.spec, a), whole_h_basis(problem, degree + 2 - a))
              for a in range(1, degree + 2)]
    dim = len(whole_h_basis(problem, degree))
    return dim - exact_bracket_rank(problem.structure(), blocks, dim)


# (problem, max degree) per parameter: the Darboux cells the engine folds,
# and the reflection, relative and ambient cells it brackets whole
_REFERENCE_CELLS = {
    **{family: [(_prob(family, n), 10) for n in (1, 2, 3)]
       for family in ("hyperoctahedral", "demihyperoctahedral", "symmetric-full")},
    "symmetric-reflection": [(_prob("symmetric-reflection", 3), 8),
                             (_prob("symmetric-reflection", 4), 6)],
    "last-point-stabilizer": [(_prob("symmetric-reflection", n, "last-point-stabilizer"), 6)
                              for n in (3, 4)],
    "ambient": [(_prob(family, 2, "ambient"), 6)
                for family in ("hyperoctahedral", "demihyperoctahedral", "symmetric-full")]
               + [(_prob("symmetric-reflection", 3, "ambient"), 6)],
}


@pytest.mark.parametrize("family", list(_REFERENCE_CELLS))
def test_folded_cells_match_unfolded_reference(family):
    for prob, max_degree in _REFERENCE_CELLS[family]:
        table = hp0_graded_dims(prob, max_degree)
        expected = {d: _unfolded_dimension(prob, d) for d in range(max_degree + 1)}
        assert dict(table.items()) == {d: v for d, v in expected.items() if v}, prob


def test_folded_aminus_matches_unfolded_reference():
    for n, max_degree in ((3, 7), (4, 8)):
        assert check_aminus_identity(n, max_degree) == whole_aminus_report(n, max_degree)


def _sl2_triple(m):
    # E = sum_i x_i y_i, 2 q_+ = sum_i x_i^2 and 2 q_- = sum_i y_i^2 on m pairs
    def monomial(j, k):
        return tuple((t == j) + (t == k) for t in range(2 * m))
    return tuple({monomial(i + a, i + b): 1 for i in range(m)} for a, b in ((0, m), (0, 0), (m, m)))


def _weight(e, m):
    return sum(e[:m]) - sum(e[m:])


@pytest.mark.parametrize("family, ns", [
    ("symmetric-full", (1, 2, 3, 4)),
    ("hyperoctahedral", (1, 2, 3, 4)),
    ("demihyperoctahedral", (1, 2, 3, 4)),
    ("symmetric-reflection", (2, 3, 4)),
])
def test_euler_element_brackets_by_weight(family, ns):
    # the lemmas behind weight-zero cells and lowest-weight first slots
    # (engine docstring): E, q_+ and q_- (on the reflection pair the
    # restrictions of the sums over i <= n) are invariants of degree 2;
    # {E, e} = (deg_y e - deg_x e) e for every monomial e (times n, the
    # scale of the reflection structure's raw bracket), and {q_+, e} and
    # {q_-, e} have e's weight plus and minus 2.  Every cell kind brackets
    # p_{0,2} = 2 q_- against the weight +2 piece of O^H_d, so its column
    # set holds {q_-, V_2}
    for n in ns:
        spec = GroupSpec(family, n)
        m, reflection = spec.pairs, family == "symmetric-reflection"
        triple = _sl2_triple(n)
        if reflection:
            triple = tuple(restrict_to_zero_sum(n, 2, triple))
        euler, qplus, qminus = triple
        ech = SparseRationalEchelon()
        for u in whole_basis(spec, 2):
            ech.add({k: Fraction(c) for k, c in u.items()})
        for q in triple:
            assert not ech.add({k: Fraction(c) for k, c in q.items()})
        structure = BracketSpanProblem(spec).structure()
        for d in range(5):
            for e in monomials_of_degree(2 * m, d):
                shift = -_weight(e, m) * (n if reflection else 1)
                assert raw_bracket(euler, {e: 1}, structure) == ({e: shift} if shift else {})
                for q, step in ((qplus, 2), (qminus, -2)):
                    image = raw_bracket(q, {e: 1}, structure)
                    assert {_weight(k, m) for k in image} <= {_weight(e, m) + step}
        kinds = ("full", "ambient") + (("last-point-stabilizer",) if reflection else ())
        for prob in (BracketSpanProblem(spec, kind) for kind in kinds):
            for d in (2, 4, 6):
                top = engine._h_piece(prob, d, d // 2 + 1)
                firsts = [[orbit_sum(u, m) if prob.folded else u for u in us]
                          for us, vs in engine._column_pairs(prob, d) if vs == top]
                assert not top or any(qminus in us for us in firsts), (prob, d)


# every cell kind, the reflection, relative and ambient ones included
_WHOLE_CELL_PROBLEMS = [_prob("hyperoctahedral", 2), _prob("demihyperoctahedral", 3),
                        _prob("symmetric-full", 3), _prob("symmetric-reflection", 3),
                        _prob("symmetric-reflection", 3, "last-point-stabilizer"),
                        _prob("symmetric-full", 2, "ambient")]


@functools.cache
def _whole_tables():
    cells = [{d: v for d in range(9) if (v := whole_cell_dimension(prob, d))}
             for prob in _WHOLE_CELL_PROBLEMS]
    return cells, [whole_aminus_report(n, 9) for n in (2, 3)]


@pytest.mark.parametrize("prime", [2, 3, DEFAULT_PRIME])
def test_weight_zero_cells_match_whole_cells(prime):
    # certifying each cell on weight zero gives the table of the whole cell,
    # today's column set over every weight ranked exactly, at any prime
    cells, aminus = _whole_tables()
    for prob, expected in zip(_WHOLE_CELL_PROBLEMS, cells):
        assert dict(hp0_graded_dims(prob, 8, prime=prime).items()) == expected, prob
    for n, expected in zip((2, 3), aminus):
        assert check_aminus_identity(n, 9, prime=prime) == expected


def test_odd_degree_cells_build_no_basis(monkeypatch):
    # an odd degree has no monomial of weight zero, so its cell is 0 before
    # any basis is built; n = 3 has A_- in odd degrees only
    calls = []
    names = ("orbit_reps", "invariant_basis_raw", "reflection_dimension", "monomials_of_degree")
    for name in names:
        monkeypatch.setattr(engine, name,
                            lambda *a, _f=getattr(engine, name), **k: calls.append(a) or _f(*a, **k))
    for prob in _WHOLE_CELL_PROBLEMS + [_prob("hyperoctahedral", 4)]:
        for d in (1, 3, 11):
            assert engine._cell_dimension(prob, d) == 0
    assert set(check_aminus_identity(3, 9).values()) == {"pass"}
    assert calls == []


def test_full_cells_bracket_one_term_representatives(monkeypatch):
    # the folded path runs: every bracket of a full B_4 or D_4 cell takes one
    # argument as a single monomial (the representative of the larger orbit
    # sum), never two whole orbit sums
    smaller = []
    darboux = poisson.raw_bracket_darboux

    def spy(fd, gd, m):
        smaller.append(min(len(fd), len(gd)))
        return darboux(fd, gd, m)

    monkeypatch.setattr(poisson, "raw_bracket_darboux", spy)
    assert dict(hp0_graded_dims(_prob("hyperoctahedral", 4), 8).items()) == {0: 1, 4: 1, 8: 2}
    assert dict(hp0_graded_dims(_prob("demihyperoctahedral", 4), 8).items()) == {0: 1, 4: 1, 8: 1}
    assert smaller and set(smaller) == {1}


def test_hyperoctahedral_cells_bracket_power_sums(monkeypatch):
    # the B_4 degree-12 cell has a rank deficit, so it streams every column:
    # 6,447 with the whole basis of O^G_a in the first slot, 3,264 with the
    # power sums of degree <= 8, 350 with only the pairs of opposite weights
    # deg_x - deg_y among those, and 88 = 57 + 24 + 7 with only the lowest
    # weights: sum_i y_i^a, a = 2, 4, 6, against the weight +a piece of
    # O^G_{14 - a} (a = 8 would need weight +8 in degree 6)
    streamed, weights = [], []
    kernel, bracket = engine.certified_kernel, engine.raw_bracket

    def spy(columns, *args, **kwargs):
        return kernel((streamed.append(c) or c for c in columns), *args, **kwargs)

    def bracket_spy(f, g, structure):
        weights.append(sum(sum(e[:4]) - sum(e[4:]) for e in (next(iter(f)), next(iter(g)))))
        return bracket(f, g, structure)

    monkeypatch.setattr(engine, "certified_kernel", spy)
    monkeypatch.setattr(engine, "raw_bracket", bracket_spy)
    assert engine._cell_dimension(_prob("hyperoctahedral", 4), 12) == 1
    assert len(streamed) == 88
    assert len(weights) >= 88 and set(weights) == {0}


def test_row_bases_expand_no_orbit(monkeypatch):
    # a folded cell's rows are its weight-zero orbit representatives, and a
    # reflection cell counts its dimension: neither expands an orbit sum nor
    # selects an invariant
    built = []
    for name in ("orbit_sum", "invariant_basis_raw"):
        monkeypatch.setattr(engine, name,
                            lambda *a, _f=getattr(weyl, name): built.append(a) or _f(*a))
    spec = GroupSpec("hyperoctahedral", 4)
    rows, dim = engine._rows(_prob("hyperoctahedral", 4), 12)
    assert list(rows) == [max(u) for u in whole_basis(spec, 12) if sum(max(u)[:4]) == 6]
    assert dim == len(rows) == 63
    rows, dim = engine._rows(_prob("symmetric-reflection", 4), 6)
    assert dim == sum(sum(next(iter(f))[:3]) == 3 for f in exact_reflection_invariants(4, 6))
    assert len(rows) == len(set(rows)) == 100 and all(sum(e[:3]) == 3 for e in rows)
    assert built == []


@pytest.mark.slow
@pytest.mark.parametrize("family, n, max_degree", [
    ("demihyperoctahedral", 5, 16),
    ("hyperoctahedral", 5, 18),
    ("demihyperoctahedral", 6, 16),
    ("hyperoctahedral", 7, 24),
    ("demihyperoctahedral", 7, 24),
])
def test_whole_table_cross_check(family, n, max_degree):
    # the engine's whole table against the typed solver (D_n) or the
    # partition statistic (B_n), one class every 4 degrees; D_6 through
    # degree 16 includes its top entry, degree 12 of dimension 2, and B_7
    # and D_7 through degree 24 theirs, degrees 24 and 16
    table = hp0_graded_dims(_prob(family, n), max_degree)
    assert all(d % 4 == 0 for d in table.entries)
    reference = kernel_basis(n).display if family == "demihyperoctahedral" else bn_hilbert(n)
    expected = {e: c for e, c in reference.items() if 4 * e <= max_degree}
    assert dict(table.reindexed(lambda d: d // 4).items()) == expected
