"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete.  Every comparison is exact (zero tolerance); the only stated
tolerances are wall-clock bounds, asserted where the criterion names one.
"""

import json
import random
import time
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import pytest

from ptl.burgers import closed_form_residual
from ptl.cli import main
from ptl.engine import (
    BracketSpanProblem,
    check_aminus_identity,
    hp0_graded_dims,
)
from ptl.partitions import (
    bn_hilbert,
    even_part_count,
    hh0_dimension,
    multipartition_count,
    p_count,
    p_prime_count,
    partition_count,
    partitions,
)
from ptl.poisson import darboux_structure, reflection_structure
from ptl.solver import (
    _xi_blocks,
    family_generators,
    kernel_basis,
)
from ptl.strata import leaves_symmetric_power
from ptl.weyl import GroupSpec
from reference import (
    Polynomial,
    _components,
    act,
    darboux_names,
    elements,
    family_span_dims,
    fixed_point_free_class_count,
    is_kernel_member,
    kernel_vectors,
    leading_term_identity_report,
    multipartition_count_enum,
    poisson_bracket,
    s_names,
)


@contextmanager
def criterion(number: int, label: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:2d} FAIL: {label}")
        raise
    print(f"ACCEPTANCE {number:2d} PASS: {label}")


def _cli_json(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    assert code == 0
    return json.loads(out)


def test_criterion_1_type_a_triviality(capsys):
    with criterion(1, "type-A triviality via the reflection bracket span"):
        t0 = time.time()
        doc3 = _cli_json(capsys, "hp0", "brute", "--group", "symmetric-reflection",
                         "--n", "3", "--max-degree", "8", "--format", "json",
                         "--no-cache")
        doc4 = _cli_json(capsys, "hp0", "brute", "--group", "symmetric-reflection",
                         "--n", "4", "--max-degree", "6", "--format", "json",
                         "--no-cache")
        assert doc3["dims"] == {"0": 1}
        assert doc4["dims"] == {"0": 1}
        assert time.time() - t0 < 60


def test_criterion_2_full_symmetric_power_vanishes():
    with criterion(2, "full symmetric power has vanishing trace space"):
        for n in (2, 3):
            table = hp0_graded_dims(BracketSpanProblem(GroupSpec("symmetric-full", n)), 6)
            assert dict(table.items()) == {}


def test_criterion_3_type_b_partition_statistic():
    with criterion(3, "hyperoctahedral tables equal the partition statistic"):
        t0 = time.time()
        for n in (2, 3):
            table = hp0_graded_dims(BracketSpanProblem(GroupSpec("hyperoctahedral", n)), 12)
            assert all(d % 4 == 0 for d in table.entries)
            expected = {e: c for e, c in bn_hilbert(n).items() if 4 * e <= 12}
            assert dict(table.reindexed(lambda d: d // 4).items()) == expected
        assert time.time() - t0 < 60


def test_criterion_4_oracle_equivalence():
    with criterion(4, "typed solver kernels equal brute demihyperoctahedral tables"):
        for n in (2, 3):
            brute = hp0_graded_dims(
                BracketSpanProblem(GroupSpec("demihyperoctahedral", n)), 12)
            assert all(d % 4 == 0 for d in brute.entries)
            sb = kernel_basis(n)
            expected = {e: c for e, c in sb.display.items() if 4 * e <= 12}
            assert dict(brute.reindexed(lambda d: d // 4).items()) == expected


def test_criterion_5_hh0_comparison():
    with criterion(5, "trace dimension equals the class count for n <= 6, exceeds beyond"):
        t0 = time.time()
        totals = {n: sum(kernel_basis(n).weight_dims.entries.values()) for n in range(2, 9)}
        assert [even_part_count(n) for n in (2, 3, 4, 5, 6)] == [1, 1, 3, 3, 6]
        for n in range(2, 7):
            assert totals[n] == even_part_count(n)
        assert totals[7] > even_part_count(7)
        assert totals[8] > even_part_count(8)
        assert time.time() - t0 < 60


def test_criterion_6_n8_weight_minus_20():
    with criterion(6, "n = 8 kernel strictly exceeds the families at dual weight -20"):
        sb = kernel_basis(8)
        fam = family_span_dims(8)
        assert sum(sb.weight_dims.entries.values()) > sum(fam.entries.values())
        assert sb.weight_dims.entries[-20] > fam.entries[-20]


@pytest.mark.slow
def test_criterion_7_scale_reproduction(capsys, tmp_path):
    with criterion(7, "typed solve completes for all n <= 34 within the budget"):
        t0 = time.time()
        code = main(["typed", "solve", "--n-max", "34", "--format", "latex",
                     "--cache-dir", str(tmp_path)])
        out = capsys.readouterr().out
        elapsed = time.time() - t0
        assert code == 0
        # byte for byte the stored output of the same command: header x2,
        # one row per n = 2..34, closer
        assert out == (Path(__file__).parent / "data" / "typed_solve_n34.tex").read_text()
        assert elapsed < 1800, f"sweep took {elapsed:.0f}s"
        print(f"  (n <= 34 sweep finished in {elapsed:.0f}s)")


def test_criterion_8_aminus_identity():
    with criterion(8, "odd sector equals its bracket span (A- = {A+, A-})"):
        assert all(v == "pass" for v in check_aminus_identity(2, 6).values())
        assert all(v == "pass" for v in check_aminus_identity(3, 5).values())


def test_criterion_9_property_suites(seed):
    with criterion(9, "exact property suites at the fixed seed"):
        rng = random.Random(seed)

        def rand_poly(P, max_deg=2):
            terms = {}
            for _ in range(rng.randint(1, 3)):
                expo = tuple(rng.randint(0, max_deg) for _ in range(2 * P.pairs))
                terms[expo] = terms.get(expo, 0) + Fraction(rng.randint(-4, 4))
            return Polynomial(darboux_names(P.pairs), terms)

        # Jacobi / Leibniz / antisymmetry: 100 random triples per structure
        for P in (darboux_structure(2), reflection_structure(3)):
            for _ in range(100):
                f, g, h = (rand_poly(P) for _ in range(3))
                br = lambda a, b: poisson_bracket(a, b, P)
                assert br(f, g) == -br(g, f)
                assert br(f * g, h) == f * br(g, h) + g * br(f, h)
                jac = br(f, br(g, h)) + br(g, br(h, f)) + br(h, br(f, g))
                assert not jac.terms

        # action-bracket equivariance
        cases = [(GroupSpec("hyperoctahedral", 2), darboux_structure(2)),
                 (GroupSpec("demihyperoctahedral", 3), darboux_structure(3)),
                 (GroupSpec("symmetric-reflection", 3), reflection_structure(3))]
        for spec, P in cases:
            members = list(elements(spec))
            for _ in range(20):
                g = rng.choice(members)
                f, h = rand_poly(P), rand_poly(P)
                assert act(g, poisson_bracket(f, h, P), spec) == \
                    poisson_bracket(act(g, f, spec), act(g, h, spec), P)

        # family generators are kernel members for n <= 12
        for n in range(2, 13):
            for f in family_generators(n):
                assert is_kernel_member(f, n)

        # product closure for m + n <= 10
        bases = {n: kernel_vectors(kernel_basis(n), n) for n in range(2, 9)}
        for m in range(2, 6):
            for n in range(m, min(8, 10 - m) + 1):
                big = s_names(m + n)
                for F in bases[m][:2]:
                    for G in bases[n][:2]:
                        Fb = Polynomial(big, {e + (0,) * n: c for e, c in F.terms.items()})
                        Gb = Polynomial(big, {e + (0,) * m: c for e, c in G.terms.items()})
                        assert is_kernel_member((Fb * Gb).terms, m + n)

        # k-range stability for n <= 8: xi_k with k > n has no row
        for n in range(2, 9):
            for w in _components(n):
                assert all(not rows for rows, _labels in _xi_blocks(n, w, range(n + 1, 2 * n + 1)))

        # leading-term identity for n in {2, 3}
        for n in (2, 3):
            for _ in range(10):
                pairs = []
                for _ in range(n):
                    total = rng.choice([1, 3, 5])
                    a = rng.randint(0, total)
                    pairs.append((a, total - a))
                pairs.sort(key=lambda ab: (ab[0] + ab[1], ab[0]), reverse=True)
                assert leading_term_identity_report(pairs)["ok"]

        # Burgers closed-form witness at order 6
        assert closed_form_residual(6) == {}


def test_criterion_10_combinatorics():
    with criterion(10, "generating functions agree with enumeration"):
        for n in range(0, 11):
            for i in range(0, 5):
                assert multipartition_count(n, i) == multipartition_count_enum(n, i)
        for n in range(0, 21):
            assert sum(p_count(n, i) for i in range(n + 1)) == partition_count(n)
            for i in range(0, n + 1):
                direct = sum(1 for lam in partitions(n)
                             if len(lam) == n - i and all(p % 2 == 0 for p in lam))
                assert p_prime_count(n, i) == direct
        for n in (2, 3, 4, 5, 6):
            leaves = leaves_symmetric_power(n, 2)
            assert len(leaves) == partition_count(n)
            for i in range(n + 1):
                assert sum(1 for l in leaves if l.codim_units == i) == p_count(n, i)


@pytest.mark.slow
def test_criterion_11_hh0_brute_scan():
    with criterion(11, "type-D class counts match the determinant scan for n <= 7"):
        for n in range(2, 8):
            scan = fixed_point_free_class_count(GroupSpec("demihyperoctahedral", n))
            assert scan == hh0_dimension("typeD", n), n
