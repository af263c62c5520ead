import math
import os
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from ptl.burgers import binom_half
from ptl.engine import BracketSpanProblem, hp0_graded_dims
import ptl.solver
from ptl.linalg import DEFAULT_PRIME, annihilated
from ptl.partitions import even_part_count, partitions
from ptl.solver import (
    _column_rows_for_k,
    _component_kernel,
    _completed,
    _digit_width,
    _label,
    _label_code,
    _reach,
    _reduced_components,
    _xi_blocks,
    _xi_terms,
    family_generators,
    kernel_basis,
    polynomial_text,
    recertifies,
)
from ptl.weyl import GroupSpec
from reference import (
    Polynomial,
    SparseRationalEchelon,
    _components,
    _xi_slice,
    constraint_residual,
    family_span_dims,
    integer_vector,
    is_kernel_member,
    kernel_vectors,
    s_names,
)


def _xi_field(k, nmax):
    """xi_k's d/ds_j coefficients for j = k..nmax, as Laurent polynomials
    localized at s_{2k}: the independent Fraction reference for `_xi_slice`."""
    if not 1 <= k <= nmax:
        raise ValueError("need 1 <= k <= nmax")
    names = s_names(nmax + k)

    def expo(mono):
        e = [0] * len(names)
        for idx, x in mono:
            e[idx - 1] = x
        return tuple(e)

    return {j: Polynomial(names, {expo(mono): Fraction(c * (2 * j - 1), 4 ** (j - k))
                                  for mono, c in _xi_slice(k, j - k).items()})
            for j in range(k, nmax + 1)}


def _xi_pointwise(F, k, point):
    """Each d/ds_j component of xi_k(F) at a point of the stratum
    s_1 = ... = s_{2k-1} = 0, s_{2k} != 0 (unnamed coordinates are 0);
    xi_k(F) vanishes there iff the components sum to 0."""
    values = {int(name[1:]): Fraction(v) for name, v in point.items()}
    if any(values.get(i, 0) for i in range(1, 2 * k)) or not values.get(2 * k):
        raise ValueError("point off the stratum")
    nmax = max([k] + [i + 1 for expo in F.terms for i, e in enumerate(expo) if e])

    def at_point(p):
        return sum(c * math.prod(values.get(i + 1, 0) ** e for i, e in enumerate(expo) if e)
                   for expo, c in p.terms.items())

    xi = _xi_field(k, nmax)
    return {j: at_point(xi[j]) * at_point(F.derivative(f"s{j}"))
            if j <= len(F.names) else 0 for j in range(k, nmax + 1)}


def _system(n, weight, k_max=None):
    """(labels, rows) of the reduced system of xi_1..xi_{k_max} (default n)
    on one component: its s1-free columns, without xi_1's polynomial rows."""
    labels, rows = [], []
    for block, block_labels in _xi_blocks(n, weight, range(1, (k_max or n) + 1)):
        rows += block
        labels += block_labels
    return labels, rows


def test_xi_field_printed_expansion():
    xi = _xi_field(1, 2)
    assert xi[1].text() == "1"
    assert xi[2].text() == "3/2*s2^-1*s3"


def test_xi_field_third_coefficient():
    assert _xi_field(1, 3)[3].text() == "5/2*s2^-1*s4 - 5/8*s2^-2*s3^2"


def test_xi_field_k2():
    assert _xi_field(2, 2)[2].text() == "3"


def test_xi_field_rejects_bad_k():
    with pytest.raises(ValueError):
        _xi_field(0, 3)
    with pytest.raises(ValueError):
        _xi_field(4, 3)


def test_xi_field_homogeneity():
    # coefficient(j) has s-degree j - k and uniform weight -4(j - k)
    for k, nmax in ((1, 5), (2, 6), (3, 7)):
        xi = _xi_field(k, nmax)
        assert xi[k] == 2 * k - 1
        for j in range(k, nmax + 1):
            for expo in xi[j].terms:
                assert sum(i * e for i, e in enumerate(expo, 1)) == j - k
                assert sum(4 * (1 - i) * e for i, e in enumerate(expo, 1)) == -4 * (j - k)


def test_xi_field_matches_series_expansion():
    # Q(P) = sum_m C(1/2, m) P^m with P = sum_u (s_{2k+u}/s_{2k}) X^u,
    # expanded as a list of polynomial coefficients of X^0..X^order
    order = 10
    for k in range(1, 5):
        xi = _xi_field(k, k + order)
        names = xi[k].names
        inv = Polynomial.variable(names, f"s{2 * k}", -1)
        inner = [0] + [Polynomial.variable(names, f"s{2 * k + u}") * inv
                       for u in range(1, order + 1)]
        power = [1] + [0] * order
        q = [binom_half(0)] + [0] * order
        for m in range(1, order + 1):
            power = [sum((power[a] * inner[t - a] for a in range(t)), 0 * inv)
                     for t in range(order + 1)]
            q = [c + binom_half(m) * x for c, x in zip(q, power)]
        for t in range(order + 1):
            assert xi[k + t] == (2 * (k + t) - 1) * q[t], (k, t)


def _binom_half_coefficient(lam):
    """C(1/2, l) * l! / prod m_u! for the partition lam, from `binom_half`."""
    c = binom_half(len(lam)) * math.factorial(len(lam))
    for m in Counter(lam).values():
        c /= math.factorial(m)
    return c


def _reference_system(n, weight, k_max=None):
    """The rational assembly, kept as the reference for the integer one:
    rows {column: Fraction} of xi_k on the component's columns after
    s_1 = ... = s_{2k-1} = 0, with slice coefficients from `binom_half`;
    returns (labels, rows) in the order `_system` uses."""
    row_index, rows, labels = {}, [], []
    for k in range(1, (k_max if k_max is not None else n) + 1):
        for ci, e in enumerate(_components(n).get(weight, ())):
            low = [i + 1 for i in range(2 * k - 1) if e[i]]
            if len(low) > 1 or (low and (low[0] < k or e[low[0] - 1] != 1)):
                continue
            for j in low or [j + 1 for j in range(2 * k - 1, n) if e[j]]:
                for lam in partitions(j - k):
                    label = list(e)
                    label[j - 1] -= 1
                    if lam:
                        label[2 * k - 1] -= len(lam)
                    for u in lam:
                        label[2 * k + u - 1] += 1
                    key = (k, tuple(label))
                    if key not in row_index:
                        row_index[key] = len(rows)
                        rows.append({})
                        labels.append(key)
                    row = rows[row_index[key]]
                    row[ci] = row.get(ci, Fraction(0)) + \
                        e[j - 1] * (2 * j - 1) * _binom_half_coefficient(lam)
    kept = [(label, {c: x for c, x in row.items() if x}) for label, row in zip(labels, rows)]
    return [label for label, row in kept if row], [row for _, row in kept if row]


def _reduced_reference(n, weight, k_max=None):
    """`_reference_system` cut down to the reduced system: the rows other
    than xi_1's with a polynomial label, on the s1-free columns (renumbered
    from 0), with labels (k, `_label_code`); the rows left have no entry on
    a column with s1 (the module docstring's facts 1 and 2)."""
    columns = _components(n).get(weight, ())
    free = {c: i for i, c in enumerate(c for c, e in enumerate(columns) if not e[0])}
    labels, rows = [], []
    for (k, label), row in zip(*_reference_system(n, weight, k_max)):
        if k == 1 and min(label) >= 0:
            continue
        assert row.keys() <= free.keys(), (n, weight, k, label)
        labels.append((k, _label_code(label, n)))
        rows.append({free[c]: x for c, x in row.items()})
    return labels, rows


def test_xi_rows_on_s1_columns():
    # the three facts behind the reduction, on the rational reference: an
    # s1^2 column has no entry; s1 m has one, 1, in the xi_1 row labelled m;
    # and each xi_1 row with a polynomial label m has the column s1 m
    for n in range(1, 15):
        for w, columns in _components(n).items():
            labels, rows = _reference_system(n, w)
            for c, e in enumerate(columns):
                entries = [(label, row[c]) for label, row in zip(labels, rows) if c in row]
                if e[0] >= 2:
                    assert entries == [], (n, e)
                elif e[0] == 1:
                    assert entries == [((1, (0,) + e[1:]), 1)], (n, e)
            index = {e: c for c, e in enumerate(columns)}
            for (k, label), row in zip(labels, rows):
                if k == 1 and min(label) >= 0:
                    assert index[(1,) + label[1:]] in row, (n, label)


def test_integer_rows_are_the_scaled_rational_rows():
    # every row is integer_vector of the rational row, so the mod-p rank at
    # every prime (2 included) and every lift are those of the rational rows
    for n in range(1, 15):
        for w in _components(n):
            for k_max in (None, (n + 1) // 2):
                labels, rows = _system(n, w, k_max)
                ref_labels, ref_rows = _reduced_reference(n, w, k_max)
                assert labels == ref_labels, (n, w, k_max)
                assert rows == [integer_vector(row) for row in ref_rows], (n, w, k_max)
                assert all(type(x) is int for row in rows for x in row.values())


def test_label_codes_are_injective_past_eight_bit_exponents():
    # at n = 260, xi_1 sends s2^130 to the label s2^128 s3, whose code in a
    # fixed 8-bit digit would be that of s2^-128 s3^2; the digit width
    # derived from n decodes every label back to its exponents
    n = 260

    def expo(powers):
        e = [0] * (2 * n)
        for i, x in powers.items():
            e[i - 1] = x
        return tuple(e)

    seen = []
    for e in (expo({2: 130}), expo({2: 128, 4: 1}), expo({2: 127, 3: 2}), expo({2: 1, 3: 86})):
        support = [i + 1 for i, x in enumerate(e) if x]
        codes = [code for code, _ in _column_rows_for_k(1, n, e, support, _label_code(e, n))]
        labels = []
        for j in support:
            for mono in _xi_slice(1, j - 1):
                label = list(e)
                label[j - 1] -= 1
                for i, x in mono:
                    label[i - 1] += x
                labels.append(tuple(label))
        assert [_label(code, n) for code in codes] == labels
        seen += zip(codes, labels)
    assert len({code for code, _ in seen}) == len({label for _, label in seen})
    assert max(max(label) for _, label in seen) > 127

    def eight_bit(label):
        return sum(x << 8 * i for i, x in enumerate(label))

    big, wrapped = expo({2: 128, 3: 1}), expo({2: -128, 3: 2})
    assert eight_bit(big) == eight_bit(wrapped)
    assert _label_code(big, n) != _label_code(wrapped, n)
    assert _label(_label_code(wrapped, n), n) == wrapped


def _rows_from_per_k_slices(k, n, e):
    """4^(n-k) * xi_k on the column e after s_1 = ... = s_{2k-1} = 0, as
    (label code, value) pairs built from the per-k slice `_xi_slice(k, t)`:
    the label is e divided by s_j times the slice monomial."""
    low = [i + 1 for i in range(2 * k - 1) if e[i]]
    if len(low) > 1 or (low and (low[0] < k or e[low[0] - 1] != 1)):
        return []
    b, code = _digit_width(n), _label_code(e, n)
    return [(code - (1 << b * (j - 1)) + sum(x << b * (i - 1) for i, x in mono),
             e[j - 1] * (2 * j - 1) * 4 ** (n - j) * c)
            for j in low or [j + 1 for j in range(2 * k - 1, n) if e[j]]
            for mono, c in _xi_slice(k, j - k).items()]


def test_shared_slice_tables_give_the_per_k_rows():
    # one slice table per (t, digit width) serves every k: the rows of every
    # s1-free column equal those of xi_k's own slices, term for term, and a
    # k beyond the column's reach has none
    for n in range(1, 27):
        for w, (_squares, columns, _zeros) in _reduced_components(n).items():
            for e in columns:
                support = [i + 1 for i, x in enumerate(e) if x]
                for k in range(1, n + 1):
                    rows = list(_column_rows_for_k(k, n, e, support, _label_code(e, n)))
                    assert rows == _rows_from_per_k_slices(k, n, e), (n, e, k)
                    assert not rows or k <= _reach(e, support), (n, e, k)


def test_reduced_components_match_the_whole_components():
    # built from the s1-free partitions alone, each weight's entry is the
    # one read off all the columns: the s1^2 count, the s1-free columns in
    # the same order, and the positions of the family-(ii) leads
    for n in range(1, 31):
        leads = set(ptl.solver._family_leads(n))
        expected = {}
        for w, cols in _components(n).items():
            free = tuple(e for e in cols if not e[0])
            expected[w] = (sum(e[0] >= 2 for e in cols), free,
                           tuple(i for i, e in enumerate(free) if e in leads))
        assert list(_reduced_components(n).items()) == list(expected.items()), n


def test_solver_tables_stay_small():
    # what the solver's memo tables hold after kernel_basis(n), n <= 26, in
    # a fresh interpreter: the s1-free columns and one slice table per
    # (t, digit width), 1.8 MiB on Python 3.10 to 3.13; every column and a
    # slice table per (k, t) held 9.6 MiB
    probe = ("import tracemalloc\n"
             "from ptl.solver import kernel_basis\n"
             "tracemalloc.start()\n"
             "for n in range(1, 27):\n"
             "    kernel_basis(n)\n"
             "print(tracemalloc.get_traced_memory()[0])\n")
    env = dict(os.environ, PYTHONPATH=str(Path(ptl.solver.__file__).resolve().parents[1]))
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert int(out) <= 4 << 20


def test_xi_terms_are_binom_half_times_four_to_the_t():
    for t in range(31):
        terms = _xi_terms(t)
        assert len(terms) == len(list(partitions(t)))
        for (c, ell, parts), lam in zip(terms, partitions(t)):
            assert type(c) is int and ell == len(lam)
            assert parts == tuple(sorted(Counter(lam).items()))
            assert c == _binom_half_coefficient(lam) * 4 ** t, (t, lam)


def test_kernel_small_n():
    assert kernel_vectors(kernel_basis(1), 1) == []
    sb2 = kernel_basis(2)
    assert [v.text() for v in kernel_vectors(sb2, 2)] == ["s1^2"]
    assert sb2.display.series() == "1"
    sb3 = kernel_basis(3)
    assert [v.text() for v in kernel_vectors(sb3, 3)] == ["s1^3"]
    assert sb3.weight_dims.entries == {0: 1}


def test_kernel_n2_excludes_s2():
    # F = a*s1^2 + b*s2: the (3/2) s3/s2 constraint forces b = 0
    assert len(_components(2)[-4]) == 1   # the s2 component (one part)
    assert _system(2, -4)[1]  # a nonzero constraint exists
    sb = kernel_basis(2, weight=-4)
    assert kernel_vectors(sb, 2, -4) == []


def test_kernel_weight_filter():
    assert [v.text() for v in kernel_vectors(kernel_basis(4, weight=-8), 4, -8)] == ["-3*s1*s3 + s2^2"]


def test_family_generators_examples():
    assert [polynomial_text(f) for f in family_generators(2)] == ["s1^2"]
    assert [polynomial_text(f) for f in family_generators(3)] == ["s1^3"]
    fam5 = family_generators(5)
    # no admissible (k, g) at n = 5: generators are s1^2 * (degree-3 monomials)
    assert sorted(polynomial_text(f) for f in fam5) == ["s1^2*s3", "s1^3*s2", "s1^5"]
    fam4 = {polynomial_text(f) for f in family_generators(4)}
    assert "-3*s1*s3 + s2^2" in fam4


def test_family_admissible_pairs_brute():
    # family (ii) membership matches brute enumeration of (k, g)
    for n in range(2, 13):
        brute = 0
        for k in range(1, n):
            rem = n - (3 * k + 1)
            if rem < 0:
                continue
            brute += sum(1 for lam in partitions(rem)
                         if all(2 <= p <= k + 1 for p in lam))
        count_two = len(family_generators(n)) - sum(1 for _ in partitions(n - 2))
        assert count_two == brute


def test_family_membership_n_le_12():
    for n in range(2, 13):
        for f in family_generators(n):
            assert is_kernel_member(f, n), (n, polynomial_text(f))


def test_product_closure():
    # products of kernel elements stay in the kernel (subalgebra property)
    bases = {n: kernel_vectors(kernel_basis(n), n) for n in range(2, 9)}
    for m in range(2, 6):
        for n in range(m, min(8, 10 - m) + 1):
            big = s_names(m + n)
            for F in bases[m][:3]:
                for G in bases[n][:3]:
                    Fb = Polynomial(big, {e + (0,) * n: c for e, c in F.terms.items()})
                    Gb = Polynomial(big, {e + (0,) * m: c for e, c in G.terms.items()})
                    assert is_kernel_member((Fb * Gb).terms, m + n)


def test_xi_k_beyond_n_has_no_row():
    # k ranges over 1..n only: xi_k with k > n reaches no column of degree
    # n, neither in the assembled blocks nor column by column
    for n in range(2, 13):
        for w, (_squares, columns, _zeros) in _reduced_components(n).items():
            ks = range(n + 1, 2 * n + 1)
            assert all(not rows for rows, _labels in _xi_blocks(n, w, ks)), (n, w)
            for e in columns:
                support = [i + 1 for i, x in enumerate(e) if x]
                assert not any(val for k in ks for _label, val in
                               _column_rows_for_k(k, n, e, support, _label_code(e, n)))


def test_bigraded_sum_matches_total():
    for n in (4, 5, 6, 7):
        sb = kernel_basis(n)
        total = sum(sb.weight_dims.entries.values())
        assert sum(dim for _, dim in sb.weight_dims.items()) == total
        assert sum(sb.display.entries.values()) == total


def test_constraints_never_mix_weights():
    # row labels are disjoint across bigraded components, so solving
    # per-(n, w) component equals solving the full degree-n space
    for n in (4, 5, 6):
        seen = {}
        for w in _components(n):
            for label in _system(n, w)[0]:
                assert label not in seen, (n, w, label, seen[label])
                seen[label] = w


def test_oracle_equivalence_demihyperoctahedral():
    # the central cross-validation: brute bracket spans against the solver
    for n in (2, 3):
        table = hp0_graded_dims(
            BracketSpanProblem(GroupSpec("demihyperoctahedral", n)), 12)
        assert all(d % 4 == 0 for d in table.entries)
        sb = kernel_basis(n)
        brute_by_exponent = table.reindexed(lambda d: d // 4)
        expected = {e: c for e, c in sb.display.items() if 4 * e <= 12}
        assert dict(brute_by_exponent.items()) == expected


def test_oracle_equivalence_rank_four():
    # beyond the required n <= 3: the n = 4 tables agree through degree 12
    table = hp0_graded_dims(BracketSpanProblem(GroupSpec("demihyperoctahedral", 4)), 12)
    sb = kernel_basis(4)
    expected = {4 * e: c for e, c in sb.display.items() if 4 * e <= 12}
    assert dict(table.items()) == expected


def test_oracle_equivalence_ranks_five_six():
    # first multiplicity-two entry: D_6 in degree 8
    table5 = hp0_graded_dims(BracketSpanProblem(GroupSpec("demihyperoctahedral", 5)), 8)
    sb5 = kernel_basis(5)
    assert dict(table5.items()) == {4 * e: c for e, c in sb5.display.items() if e <= 2}
    table6 = hp0_graded_dims(BracketSpanProblem(GroupSpec("demihyperoctahedral", 6)), 8)
    sb6 = kernel_basis(6)
    assert dict(table6.items()) == {4 * e: c for e, c in sb6.display.items() if e <= 2}
    assert table6.entries[8] == 2


def test_solver_certification_survives_bad_primes():
    # a tiny prime forces rank undercounts; certification must repair them
    for p in (3, 5):
        for n in (4, 6, 8):
            assert kernel_basis(n, prime=p).weight_dims == kernel_basis(n).weight_dims


def test_assembly_stops_at_full_modular_rank(monkeypatch):
    # blocks are built largest k first and no more once the mod-p rank
    # reaches |C0| - |Z|: the one-column component s_n needs only xi_n's
    # single row
    built = {}
    blocks = ptl.solver._xi_blocks

    def counted(n, weight, ks):
        for rows, labels in blocks(n, weight, ks):
            built[n, weight] = built.get((n, weight), 0) + len(rows)
            yield rows, labels

    monkeypatch.setattr(ptl.solver, "_xi_blocks", counted)
    for n in range(2, 23):
        kernel_basis(n)
        assert built[n, -4 * (n - 1)] == 1, n
    assert sum(built.values()) <= 3786


def test_early_stop_never_cuts_off_a_kernel():
    # the kernel's dimension is ncols - rank_Q of the full rational system
    # at every prime, the unlucky ones included, whether the family-(ii)
    # leads certify the reduced kernel or the lift does; re-run with its
    # basis as candidates, the certificate returns that basis
    for n in range(1, 13):
        for w, columns in _components(n).items():
            ech = SparseRationalEchelon()
            rank = sum(ech.add(row) for row in _reference_system(n, w)[1])
            squares = sum(e[0] >= 2 for e in columns)
            rows = _system(n, w)[1]
            for p in (2, 3, DEFAULT_PRIME):
                basis = _component_kernel(n, w, [], p)
                assert squares + len(basis) == len(columns) - rank, (n, w, p)
                assert all(annihilated(rows, basis))
                assert _component_kernel(n, w, basis, p) == basis, (n, w, p)


def test_recertifies_exactly_the_certified_basis():
    # at the unlucky primes 3 and 5 the bound ncols - rank_p overstates some
    # kernels, and the certified basis must still recertify
    for p in (DEFAULT_PRIME, 3, 5):
        for n in (4, 6, 8):
            columns = kernel_basis(n, prime=p).columns
            w = list(columns)[-1]
            assert recertifies(n, None, columns, p)
            assert not recertifies(n, None, {**columns, w: columns[w][:-1]}, p)
            assert not recertifies(n, None, {**columns, w: columns[w] + columns[w][-1:]}, p)
    extra = kernel_basis(8, weight=-20).columns
    assert recertifies(8, -20, extra)
    assert not recertifies(8, None, extra)
    assert not recertifies(8, -16, extra)
    # in lifted components only the lifted basis recertifies: as many
    # kernel vectors that are dependent, or one of them doubled, do not
    # (at n = 14, w = -36 the lift's second vector is the unit vector of a
    # family-(ii) lead)
    for n, w in ((11, -28), (14, -36)):
        lifted = kernel_basis(n, weight=w).columns[w]
        assert recertifies(n, w, {w: lifted})
        assert not recertifies(n, w, {w: [lifted[0]] * len(lifted)})
        for i in range(2):
            doubled = [{c: 2 * x for c, x in vec.items()} if j == i else vec
                       for j, vec in enumerate(lifted)]
            assert not recertifies(n, w, {w: doubled})
    # n = 2: the kernel is s1^2 alone, so the reduced basis is empty; s2 is
    # the one s1-free column, at dual weight -4
    assert kernel_basis(2).columns == {}
    assert recertifies(2, None, {})
    assert not recertifies(2, None, {-4: [{0: 1}]})
    assert not recertifies(2, None, {0: [{0: 1}]})
    assert not recertifies(2, None, {-4: [{1: 1}]})
    assert not recertifies(2, None, {-8: [{0: 1}]})


def test_hh0_comparison():
    totals = {n: sum(kernel_basis(n).weight_dims.entries.values()) for n in range(2, 9)}
    for n in range(2, 7):
        assert totals[n] == even_part_count(n)
    assert totals[7] > even_part_count(7)
    assert totals[8] > even_part_count(8)


def test_n8_extra_solution_at_weight_minus_20():
    sb = kernel_basis(8)
    fam = family_span_dims(8)
    assert sb.weight_dims.entries[-20] == fam.entries[-20] + 1
    for w, dim in sb.weight_dims.items():
        if w != -20:
            assert dim == fam.entries.get(w, 0)
    # and every kernel vector is certified exactly
    for v in kernel_vectors(sb, 8):
        assert is_kernel_member(v.terms, 8)


def test_kernel_members_annihilated_pointwise(rng):
    # xi_k(F) vanishes at every stratum point: the component sum is zero
    # (individual derivation components may cancel against each other)
    for F in kernel_vectors(kernel_basis(4), 4):
        for k in (1, 2):
            point = {f"s{2*k}": Fraction(rng.randint(1, 5)),
                     f"s{2*k+1}": Fraction(rng.randint(-5, 5)),
                     f"s{2*k+2}": Fraction(rng.randint(-5, 5))}
            values = _xi_pointwise(F, k, point)
            assert sum(values.values()) == 0


def test_pointwise_examples():
    s1, s2 = (Polynomial.variable(s_names(2), v) for v in ("s1", "s2"))
    out = _xi_pointwise(s1 * s1, 1, {"s2": 1, "s3": 5})
    assert all(v == 0 for v in out.values())
    out = _xi_pointwise(s2, 1, {"s2": 1, "s3": 2})
    assert out[2] == 3


def test_pointwise_rejects_off_stratum():
    s2 = Polynomial.variable(s_names(2), "s2")
    with pytest.raises(ValueError):
        _xi_pointwise(s2, 1, {"s1": 1, "s2": 1})
    with pytest.raises(ValueError):
        _xi_pointwise(s2, 1, {"s2": 0, "s3": 1})


def test_completion_rejects_a_vector_outside_the_reduced_kernel():
    # s4 alone: xi_1 sends it to Laurent labels that no s1 term can cancel
    assert _completed(4, {(0, 2, 0, 0, 0, 0, 0, 0): 1}) == {(0, 2, 0, 0): 1, (1, 0, 1, 0): -3}
    with pytest.raises(AssertionError):
        _completed(4, {(0, 0, 0, 1, 0, 0, 0, 0): 1})


def test_constraint_residual_detects_nonmembers():
    s2 = Polynomial.variable(s_names(2), "s2")
    assert constraint_residual(s2.terms, 1, 2)
    assert not is_kernel_member(s2.terms, 2)
