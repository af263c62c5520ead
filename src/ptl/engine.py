"""Brute-force graded dimensions of HP0(O^G, O^H) = O^H / {O^G, O^H}.

For each polynomial degree d the span {O^G_a, O^H_b : a + b = d + 2, a >= 1}
is generated column by column from invariant orbit-sum bases, and the entry
reported is dim O^H_d minus the certified rank of that span.  Columns are
streamed through a sparse mod-p echelon first; a full modular rank
certifies itself, and a deficit is certified over Q before being reported:
the quotient functionals (the nullspace of the columns, one per non-lead
row) are lifted off the same echelon by `linalg.certified_nullspace`, the
core shared with the solver, and checked exactly against every column.
Degree 0 needs no special casing: the empty bracket span is {0} unless 1
is literally a bracket, as happens for Darboux structures whose group
fixes a Darboux pair.

Cells with H = G acting monomially (B_n, D_n and S_n on Darboux pairs, and
the A_+/A_- check) fold their columns.  G acts by Poisson automorphisms and
v is G-invariant, so an orbit sum u = (1/|Stab u0|) sum_g g.u0 of its
representative u0 = max(u) has {u, v} = (1/|Stab u0|) sum_g g.{u0, v}.  Adding
each monomial of {u0, v} onto the row of its orbit representative r gives
the coefficient of {u, v} at r times |Stab u0| / |Stab r|: a scale per row
and per column, so the rank is unchanged.  A monomial that the sign
subgroup moves by -1 cancels in the orbit sum and has no row; u0 itself is
all-even or all-odd, hence fixed.  The other cells (the reflection action,
relative and ambient targets) bracket whole polynomials, with rows for the
coordinates of H's invariants.

The A-/A+ sector identity of the demihyperoctahedral ring (A_- equals
{A+, A-}) and its leading-term expansion
{symm(x1^(a1+1) y1^b1), symm(y1 x2^a2 y2^b2 ...)} =
((1+c)/n)(a1+1) symm(x1^a1 y1^b1 ...) + higher order,
c = #{i >= 2 : (a_i, b_i) = (0, 1)}, are exposed as dedicated checks.
"""

from __future__ import annotations

import functools
import itertools
import math
from contextlib import nullcontext
from dataclasses import dataclass
from fractions import Fraction

from ptl.linalg import (
    DEFAULT_PRIME,
    IncrementalModEchelon,
    SparseRationalEchelon,
    certified_nullspace,
)
from ptl.poisson import (
    PoissonStructure,
    darboux_structure,
    reflection_structure,
    poisson_bracket,
    raw_bracket,
)
from ptl.poly import SparsePolynomial
from ptl.tables import GradedDimensionTable
from ptl.weyl import (
    GroupSpec,
    _sn_orbit,
    invariant_basis_raw,
    monomials_of_degree,
    orbit_rep,
    restrict_to_zero_sum,
)

SUBGROUP_KINDS = ("full", "last-point-stabilizer", "ambient")


@dataclass(frozen=True)
class BracketSpanProblem:
    spec: GroupSpec
    subgroup: str = "full"

    def __post_init__(self):
        if self.subgroup not in SUBGROUP_KINDS:
            raise ValueError(f"unknown subgroup kind {self.subgroup!r}")
        if self.subgroup == "last-point-stabilizer" and self.spec.family != "symmetric-reflection":
            raise ValueError("last-point-stabilizer lives inside symmetric-reflection")

    def structure(self) -> PoissonStructure:
        if self.spec.family == "symmetric-reflection":
            return reflection_structure(self.spec.n)
        return darboux_structure(self.spec.n)


@dataclass
class BracketCertificate:
    """Exact witness: sum coefficient * {u, v} equals the certified target."""

    pairs: list[tuple[SparsePolynomial, SparsePolynomial, Fraction]]

    def expand(self, structure: PoissonStructure) -> SparsePolynomial:
        total = SparsePolynomial.zero(structure.context)
        for u, v, c in self.pairs:
            total = total + poisson_bracket(u, v, structure) * c
        return total


@dataclass
class MembershipResult:
    certificate: BracketCertificate | None
    residue: SparsePolynomial | None


class GuardrailExceeded(Exception):
    def __init__(self, message: str, table: GradedDimensionTable):
        super().__init__(message)
        self.table = table


# -- bases per problem --------------------------------------------------------

def _h_basis_raw(problem: BracketSpanProblem, degree: int) -> tuple[dict, ...]:
    if degree < 0:
        return ()
    spec = problem.spec
    if problem.subgroup == "full":
        return invariant_basis_raw(spec, degree)
    if problem.subgroup == "last-point-stabilizer":
        return invariant_basis_raw(GroupSpec("symmetric-full", spec.n - 1), degree)
    return tuple({e: 1} for e in monomials_of_degree(2 * spec.pairs, degree))


def _g_basis_raw(problem: BracketSpanProblem, degree: int) -> tuple[dict, ...]:
    return invariant_basis_raw(problem.spec, degree)


def _power_sum_generators(problem: BracketSpanProblem, degree: int) -> list[dict]:
    """Orbit sums of x1^a y1^b (an algebra generating set of O^G by degree).

    Used by the optional generator-reduction mode: since O^G is Poisson
    generated by any algebra generating set (plus y1...yn in type D), the
    span {O^G, O^H} may restrict its first slot to these elements.
    """
    spec = problem.spec
    m = spec.pairs
    if spec.family == "symmetric-reflection":
        # restrictions of the power sums of C^{2n}
        n = spec.n
        orbits = [{e: 1 for e in _sn_orbit((a,) + (0,) * m + (degree - a,) + (0,) * m, n)}
                  for a in range(degree, -1, -1)]
        return [p for p in restrict_to_zero_sum(n, degree, orbits) if p]
    out = []
    if degree % 2 == 0 or spec.family == "symmetric-full":
        for a in range(degree, -1, -1):
            b = degree - a
            expo = [0] * (2 * m)
            expo[0], expo[m] = a, b
            out.append({e: 1 for e in _sn_orbit(tuple(expo), m)})
    if spec.family == "demihyperoctahedral" and degree == spec.n:
        out.append({(0,) * m + (1,) * m: 1})  # y1 y2 ... yn
    return out


# -- one degree cell ----------------------------------------------------------

def _column_pairs(problem: BracketSpanProblem, degree: int, generator_mode: bool):
    """Degree splits (a, b), low a first; for H = G only a <= b is needed."""
    half = problem.subgroup == "full" and not generator_mode
    return [(a, degree + 2 - a) for a in range(1, degree + 2)
            if not half or 2 * a <= degree + 2]


def _cell_dimension(problem: BracketSpanProblem, degree: int, *,
                    prime: int = DEFAULT_PRIME, certify: str = "fast",
                    max_columns: int | None = None,
                    generator_mode: bool = False) -> int:
    """Certified dim O^H_d - rank {O^G, O^H}_d for one degree."""
    hbasis = _h_basis_raw(problem, degree)
    dim = len(hbasis)
    if dim == 0:
        return 0
    spec = problem.spec
    fold = problem.subgroup == "full" and spec.family != "symmetric-reflection"
    if fold or problem.subgroup == "last-point-stabilizer":
        row_index = {max(vec): i for i, vec in enumerate(hbasis)}
    else:
        row_index = {e: i for i, e in enumerate(monomials_of_degree(2 * spec.pairs, degree))}
    gb = _power_sum_generators if generator_mode else _g_basis_raw
    blocks = ((gb(problem, a), _h_basis_raw(problem, b))
              for a, b in _column_pairs(problem, degree, generator_mode))
    if max_columns is not None:
        blocks = list(blocks)
        n_cols = sum(len(us) * len(vs) for us, vs in blocks)
        if n_cols > max_columns:
            raise GuardrailExceeded(
                f"degree {degree} needs {n_cols} columns (> {max_columns})", None)
    columns = _bracket_columns(blocks, problem.structure(), row_index, fold)
    return dim - _certified_rank(columns, len(row_index), dim, prime=prime, certify=certify)


def _bracket_columns(blocks, structure: PoissonStructure, row_index: dict, fold: bool):
    """Stream the nonzero brackets {u, v}, u in us, v in vs for each block, as
    sparse columns over the row indices; with `fold`, {max(u), v} added onto
    the rows of the `orbit_rep`s (module docstring).  Monomials without a row
    are dropped; each distinct monomial is mapped once per cell."""
    m, row_of = structure.pairs, {}
    for us, vs in blocks:
        for u in us:
            if fold:
                u = {max(u): 1}
            for v in vs:
                col: dict = {}
                for key, val in raw_bracket(u, v, structure).items():
                    try:
                        r = row_of[key]
                    except KeyError:
                        r = row_of[key] = row_index.get(orbit_rep(key, m) if fold else key)
                    if r is not None:
                        col[r] = col.get(r, 0) + val
                col = {r: c for r, c in col.items() if c}
                if col:
                    yield col


def _certified_rank(columns, length: int, dim: int, *, prime: int, certify: str) -> int:
    """Rank over Q of streamed integer columns whose rank is at most dim.

    The mod-p echelon stops at full rank, which certifies itself; on a
    deficit the rank is length minus the dimension of the exact nullspace
    that `certified_nullspace` lifts off the same echelon.
    certify="always" is the rational reference path.
    """
    if certify == "always":
        ech = SparseRationalEchelon()
        for col in columns:
            ech.add({k: Fraction(v) for k, v in col.items()})
        return ech.rank
    ech = IncrementalModEchelon(length, prime)
    stored: list[dict] = []
    for col in columns:
        stored.append(col)
        ech.add(col)
        if ech.rank == dim:
            return dim  # full modular rank is full rational rank
    return length - len(certified_nullspace(ech, stored))


# -- public operations ---------------------------------------------------------

def hp0_graded_dims(problem: BracketSpanProblem, max_degree: int, *,
                    prime: int = DEFAULT_PRIME, certify: str = "fast",
                    max_columns: int | None = None,
                    generator_mode: bool = False,
                    workers: int = 1) -> GradedDimensionTable:
    """Graded dimension table of HP0(O^G, O^H) through the given degree.

    On a resource guardrail hit the partial table is attached to the raised
    GuardrailExceeded with an explicit truncation marker in the metadata.
    """
    meta = {"group": problem.spec.family, "n": problem.spec.n,
            "grading": "polynomial-degree", "max_degree": max_degree,
            "truncated": False}
    if problem.subgroup != "full":
        meta["subgroup"] = problem.subgroup
    degrees = range(max_degree + 1)
    task = functools.partial(_cell_task, problem, prime=prime, certify=certify,
                             max_columns=max_columns, generator_mode=generator_mode)
    entries: dict[int, int] = {}
    pool = None
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor
        pool = ProcessPoolExecutor(max_workers=workers)
    with pool or nullcontext():
        for d, value in zip(degrees, (pool.map if pool else map)(task, degrees)):
            if value is None:
                meta["truncated"] = True
                meta["truncated_at_degree"] = d
                table = GradedDimensionTable(entries, meta)
                raise GuardrailExceeded(f"guardrail exceeded at degree {d}", table)
            if value:
                entries[d] = value
    return GradedDimensionTable(entries, meta)


def _cell_task(problem: BracketSpanProblem, degree: int, **options) -> int | None:
    """One cell for `map` or a process pool; None marks a guardrail hit."""
    try:
        return _cell_dimension(problem, degree, **options)
    except GuardrailExceeded:
        return None


def check_aminus_identity(n: int, max_degree: int, *,
                          prime: int = DEFAULT_PRIME) -> dict[int, str]:
    """Verify dim (A_-)_d = rank {A_+, A_-}_d for each odd-sector degree <= bound.

    A_+ / A_- are the sign-character eigenspaces of the demihyperoctahedral
    invariant ring (all index degrees even / all odd).  Degrees with
    (A_-)_d = 0 pass vacuously.
    """
    if n < 2:
        raise ValueError("n >= 2 required")
    spec = GroupSpec("demihyperoctahedral", n)
    structure = darboux_structure(n)
    report: dict[int, str] = {}
    for d in range(0, max_degree + 1):
        if (d - n) % 2:
            continue
        target = invariant_basis_raw(spec, d, sector="-")
        dim = len(target)
        if dim == 0:
            report[d] = "pass"
            continue
        row_index = {max(vec): i for i, vec in enumerate(target)}
        blocks = ((invariant_basis_raw(spec, a, sector="+"),
                   invariant_basis_raw(spec, d + 2 - a, sector="-"))
                  for a in range(2, d + 2, 2))
        rank = _certified_rank(_bracket_columns(blocks, structure, row_index, True), dim, dim,
                               prime=prime, certify="fast")
        report[d] = "pass" if rank == dim else "fail"
    return report


def bracket_membership(f: SparsePolynomial, problem: BracketSpanProblem) -> MembershipResult:
    """Constructive membership of f in {O^G, O^H}: certificate or residue.

    The residue is expressed in the graded-lex leading-monomial complement
    of the span, so residues reduce to themselves (idempotent choice).
    All arithmetic here is rational; certificates re-expand bit-exactly.
    """
    if not f.is_homogeneous() or not f.terms:
        raise ValueError("membership needs a nonzero homogeneous input")
    degree = f.degree()
    structure = problem.structure()
    if f.context != structure.context:
        raise ValueError("context mismatch")
    m = structure.pairs
    order = {e: i for i, e in enumerate(sorted(
        monomials_of_degree(2 * m, degree),
        key=lambda e: e, reverse=True))}

    def coords(p: SparsePolynomial) -> dict:
        return {order[e]: c for e, c in p.terms.items()}

    ech = SparseRationalEchelon(track=True)
    tags: dict = {}
    ctx = structure.context
    for a, b in _column_pairs(problem, degree, False):
        us = [SparsePolynomial(ctx, {e: Fraction(c) for e, c in d.items()})
              for d in _g_basis_raw(problem, a)]
        vs = [SparsePolynomial(ctx, {e: Fraction(c) for e, c in d.items()})
              for d in _h_basis_raw(problem, b)]
        for iu, u in enumerate(us):
            for iv, v in enumerate(vs):
                col = poisson_bracket(u, v, structure)
                if not col.terms:
                    continue
                tag = (a, b, iu, iv)
                tags[tag] = (u, v)
                ech.add(coords(col), tag)
    red, combo = ech.reduce_only(coords(f))
    if red:
        inv_order = {i: e for e, i in order.items()}
        residue = SparsePolynomial(f.context, {inv_order[i]: c for i, c in red.items()})
        return MembershipResult(None, residue)
    # the reducer maintains f + sum combo_t * col_t = residual, so negate
    pairs = [(tags[t][0], tags[t][1], -c) for t, c in sorted(combo.items()) if c]
    cert = BracketCertificate(pairs)
    if cert.expand(structure) != f:
        raise AssertionError("certificate failed bit-exact re-expansion")
    return MembershipResult(cert, None)


# -- leading-term identity (A_- = {A_+, A_-} expansion) ------------------------

def _pair_key(ab: tuple[int, int]) -> tuple[int, int]:
    # x^a y^b > x^a' y^b' iff a+b > a'+b', or equal total and a > a'
    return (ab[0] + ab[1], ab[0])


def symmetrized_order_key(expo: tuple, m: int) -> tuple:
    """Comparison key for symmetrized monomials: per-index pairs sorted
    descending in the two-level single-pair order, compared lexicographically."""
    pairs = sorted(((expo[i], expo[m + i]) for i in range(m)),
                   key=_pair_key, reverse=True)
    return tuple(_pair_key(p) for p in pairs)


def symmetrize(mono: SparsePolynomial, n: int) -> SparsePolynomial:
    """Average over simultaneous index permutations (coefficient 1/n!)."""
    ctx = mono.context
    out: dict = {}
    scale = Fraction(1, math.factorial(n))
    for perm in itertools.permutations(range(n)):
        for expo, c in mono.terms.items():
            img = [0] * (2 * n)
            for i in range(n):
                img[perm[i]] = expo[i]
                img[n + perm[i]] = expo[n + i]
            key = tuple(img)
            out[key] = out.get(key, 0) + c * scale
    return SparsePolynomial(ctx, out)


def leading_term_identity_report(pairs: list[tuple[int, int]]) -> dict:
    """Check the leading-term expansion behind the A_- = {A_+, A_-} identity.

    `pairs` = [(a_1, b_1), ..., (a_n, b_n)], sorted descending in the
    two-level order, with every a_i + b_i odd.  Returns a report with the
    expected and observed leading coefficient and whether every other
    symmetrized component is strictly higher in the order.
    """
    n = len(pairs)
    if n < 1:
        raise ValueError("need at least one index")
    keys = [_pair_key(p) for p in pairs]
    if keys != sorted(keys, reverse=True):
        raise ValueError("exponent pairs must be sorted descending")
    if any((a + b) % 2 == 0 for a, b in pairs):
        raise ValueError("every index must have odd total degree")
    a1, b1 = pairs[0]
    structure = darboux_structure(n)
    ctx = structure.context
    first = SparsePolynomial.monomial(
        ctx, tuple([a1 + 1] + [0] * (n - 1) + [b1] + [0] * (n - 1)))
    second_expo = [0] * (2 * n)
    second_expo[n] = 1  # y_1
    for i in range(1, n):
        second_expo[i] = pairs[i][0]
        second_expo[n + i] = pairs[i][1]
    second = SparsePolynomial.monomial(ctx, tuple(second_expo))
    bracket = poisson_bracket(symmetrize(first, n), symmetrize(second, n), structure)

    target_expo = tuple(p[0] for p in pairs) + tuple(p[1] for p in pairs)
    target_key = symmetrized_order_key(target_expo, n)
    c = sum(1 for i in range(1, n) if pairs[i] == (0, 1))
    expected = Fraction(1 + c, n) * (a1 + 1)

    components = {e: coeff * len(_sn_orbit(e, n)) for e, coeff in bracket.terms.items()
                  if orbit_rep(e, n) == e}
    target_rep = orbit_rep(target_expo, n)
    observed = components.get(target_rep, Fraction(0))
    higher = all(symmetrized_order_key(rep, n) > target_key
                 for rep in components if rep != target_rep)
    return {
        "expected_leading": expected,
        "observed_leading": observed,
        "others_strictly_higher": higher,
        "ok": observed == expected and higher,
    }
