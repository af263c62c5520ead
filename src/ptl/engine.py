"""Brute-force graded dimensions of HP0(O^G, O^H) = O^H / {O^G, O^H}.

For each polynomial degree d the span {O^G_a, O^H_b : a + b = d + 2, a >= 1}
is generated column by column from invariant orbit-sum bases, and the entry
reported is dim O^H_d minus the certified rank of that span.  Each cell
has one column set and one certificate.  The columns are streamed through
a sparse mod-p echelon by `linalg.certified_kernel`, the one certification
entry point shared with the solver: a full modular rank certifies itself,
and a deficit is certified over Q before being reported: the quotient
functionals (the nullspace of the columns, one per non-lead row) are
lifted off the same echelon and checked exactly against every column.
The first slot need not hold the whole basis of O^G_a.  By the Leibniz rule
{ab, h} = {a, bh} + {b, ah}, and as O^H is an O^G-module, {O^G, O^H} is
spanned by the {g, O^H_b}, g running over algebra generators of O^G and b
over every degree.  For S_n and B_n on Darboux pairs the polarized power
sums sum_i x_i^k y_i^l of degree at most n, resp. 2n, generate O^G (H. Weyl,
The Classical Groups; k + l even for B_n, whose invariants are the
multisymmetric functions of (x^2, xy, y^2)), so their full cells put these
in the first slot.  D_n cells keep the whole basis, with a <= b: the power
sums generate only the B_n-invariants (rank 2,583 of 2,584 on D_5 in degree
16), and A_+ times the n + 1 polarizations of x1...xn does not even span the
all-odd sector (for D_4 in degree 6, 3 x 5 products against dimension 16).
Degree 0 needs no special casing: the empty bracket span is {0} unless 1
is literally a bracket, as happens for Darboux structures whose group
fixes a Darboux pair.

Cells with H = G acting monomially (B_n, D_n and S_n on Darboux pairs, and
the A_+/A_- check) fold their columns.  G acts by Poisson automorphisms, so
for G-invariant u and v and the representative v0 = max(v) of the orbit sum
v = (1/|Stab v0|) sum_g g.v0, {u, v} = (1/|Stab v0|) sum_g g.{u, v0}; by
antisymmetry the same holds with the roles of u and v exchanged.  So each
bracket takes the representative of whichever orbit sum has more terms,
and the other one whole.  Adding each monomial of {u, v0} onto the row of
its orbit representative r gives the coefficient of {u, v} at r times
|Stab v0| / |Stab r|: a scale per row and per column, so the rank is
unchanged.  A monomial that the sign subgroup moves by -1 cancels in the
orbit sum and has no row; v0 itself is all-even or all-odd, hence fixed.
The other cells (the reflection action, relative and ambient targets)
bracket whole polynomials, with rows for the coordinates of H's invariants.

`check_aminus_identity` checks the A-/A+ sector identity of the
demihyperoctahedral ring, A_- = {A+, A-}, on folded cells.

Every cell is certified on weight zero only, the weight of a monomial
being w = deg_x - deg_y.  Lemma: with V = O^H_d, S = {O^G, O^H}_d and V_0,
S_0 their weight-zero parts, V/S = V_0/S_0, and S_0 is spanned by the
brackets {u, v} of spanning-set elements with w(u) + w(v) = 0.  Proof:
1. E = sum_i x_i y_i lies in O^G_2: B_n, D_n and S_n on Darboux pairs give
   x_i and y_i the same permutation and the same sign.  On the reflection
   pair E is the restriction of sum_{i <= n} x_i y_i, an S_n-invariant.
2. {E, f} = (deg_y f - deg_x f) f.  {E, .} is a derivation, so it is
   enough that {E, x_j} = -x_j and {E, y_j} = y_j.  For Darboux pairs that
   is {x_i, y_j} = delta_ij.  On the reflection pair, with s = sum_{i<n} x_i
   and {x_i, y_j} = delta_ij - 1/n, {E, x_j} = (-x_j + s/n) + s (-1/n).
3. Every basis element is weight-homogeneous: every group here preserves
   x-degree, and so does the substitution x_n = -(x_1 + ... + x_{n-1}).
   Each {x_i, y_j} takes one x and one y, so a bracket of elements of
   weights w and w' is homogeneous of weight w + w'.
By 3, S is the sum of its weight parts S_w, each spanned by the brackets
of weight w.  By 1 and 2 every f in V_w with w != 0 is the bracket
{E, f} / (-w), so S contains V_w, S = S_0 + sum_{w != 0} V_w, and
V/S = V_0/S_0.  As w = d mod 2, odd degrees have V_0 = 0 and no basis is
built for them.  For `check_aminus_identity` E lies in A_+ (the index i of
x_i y_i has degree 2), so the same argument restricts A_- = {A_+, A_-} to
weight zero.  This is the invariance of Poisson traces under the
Hamiltonian flow of the invariant E (Etingof and Schedler, "Poisson traces
and D-modules on Poisson varieties", GAFA 2010).

So a cell asks `ptl.weyl` only for the (degree, x-degree) pieces it
brackets.  Its rows are the weight-zero orbit representatives if it folds,
else the weight-zero monomials, against which a reflection cell counts
dim V_0.  A first-slot piece of x-degree p meets the second-slot one of
x-degree d/2 + 1 - p (B_4, degree 12: 350 columns of the 3,264 over all
weights); of a folded pair only the smaller orbit sum is expanded.
"""

from __future__ import annotations

import functools
import itertools
from collections import namedtuple

from ptl.linalg import DEFAULT_PRIME, certified_kernel
from ptl.poisson import (
    PoissonStructure,
    darboux_structure,
    reflection_structure,
    raw_bracket,
)
from ptl.tables import GradedDimensionTable
from ptl.weyl import (
    GroupSpec,
    invariant_basis_raw,
    monomials_of_degree,
    orbit_rep,
    orbit_reps,
    orbit_size,
    orbit_sum,
    reflection_dimension,
)

SUBGROUP_KINDS = ("full", "last-point-stabilizer", "ambient")


class BracketSpanProblem(namedtuple("BracketSpanProblem", "spec subgroup")):
    """HP0(O^G, O^H) for G = `spec` and H named by `subgroup`."""

    __slots__ = ()

    def __new__(cls, spec: GroupSpec, subgroup: str = "full"):
        if subgroup not in SUBGROUP_KINDS:
            raise ValueError(f"unknown subgroup kind {subgroup!r}")
        if subgroup == "last-point-stabilizer" and spec.family != "symmetric-reflection":
            raise ValueError("last-point-stabilizer lives inside symmetric-reflection")
        return super().__new__(cls, spec, subgroup)

    @property
    def folded(self) -> bool:
        """Whether H = G acts monomially, so that the cells fold."""
        return self.subgroup == "full" and self.spec.family != "symmetric-reflection"

    def structure(self) -> PoissonStructure:
        if self.spec.family == "symmetric-reflection":
            return reflection_structure(self.spec.n)
        return darboux_structure(self.spec.n)


class GuardrailExceeded(Exception):
    def __init__(self, message: str, table: GradedDimensionTable):
        super().__init__(message)
        self.table = table


# -- bases per problem --------------------------------------------------------

def _monomials(m: int, xdeg: int, ydeg: int) -> list[tuple]:
    """The monomials of bidegree (xdeg, ydeg) on m pairs, in descending order."""
    return [xs + ys for xs in monomials_of_degree(m, xdeg) for ys in monomials_of_degree(m, ydeg)]


def _h_spec(problem: BracketSpanProblem) -> GroupSpec | None:
    """H, or None for the ambient target (H trivial)."""
    if problem.subgroup == "last-point-stabilizer":
        return GroupSpec("symmetric-full", problem.spec.n - 1)
    return problem.spec if problem.subgroup == "full" else None


def _rows(problem: BracketSpanProblem, degree: int) -> tuple[tuple | list, int]:
    """Row keys of an even-degree cell and dim (O^H_d)_0 (module docstring):
    no orbit is expanded and no reflection invariant selected."""
    h, half = _h_spec(problem), degree // 2
    if h is None or h.family == "symmetric-reflection":
        rows = _monomials(problem.spec.pairs, half, half)
        return rows, len(rows) if h is None else reflection_dimension(h.n, half, half)
    reps = orbit_reps(h, degree, half)
    return reps, len(reps)


def _h_piece(problem: BracketSpanProblem, degree: int, xdeg: int) -> tuple:
    """O^H in bidegree (xdeg, degree - xdeg): representatives when the cell
    folds, whole polynomials otherwise."""
    h = _h_spec(problem)
    if h is None:
        return tuple({e: 1} for e in _monomials(problem.spec.pairs, xdeg, degree - xdeg))
    return orbit_reps(h, degree, xdeg) if problem.folded else invariant_basis_raw(h, degree, xdeg)


def _power_sum(spec: GroupSpec, degree: int, xdeg: int) -> tuple:
    """The representative of sum_i x_i^xdeg y_i^(degree - xdeg), if that is in O^G."""
    pad = (0,) * (spec.pairs - 1)
    return () if spec.family == "hyperoctahedral" and degree % 2 else (
        (xdeg,) + pad + (degree - xdeg,) + pad,)


# -- one degree cell ----------------------------------------------------------

def _column_pairs(problem: BracketSpanProblem, degree: int) -> list[tuple]:
    """(first slot, second slot) blocks whose brackets span the weight-zero
    part of {O^G, O^H}_degree: per split a + b = degree + 2 = 2s, low a first,
    the pieces of x-degrees p (high first) and s - p, of opposite weights
    (module docstring).

    Full S_n and B_n cells put the power sums of degree a <= n, resp. 2n, in
    the first slot; the other cells all of O^G_a, and for H = G only a <= b.
    """
    spec, full = problem.spec, problem.subgroup == "full"
    top = full and {"symmetric-full": spec.n, "hyperoctahedral": 2 * spec.n}.get(spec.family)
    last = min(top, degree + 1) if top else (degree + 2) // 2 if full else degree + 1
    s, blocks = degree // 2 + 1, []
    for a in range(1, last + 1):
        for p in range(min(a, s), max(0, a - s) - 1, -1):  # 0 <= p <= a, 0 <= s - p <= 2s - a
            us = (_power_sum(spec, a, p) if top else
                  orbit_reps(spec, a, p) if problem.folded else invariant_basis_raw(spec, a, p))
            if us and (vs := _h_piece(problem, 2 * s - a, s - p)):
                blocks.append((us, vs))
    return blocks


def _cell_dimension(problem: BracketSpanProblem, degree: int, *,
                    prime: int = DEFAULT_PRIME, max_columns: int | None = None) -> int | None:
    """Certified dim O^H_d - rank {O^G, O^H}_d for one degree, on weight zero;
    None when the cell would stream more than `max_columns` columns.  The
    rank is at most dim O^H_d; below it, it is the number of rows less the
    dimension of the certified kernel."""
    if degree % 2:
        return 0
    rows, dim = _rows(problem, degree)
    if dim == 0:
        return 0
    blocks = _column_pairs(problem, degree)
    if max_columns is not None:
        n_cols = sum(len(us) * len(vs) for us, vs in blocks)
        if n_cols > max_columns:
            return None
    row_index = {e: i for i, e in enumerate(rows)}
    columns = _bracket_columns(blocks, problem.structure(), row_index, problem.folded)
    kernel = certified_kernel(columns, len(rows), dim, prime)
    return 0 if kernel is None else dim - (len(rows) - len(kernel))


def _bracket_columns(blocks, structure: PoissonStructure, row_index: dict, fold: bool):
    """Stream the nonzero brackets {u, v}, u in us, v in vs for each block, as
    sparse columns over the row indices.  With `fold` the blocks hold orbit
    representatives: that of the orbit sum with more terms (`orbit_size`)
    goes first as a monomial, the other orbit sum is bracketed whole
    (`orbit_sum` expands it on demand), and each output monomial is added
    onto the row of its `orbit_rep` (module docstring); a column may so be
    -{u, v}, which leaves the rank alone.  Monomials without a row are
    dropped; each distinct monomial is mapped once per cell."""
    m, row_of = structure.pairs, {}
    for us, vs in blocks:
        if fold:
            size = {r: orbit_size(r, m) for r in us + vs}
            pairs = (({u: 1}, orbit_sum(v, m)) if size[u] >= size[v] else ({v: 1}, orbit_sum(u, m))
                     for u in us for v in vs)
        else:
            pairs = itertools.product(us, vs)
        for f, g in pairs:
            col: dict = {}
            for key, val in raw_bracket(f, g, structure).items():
                try:
                    r = row_of[key]
                except KeyError:
                    r = row_of[key] = row_index.get(orbit_rep(key, m) if fold else key)
                if r is not None:
                    col[r] = col.get(r, 0) + val
            col = {r: c for r, c in col.items() if c}
            if col:
                yield col


# -- public operations ---------------------------------------------------------

def hp0_graded_dims(problem: BracketSpanProblem, max_degree: int, *,
                    prime: int = DEFAULT_PRIME, max_columns: int | None = None,
                    mapper=map) -> GradedDimensionTable:
    """Graded dimension table of HP0(O^G, O^H) through the given degree.

    The cells are computed by `mapper`, which maps a function over the
    degrees in order: the builtin `map`, or a process pool's `imap`.  On a
    resource guardrail hit the partial table is attached to the raised
    GuardrailExceeded with an explicit truncation marker in the metadata.
    """
    meta = {"group": problem.spec.family, "n": problem.spec.n,
            "grading": "polynomial-degree", "max_degree": max_degree,
            "truncated": False}
    if problem.subgroup != "full":
        meta["subgroup"] = problem.subgroup
    degrees = range(max_degree + 1)
    task = functools.partial(_cell_dimension, problem, prime=prime, max_columns=max_columns)
    entries: dict[int, int] = {}
    for d, value in zip(degrees, mapper(task, degrees)):
        if value is None:
            meta["truncated"] = True
            meta["truncated_at_degree"] = d
            table = GradedDimensionTable(entries, meta)
            raise GuardrailExceeded(f"guardrail exceeded at degree {d}", table)
        if value:
            entries[d] = value
    return GradedDimensionTable(entries, meta)


def check_aminus_identity(n: int, max_degree: int, *,
                          prime: int = DEFAULT_PRIME) -> dict[int, str]:
    """Verify dim (A_-)_d = rank {A_+, A_-}_d for each odd-sector degree <= bound.

    A_+ / A_- are the sign-character eigenspaces of the demihyperoctahedral
    invariant ring (all index degrees even / all odd).  Each degree is
    checked on weight zero (module docstring); degrees whose weight-zero
    part of (A_-)_d is 0, the odd ones among them, pass vacuously.
    """
    if n < 2:
        raise ValueError("n >= 2 required")
    spec = GroupSpec("demihyperoctahedral", n)
    structure = darboux_structure(n)
    report: dict[int, str] = {}
    for d in range(n % 2, max_degree + 1, 2):
        target = () if d % 2 else orbit_reps(spec, d, d // 2, "-")
        if not target:
            report[d] = "pass"
            continue
        s = d // 2 + 1
        blocks = [(us, vs) for a in range(2, 2 * s, 2)
                  for p in range(min(a, s), max(0, a - s) - 1, -1)
                  if (us := orbit_reps(spec, a, p, "+"))
                  and (vs := orbit_reps(spec, 2 * s - a, s - p, "-"))]
        row_index, dim = {rep: i for i, rep in enumerate(target)}, len(target)
        kernel = certified_kernel(_bracket_columns(blocks, structure, row_index, True),
                                  dim, dim, prime)
        report[d] = "fail" if kernel else "pass"  # None: full rank reached
    return report
