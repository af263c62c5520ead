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
over every degree.  The first slot holds these generators:
- S_n: the polarized power sums sum_{i <= n} x_i^k y_i^l of degree at most
  n (H. Weyl, The Classical Groups), restricted on the reflection pair,
  restriction being onto; S_1 also takes degree 2, for the a = 2 block of
  the sl_2 lemma below;
- B_n: those of even degree at most 2n, the B_n-invariants being the
  multisymmetric functions of (x^2, xy, y^2);
- D_n: those of B_n and the all-odd orbit sums, as O^{D_n} = A_+ + A_- with
  A_+ = O^{B_n} (the power sums alone have rank 2,583 of 2,584 on D_5 in
  degree 16);
- `check_aminus_identity`, which brackets A_+ against the A_+-module A_-:
  those of B_n.
Of each degree a only the part of weight <= 0 is bracketed (the sl_2 lemma
below), which of the power sums is p_{0,a} = sum_i y_i^a alone.
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
bracket whole polynomials, the generators as whole orbit sums, with rows
for the coordinates of H's invariants.

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

The traces are invariant under the flows of q_+ = sum_i x_i^2 / 2 and
q_- = sum_i y_i^2 / 2 as well.  Lemma (sl_2): S_0 is spanned by the brackets
of the first-slot pieces of weight <= 0 with the pieces of O^H of the
opposite weight.  Proof:
1. q_+ and q_- lie in O^G_2, and so in O^H, as E does (on the reflection
   pair, restricted).  By the argument of 2, {q_+, .} raises the weight by
   2 and {q_-, .} lowers it by 2, and with {E, .} they span an sl_2 (R. Howe,
   "Remarks on classical invariant theory", Trans. AMS 313, 1989).
2. So V is a finite-dimensional sl_2-module, and S a submodule by
   {q, {g, h}} = {{q, g}, h} + {g, {q, h}}.  Each first slot U_a is one too:
   the power sums of degree a span a copy of L(a), the image of C[x, y]_a,
   and A_- is an A_+-module.  On the reflection pair {q_+, .} commutes with
   restriction: sum_{i <= n} x_i^2 / 2 is q_+ pulled back along the
   orthogonal projection onto the zero-sum pair plus (sum_i x_i)^2 / 2n,
   whose brackets vanish there; likewise q_-.
3. The a = 2 block, p_{0,2} = 2 q_- against V_2, brackets to {q_-, V_2},
   the weight-zero part of sl_2.V, the sum of the non-trivial isotypic
   parts of V (J. E. Humphreys, Introduction to Lie Algebras and
   Representation Theory, section 7).  With pi the projection onto the
   invariants, S = sl_2.V + pi(S), so S_0 = {q_-, V_2} + pi(S).
4. The bracket map U_a (x) O^H_b -> V is sl_2-equivariant, so pi of it
   factors through the coinvariants of U_a (x) O^H_b.  There e^j u (x) h is
   (-1)^j u (x) e^j h, for u a lowest-weight vector, of weight -k, and
   e = {q_+, .}, and a tensor of nonzero weight is 0.  So pi(S) is spanned
   by the pi{u, h} with h of weight k, and pi{u, h} - {u, h} lies in
   (sl_2.V)_0 = {q_-, V_2}.
So the {u, h} and, by 3, {q_-, V_2} span S_0, and the columns hold them
all: each lowest-weight vector lies in the weight <= 0 part of its U_a.
For the power sums, U_a = L(a), that is p_{0,a} alone; the all-odd orbit
sums enter with their whole weight <= 0 part.  The lemma holds for
`check_aminus_identity` with A_+ and A_- for O^G and O^H, as q_+ and q_-
lie in A_+.

So a cell asks `ptl.weyl` only for the (degree, x-degree) pieces it
brackets.  Its rows are the weight-zero orbit representatives if it folds,
else the weight-zero monomials, against which a reflection cell counts
dim V_0.  A first-slot piece of x-degree p <= a / 2 meets the second-slot
one of x-degree d/2 + 1 - p (B_4, degree 12: 88 columns, against 350 with
every weight of the power sums and 3,264 over all weights); of a folded pair
only the smaller orbit sum is expanded.
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
    restrict_to_zero_sum,
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


def _first_slot(problem: BracketSpanProblem, degree: int, xdeg: int) -> tuple:
    """The generators of O^G in bidegree (xdeg, degree - xdeg) (module
    docstring): the power sum p_{0,degree} = sum_i y_i^degree up to degree
    `top`, and for D_n the all-odd orbit sums.  Representatives when the
    cell folds, else whole nonzero polynomials, restricted on the reflection
    pair."""
    family, n = problem.spec
    top = max(n, 2) if family.startswith("symmetric") else 0 if degree % 2 else 2 * n
    reps = ((0,) * n + (degree,) + (0,) * (n - 1),) if xdeg == 0 and degree <= top else ()
    if family == "demihyperoctahedral":
        reps += orbit_reps(problem.spec, degree, xdeg, "-")
    if problem.folded:
        return reps
    polys = [orbit_sum(rep, n) for rep in reps]
    polys = restrict_to_zero_sum(n, degree, polys) if family == "symmetric-reflection" else polys
    return tuple(f for f in polys if f)


# -- one degree cell ----------------------------------------------------------

def _column_pairs(problem: BracketSpanProblem, degree: int, second=_h_piece) -> list[tuple]:
    """(first slot, second slot) blocks whose brackets span the weight-zero
    part of {O^G, O^H}_degree, by one rule for every cell (module docstring):
    per split a + b = degree + 2 = 2s, low a first, the `_first_slot` pieces
    of x-degree p <= a / 2 (high first), of weight 2p - a <= 0, each against
    the piece of x-degree s - p of the second slot of degree b, of the
    opposite weight.  `second(problem, b, x)` gives that piece: `_h_piece`,
    or A_- for `check_aminus_identity`."""
    s, blocks = degree // 2 + 1, []
    for a in range(1, degree + 2):
        for p in range(a // 2, max(0, a - s) - 1, -1):  # 2p <= a, 0 <= s - p <= 2s - a
            if (us := _first_slot(problem, a, p)) and (vs := second(problem, 2 * s - a, s - p)):
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
    checked on weight zero, the B_n power sums generating A_+ in the first
    slot (module docstring); degrees whose weight-zero part of (A_-)_d is 0,
    the odd ones among them, pass vacuously.
    """
    if n < 2:
        raise ValueError("n >= 2 required")
    spec, structure = GroupSpec("demihyperoctahedral", n), darboux_structure(n)
    first = BracketSpanProblem(GroupSpec("hyperoctahedral", n))
    report: dict[int, str] = {}
    for d in range(n % 2, max_degree + 1, 2):
        target = () if d % 2 else orbit_reps(spec, d, d // 2, "-")
        if not target:
            report[d] = "pass"
            continue
        blocks = _column_pairs(first, d, lambda _, b, x: orbit_reps(spec, b, x, "-"))
        row_index, dim = {rep: i for i, rep in enumerate(target)}, len(target)
        kernel = certified_kernel(_bracket_columns(blocks, structure, row_index, True),
                                  dim, dim, prime)
        report[d] = "fail" if kernel else "pass"  # None: full rank reached
    return report
