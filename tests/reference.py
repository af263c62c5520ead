"""Reference implementations that the tests hold the package to.

None of these is run by a CLI command.  Each is the slow, independent route
to something the package computes faster, or a check of an identity the
package relies on:

* `Polynomial`, a polynomial with `Fraction` coefficients over named
  variables (s1, s2, ... or the Darboux x1..xm, y1..ym), with ring
  operators, partial derivatives and Laurent exponents; the package itself
  works on plain exponent dicts, and `Polynomial.text` is
  `solver.polynomial_text`;
* the group-element layer: signed permutations, the group's elements and
  generators, and the action on `Polynomial`s (`act`, `invariant_basis`),
  against which the orbit-sum bases are checked;
* exact rational elimination (`SparseRationalEchelon`), and with it the
  reflection invariants chosen over Q (`exact_reflection_invariants`),
  against which the mod-p selection and its counted dimension are checked,
  and the integer form of its vectors (`integer_vector`);
* the class-count scan: conjugacy classes without eigenvalue one by a
  determinant scan that never looks at cycle types, against the closed
  forms of `partitions.hh0_dimension`;
* `poisson_bracket` on `Polynomial`s, the reference for
  `poisson.raw_bracket`;
* the leading-term expansion behind the A_- = {A_+, A_-} identity;
* whole engine cells: the bracket spans of `ptl.engine` over every weight,
  against which its weight-zero cells are checked;
* the typed solver's Fraction membership test, family spans and kernel
  bases as polynomials (`kernel_vectors`), its xi slices built for each k
  (`_xi_slice`) and every column of a degree, s1 included (`_components`),
  which the package never builds, and multipartitions by enumeration.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import add
from types import MappingProxyType

from ptl import engine
from ptl.partitions import partition_count, partition_count_exact_parts, partitions
from ptl.poisson import PoissonStructure, darboux_structure, raw_bracket
from ptl.solver import (
    SolutionBasis,
    _column_rows_for_k,
    _completed,
    _label_code,
    _partition_to_expo,
    _reduced_components,
    _xi_terms,
    family_generators,
    polynomial_text,
)
from ptl.tables import GradedDimensionTable
from ptl.weyl import (
    GroupSpec,
    _sn_orbit,
    invariant_basis_raw,
    monomials_of_degree,
    orbit_rep,
    orbit_reps,
    orbit_sum,
    restrict_to_zero_sum,
)


# -- polynomials with Fraction coefficients -------------------------------------

def s_names(n: int) -> tuple[str, ...]:
    return tuple(f"s{i}" for i in range(1, n + 1))


def darboux_names(m: int) -> tuple[str, ...]:
    """x1..xm, y1..ym: the variables of a Poisson structure on m pairs."""
    return tuple(f"x{i}" for i in range(1, m + 1)) + tuple(f"y{i}" for i in range(1, m + 1))


class Polynomial:
    """{exponent tuple: nonzero Fraction} over the variables `names`; an
    exponent may be negative.  Polynomials over different variables do not
    mix: a ring operation on them raises ValueError."""

    def __init__(self, names: tuple[str, ...], terms=()):
        self.names, self.terms = names, {}
        for expo, c in terms.items() if isinstance(terms, dict) else terms:
            s = self.terms.pop(expo, 0) + Fraction(c)
            if s:
                self.terms[expo] = s

    @classmethod
    def variable(cls, names: tuple[str, ...], name: str, exponent: int = 1) -> "Polynomial":
        i = names.index(name)
        return cls(names, {(0,) * i + (exponent,) + (0,) * (len(names) - i - 1): 1})

    def _same(self, other) -> "Polynomial":
        if not isinstance(other, Polynomial):
            return Polynomial(self.names, {(0,) * len(self.names): other})
        if other.names != self.names:
            raise ValueError("polynomials over different variables")
        return other

    def __add__(self, other):
        return Polynomial(self.names, [*self.terms.items(), *self._same(other).terms.items()])

    __radd__ = __add__

    def __mul__(self, other):
        other = self._same(other)
        return Polynomial(self.names, [(tuple(map(add, e1, e2)), c1 * c2)
                                       for e1, c1 in self.terms.items()
                                       for e2, c2 in other.terms.items()])

    __rmul__ = __mul__

    def __neg__(self):
        return self * -1

    def __sub__(self, other):
        return self + -self._same(other)

    def __rsub__(self, other):
        return -self + other

    def __eq__(self, other):
        return self.terms == self._same(other).terms

    def derivative(self, name: str) -> "Polynomial":
        i = self.names.index(name)
        return Polynomial(self.names, [(e[:i] + (e[i] - 1,) + e[i + 1:], c * e[i])
                                       for e, c in self.terms.items() if e[i]])

    def text(self) -> str:
        """The package's display form, for polynomials in s1, s2, ...."""
        assert self.names == s_names(len(self.names))
        return polynomial_text(self.terms)


# -- group elements and the action ---------------------------------------------

@dataclass(frozen=True)
class SignedPermutation:
    """Element of B_n: x_i -> signs[i] * x_{perm[i]} (0-based internally)."""

    perm: tuple[int, ...]
    signs: tuple[int, ...]

    def __post_init__(self):
        n = len(self.perm)
        if sorted(self.perm) != list(range(n)) or len(self.signs) != n:
            raise ValueError("not a signed permutation")
        if any(s not in (1, -1) for s in self.signs):
            raise ValueError("signs must be +-1")

    @property
    def n(self) -> int:
        return len(self.perm)

    @staticmethod
    def identity(n: int) -> "SignedPermutation":
        return SignedPermutation(tuple(range(n)), (1,) * n)

    def compose(self, other: "SignedPermutation") -> "SignedPermutation":
        """self after other, so that act(self.compose(other)) = act(self) o act(other)."""
        perm = tuple(self.perm[other.perm[i]] for i in range(self.n))
        signs = tuple(other.signs[i] * self.signs[other.perm[i]] for i in range(self.n))
        return SignedPermutation(perm, signs)

    def inverse(self) -> "SignedPermutation":
        inv = [0] * self.n
        for i, j in enumerate(self.perm):
            inv[j] = i
        signs = tuple(self.signs[inv[i]] for i in range(self.n))
        return SignedPermutation(tuple(inv), signs)

    def conjugate_by(self, h: "SignedPermutation") -> "SignedPermutation":
        return h.compose(self).compose(h.inverse())

    def is_plain(self) -> bool:
        return all(s == 1 for s in self.signs)

    def sign_product(self) -> int:
        p = 1
        for s in self.signs:
            p *= s
        return p


def contains(spec: GroupSpec, g: SignedPermutation) -> bool:
    if g.n != spec.n:
        return False
    if spec.family in ("symmetric-full", "symmetric-reflection"):
        return g.is_plain()
    if spec.family == "demihyperoctahedral":
        return g.sign_product() == 1
    return True


def elements(spec: GroupSpec):
    """All group elements; only sensible for small n."""
    n = spec.n
    for perm in itertools.permutations(range(n)):
        if spec.family in ("symmetric-full", "symmetric-reflection"):
            yield SignedPermutation(perm, (1,) * n)
        elif spec.family == "hyperoctahedral":
            for signs in itertools.product((1, -1), repeat=n):
                yield SignedPermutation(perm, signs)
        else:
            for signs in itertools.product((1, -1), repeat=n):
                if _prod(signs) == 1:
                    yield SignedPermutation(perm, signs)


def generators(spec: GroupSpec) -> list[SignedPermutation]:
    n = spec.n
    gens = []
    if n >= 2:
        swap = list(range(n))
        swap[0], swap[1] = 1, 0
        gens.append(SignedPermutation(tuple(swap), (1,) * n))
        cycle = tuple(list(range(1, n)) + [0])
        gens.append(SignedPermutation(cycle, (1,) * n))
    if spec.family == "hyperoctahedral":
        gens.append(SignedPermutation(tuple(range(n)), (-1,) + (1,) * (n - 1)))
    elif spec.family == "demihyperoctahedral":
        if n >= 2:
            gens.append(SignedPermutation(tuple(range(n)), (-1, -1) + (1,) * (n - 2)))
    return gens or [SignedPermutation.identity(n)]


def _prod(signs) -> int:
    p = 1
    for s in signs:
        p *= s
    return p


def act_monomial_raw(g: SignedPermutation, expo: tuple, m: int) -> tuple[tuple, int]:
    """Image of a monomial exponent vector under the monomial action on m pairs.

    Returns (new exponent vector, sign).
    """
    out = [0] * (2 * m)
    sign = 1
    for i in range(m):
        a, b = expo[i], expo[m + i]
        j = g.perm[i]
        out[j] = a
        out[m + j] = b
        if g.signs[i] == -1 and (a + b) % 2:
            sign = -sign
    return tuple(out), sign


def act(g: SignedPermutation, f: Polynomial, spec: GroupSpec) -> Polynomial:
    """Ring-homomorphism action x_i -> sign_i x_{perm(i)}, y likewise.

    For symmetric-reflection, f is lifted to C^{2n} (free of x_n, y_n),
    permuted there and restricted back to the eliminated coordinates.
    """
    if not contains(spec, g):
        raise ValueError(f"element not in {spec.family}({spec.n})")
    if f.names != darboux_names(spec.pairs):
        raise ValueError("f is not a polynomial on the group's pairs")
    m = spec.pairs
    lift = spec.family == "symmetric-reflection"
    out: dict = {}
    for expo, c in f.terms.items():
        if lift:
            expo = expo[:m] + (0,) + expo[m:] + (0,)
        key, sign = act_monomial_raw(g, expo, g.n)
        out[key] = out.get(key, 0) + sign * c
    if lift:
        out = next(restrict_to_zero_sum(g.n, max(map(sum, out), default=0), [out]))
    return Polynomial(f.names, out)


def whole_basis(spec: GroupSpec, degree: int, sector: str | None = None) -> list[dict]:
    """The package's basis of the degree-d invariants, every x-degree at
    once, as raw dicts: the orbit sums in descending order of their
    representatives, for symmetric-reflection the selected pieces by
    ascending x-degree."""
    if spec.family == "symmetric-reflection":
        return [f for p in range(degree + 1) for f in invariant_basis_raw(spec, degree, p)]
    reps = sorted((r for p in range(degree + 1) for r in orbit_reps(spec, degree, p, sector)),
                  reverse=True)
    return [orbit_sum(r, spec.pairs) for r in reps]


def invariant_basis(spec: GroupSpec, degree: int) -> list[Polynomial]:
    """Deterministically ordered basis of the degree-d invariant subspace."""
    return [Polynomial(darboux_names(spec.pairs), d) for d in whole_basis(spec, degree)]


def exact_reflection_invariants(n: int, degree: int) -> list[dict]:
    """The reflection invariants of one degree as the package chose them
    before its mod-p selection: every S_n-orbit sum of the degree on
    C^{2n}, restricted to the zero-sum hyperplane pair, in descending order
    of representatives, kept when it grows an exact rational echelon."""
    orbits = whole_basis(GroupSpec("symmetric-full", n), degree)
    echelon = SparseRationalEchelon()
    return [total for total in restrict_to_zero_sum(n, degree, orbits)
            if echelon.add({k: Fraction(v) for k, v in total.items()})]


# -- class counts by a determinant scan ----------------------------------------

def _det_minus_id(g: SignedPermutation, reflection: bool = False) -> int:
    """Exact integer det(M_g - I) by fraction-free elimination.

    With `reflection=True` the matrix is the eliminated-coordinate action on
    C^{n-1} (x_i -> x_{g(i)}, the image -Σx_j substituted for x_n);
    otherwise the signed n x n permutation matrix.  In both cases the
    determinant on the doubled symplectic space is the square of this one,
    so nonvanishing here decides fixed-point-freeness there.
    """
    if reflection:
        m = g.n - 1
        mat = [[0] * m for _ in range(m)]
        for i in range(m):
            j = g.perm[i]
            if j < m:
                mat[j][i] += 1
            else:
                for r in range(m):
                    mat[r][i] -= 1
        for i in range(m):
            mat[i][i] -= 1
        n = m
    else:
        n = g.n
        mat = [[0] * n for _ in range(n)]
        for i in range(n):
            mat[g.perm[i]][i] += g.signs[i]
            mat[i][i] -= 1
    # Bareiss
    sign = 1
    prev = 1
    for k in range(n - 1):
        if mat[k][k] == 0:
            for r in range(k + 1, n):
                if mat[r][k]:
                    mat[k], mat[r] = mat[r], mat[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                mat[i][j] = (mat[i][j] * mat[k][k] - mat[i][k] * mat[k][j]) // prev
            mat[i][k] = 0
        prev = mat[k][k]
    return sign * mat[n - 1][n - 1]


def _conjugation_orbit_count(spec: GroupSpec, members: set) -> int:
    """Number of orbits of the conjugation action on a conjugation-stable set
    of (perm, signs) keys, by breadth-first search under the group generators."""
    gens = generators(spec)
    gens = gens + [h.inverse() for h in gens]
    classes = 0
    visited = set()
    for key in sorted(members):
        if key in visited:
            continue
        classes += 1
        stack = [key]
        visited.add(key)
        while stack:
            p, s = stack.pop()
            g = SignedPermutation(p, s)
            for h in gens:
                c = g.conjugate_by(h)
                ck = (c.perm, c.signs)
                if ck not in visited:
                    if ck not in members:
                        raise AssertionError("conjugation left the locus")
                    visited.add(ck)
                    stack.append(ck)
    return classes


def fixed_point_free_class_count(spec: GroupSpec) -> int:
    """Brute-force scan: conjugacy classes of g with det(g - Id) != 0 on C^{2n}.

    Enumerates the whole group, keeps elements whose n x n block determinant
    is nonzero (the C^{2n} determinant is its square), and counts conjugation
    orbits by breadth-first search under the group generators.  No cycle-type
    classification is consulted.
    """
    reflection = spec.family == "symmetric-reflection"
    return _conjugation_orbit_count(
        spec, {(g.perm, g.signs) for g in elements(spec) if _det_minus_id(g, reflection)})


def bn_class_count(n: int) -> int:
    """Conjugacy classes of B_n: pairs of partitions with total size n."""
    return sum(partition_count(k) * partition_count(n - k) for k in range(n + 1))


def dn_class_count(n: int) -> int:
    """Conjugacy classes of D_n by the signed-cycle classification.

    B_n-classes lying in D_n are those with evenly many negative cycles;
    such a class splits into two D_n-classes exactly when there are no
    negative cycles and every positive cycle has even length.
    """
    total = 0
    for k in range(0, n + 1):
        for lneg in range(0, k + 1):
            if lneg % 2 == 0:
                total += partition_count_exact_parts(k, lneg) * partition_count(n - k)
    split = sum(1 for lam in partitions(n) if all(part % 2 == 0 for part in lam))
    return total + split


def conjugacy_class_count_brute(spec: GroupSpec) -> int:
    """Count conjugacy classes by BFS orbits of the conjugation action."""
    return _conjugation_orbit_count(spec, {(g.perm, g.signs) for g in elements(spec)})


# -- the Poisson bracket on Polynomials ------------------------------------------

def _partials(f: Polynomial, m: int):
    fx = [f.derivative(f.names[i]) for i in range(m)]
    fy = [f.derivative(f.names[m + i]) for i in range(m)]
    return fx, fy


def poisson_bracket(f: Polynomial, g: Polynomial, P: PoissonStructure) -> Polynomial:
    """{f, g} under P; bilinear, antisymmetric, Leibniz, Jacobi."""
    names = darboux_names(P.pairs)
    if f.names != names or g.names != names:
        raise ValueError("f and g must be polynomials on the structure's pairs")
    m, zero = P.pairs, Polynomial(names)
    fx, fy = _partials(f, m)
    gx, gy = _partials(g, m)
    out = zero
    for i in range(m):
        out = out + fx[i] * gy[i] - fy[i] * gx[i]
    if P.kind == "reflection":
        corr = sum(fx, zero) * sum(gy, zero) - sum(fy, zero) * sum(gx, zero)
        out = out - corr * Fraction(1, P.n)
    return out


# -- leading-term identity (A_- = {A_+, A_-} expansion) ------------------------
#
# {symm(x1^(a1+1) y1^b1), symm(y1 x2^a2 y2^b2 ...)} =
# ((1+c)/n)(a1+1) symm(x1^a1 y1^b1 ...) + higher order,
# c = #{i >= 2 : (a_i, b_i) = (0, 1)}.

def _pair_key(ab: tuple[int, int]) -> tuple[int, int]:
    # x^a y^b > x^a' y^b' iff a+b > a'+b', or equal total and a > a'
    return (ab[0] + ab[1], ab[0])


def symmetrized_order_key(expo: tuple, m: int) -> tuple:
    """Comparison key for symmetrized monomials: per-index pairs sorted
    descending in the two-level single-pair order, compared lexicographically."""
    pairs = sorted(((expo[i], expo[m + i]) for i in range(m)),
                   key=_pair_key, reverse=True)
    return tuple(_pair_key(p) for p in pairs)


def symmetrize(mono: Polynomial, n: int) -> Polynomial:
    """Average over simultaneous index permutations (coefficient 1/n!)."""
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
    return Polynomial(mono.names, out)


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
    names = darboux_names(n)
    first = Polynomial(names, {tuple([a1 + 1] + [0] * (n - 1) + [b1] + [0] * (n - 1)): 1})
    second_expo = [0] * (2 * n)
    second_expo[n] = 1  # y_1
    for i in range(1, n):
        second_expo[i] = pairs[i][0]
        second_expo[n + i] = pairs[i][1]
    second = Polynomial(names, {tuple(second_expo): 1})
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


# -- exact rational elimination --------------------------------------------------

class SparseRationalEchelon:
    """Exact echelon over Q on sparse dict vectors: each stored row is
    reduced against the earlier ones, and its lead is its smallest
    coordinate."""

    def __init__(self):
        self.rows: list[dict] = []
        self.leads: list = []
        self.lead_index: dict = {}

    def add(self, vec: dict) -> bool:
        """Insert a vector; returns True when it increased the rank."""
        vec = dict(vec)
        while vec:
            lead = min(vec)
            idx = self.lead_index.get(lead)
            if idx is None:
                self.lead_index[lead] = len(self.rows)
                self.rows.append(vec)
                self.leads.append(lead)
                return True
            coef = vec[lead] / self.rows[idx][lead]
            for k, v in self.rows[idx].items():
                s = vec.get(k, 0) - coef * v
                if s:
                    vec[k] = s
                else:
                    vec.pop(k, None)
        return False

    @property
    def rank(self) -> int:
        return len(self.rows)


def integer_vector(vec: dict) -> dict:
    """A {coordinate: Fraction} vector scaled by the lcm of its
    denominators, as ints."""
    den = math.lcm(*(Fraction(v).denominator for v in vec.values()))
    return {c: int(v * den) for c, v in vec.items()}


# -- whole engine cells ----------------------------------------------------------

def exact_bracket_rank(structure: PoissonStructure, blocks, dim: int) -> int:
    """Rank over Q of the brackets {u, v}, u in us and v in vs for each
    (us, vs) block, each bracketed whole with every output monomial its own
    row.  The brackets lie in a space of dimension dim, so the rank stops
    there."""
    ech = SparseRationalEchelon()
    for us, vs in blocks:
        for u in us:
            for v in vs:
                if ech.rank == dim:
                    return dim
                ech.add({k: Fraction(c) for k, c in raw_bracket(u, v, structure).items()})
    return ech.rank


def whole_h_basis(problem: engine.BracketSpanProblem, degree: int) -> list[dict]:
    """O^H_d over every weight, as whole polynomials."""
    spec = problem.spec
    if problem.subgroup == "last-point-stabilizer":
        return whole_basis(GroupSpec("symmetric-full", spec.n - 1), degree)
    if problem.subgroup == "ambient":
        return [{e: 1} for e in monomials_of_degree(2 * spec.pairs, degree)]
    return whole_basis(spec, degree)


def whole_column_pairs(problem: engine.BracketSpanProblem, degree: int) -> list[tuple]:
    """The column blocks of a cell over every weight: per split
    a + b = degree + 2, the power sums of degree a <= n, resp. 2n, for full
    S_n and B_n cells, else the whole of O^G_a, against O^H_b, and for
    H = G only a <= b."""
    spec, full, m = problem.spec, problem.subgroup == "full", problem.spec.pairs
    top = full and {"symmetric-full": spec.n, "hyperoctahedral": 2 * spec.n}.get(spec.family)
    if top:
        return [([u for u in whole_basis(spec, a) if not any(max(u)[1:m] + max(u)[m + 1:])],
                 whole_h_basis(problem, degree + 2 - a))
                for a in range(1, min(top, degree + 1) + 1)]
    return [(whole_basis(spec, a), whole_h_basis(problem, degree + 2 - a))
            for a in range(1, degree + 2) if not full or 2 * a <= degree + 2]


def whole_cell_dimension(problem: engine.BracketSpanProblem, degree: int) -> int:
    """dim O^H_d - rank {O^G, O^H}_d over every weight: the brackets of all
    pairs of `whole_column_pairs`, ranked exactly."""
    dim = len(whole_h_basis(problem, degree))
    return dim - exact_bracket_rank(problem.structure(), whole_column_pairs(problem, degree), dim)


def whole_aminus_report(n: int, max_degree: int) -> dict[int, str]:
    """`engine.check_aminus_identity` over every weight: the brackets
    {(A_+)_a, (A_-)_b}, a + b = d + 2, ranked exactly against dim (A_-)_d."""
    spec, structure = GroupSpec("demihyperoctahedral", n), darboux_structure(n)
    report = {}
    for d in range(n % 2, max_degree + 1, 2):
        blocks = [(whole_basis(spec, a, "+"), whole_basis(spec, d + 2 - a, "-"))
                  for a in range(2, d + 2, 2)]
        dim = len(whole_basis(spec, d, "-"))
        rank = exact_bracket_rank(structure, blocks, dim)
        report[d] = "pass" if rank == dim else "fail"
    return report


# -- typed solver: membership and family spans -----------------------------------

@lru_cache(maxsize=None)
def _xi_slice(k: int, t: int) -> dict:
    """Slice t of xi_k times 4^t, for one k: its d/ds_{k+t} coefficient
    divided by 2(k+t)-1, as {((s-index, exponent), ...) sorted by index:
    int}, from the terms of `solver._xi_terms(t)`.  Treat the returned dict
    as immutable (it is cached)."""
    return {(((2 * k, -ell),) + tuple((2 * k + u, m) for u, m in parts) if ell else ()): c
            for c, ell, parts in _xi_terms(t)}


@lru_cache(maxsize=None)
def _components(n: int) -> MappingProxyType:
    """Every column of degree n, s1 or not, keyed by dual weight
    w = 4*(parts - n) ascending: the partitions of n as exponent tuples over
    s_1..s_2n, descending; read-only because the result is cached."""
    comps: dict[int, list[tuple]] = {}
    for lam in partitions(n):
        comps.setdefault(4 * (len(lam) - n), []).append(_partition_to_expo(lam, 2 * n))
    return MappingProxyType({w: tuple(sorted(cols, reverse=True))
                             for w, cols in sorted(comps.items())})


def constraint_residual(terms: dict, k: int, n: int) -> dict:
    """xi_k(F) after the substitution s_1 = ... = s_{2k-1} = 0, F given by
    its `terms` {exponent tuple over s1, s2, ...: Fraction}, as a raw
    {Laurent label code: Fraction} dict."""
    scale = 4 ** max(n - k, 0)
    out: dict = {}
    for expo, c in terms.items():
        e = expo + (0,) * (max(2 * n, 2 * k) - len(expo))
        support = [i + 1 for i, x in enumerate(e) if x]
        for label, val in _column_rows_for_k(k, n, e, support, _label_code(e, n)):
            s = out.get(label, Fraction(0)) + c * Fraction(val, scale)
            if s:
                out[label] = s
            else:
                del out[label]
    return out


def is_kernel_member(terms: dict, n: int, k_max: int | None = None) -> bool:
    """Exact membership test: every restricted xi_k annihilates the
    polynomial with these `terms`."""
    return not any(constraint_residual(terms, k, n)
                   for k in range(1, (k_max if k_max is not None else n) + 1))


def family_span_dims(n: int) -> GradedDimensionTable:
    """Exact dimensions of span(family_generators(n)) per dual weight."""
    spans: dict[int, SparseRationalEchelon] = {}
    for terms in family_generators(n):
        w = 4 * (sum(next(iter(terms))) - n)
        spans.setdefault(w, SparseRationalEchelon()).add(terms)
    return GradedDimensionTable({w: ech.rank for w, ech in spans.items()},
                                {"family": "D", "n": n, "grading": "dual-weight",
                                 "kind": "family-span"})


def kernel_vectors(sb: SolutionBasis, n: int, weight: int | None = None) -> list[Polynomial]:
    """A basis of the whole kernel of `sb` = `kernel_basis(n, weight)` as
    polynomials in s1..sn, component by component: the s1^2 monomials, then
    the completed reduced basis."""
    names, out = s_names(n), []
    for w, cols in _components(n).items():
        if weight is None or w == weight:
            free = _reduced_components(n)[w][1]
            out += [Polynomial(names, {e[:n]: 1}) for e in cols if e[0] >= 2]
            out += [Polynomial(names, _completed(n, {free[c]: x for c, x in vec.items()}))
                    for vec in sb.columns.get(w, ())]
    return out


# -- partitions ------------------------------------------------------------------

def multipartition_count_enum(n: int, i: int) -> int:
    """a_n(i) by direct enumeration of ordered i-tuples of partitions."""
    if n == 0:
        return 1
    if i == 0:
        return 0
    if i == 1:
        return sum(1 for _ in partitions(n))
    total = 0
    for first in range(n + 1):
        total += multipartition_count_enum(first, 1) * multipartition_count_enum(n - first, i - 1)
    return total
