"""Finite Weyl group actions on polynomial rings and their class counts.

Groups handled: the full hyperoctahedral group B_n = S_n x (Z/2)^n of signed
permutations, its index-two subgroup D_n (even number of sign flips), S_n
itself acting either monomially on Darboux coordinates of C^{2n}
(``symmetric-full``) or through the eliminated-coordinate realization of the
reflection representation (``symmetric-reflection``), and the last-point
stabilizer S_{n-1} inside the latter, which acts on the n-1 surviving
coordinate pairs as ``symmetric-full`` does.

An element acts by x_i -> sign_i * x_{perm(i)} and simultaneously on y; the
action is a ring homomorphism, preserves degree, and commutes with the
Poisson bracket.  Invariant subspaces are spanned by orbit sums of
monomials, kept with coefficient 1 per orbit member so the rank engine sees
small integers; for the non-monomial reflection action the orbit sum of a
monomial means the sum over the full group of its images.

Class counts: dim HH_0 of the invariant Weyl algebra equals the number of
conjugacy classes acting without eigenvalue one (the trace count of the
quantization).  For B_n those classes are the all-negative signed cycle
types; for D_n, the all-negative types with evenly many cycles, i.e.
partitions of n with an even number of parts.  Both closed forms are
validated against a determinant-based conjugacy scan that never looks at
cycle types.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from ptl.context import VariableContext, darboux_context
from ptl.poly import SparsePolynomial
from ptl.partitions import partition_count, partition_count_exact_parts, even_part_count, partitions

FAMILIES = ("symmetric-full", "symmetric-reflection", "hyperoctahedral", "demihyperoctahedral")


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

    def signed_cycle_type(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """(positive cycle lengths, negative cycle lengths), each sorted."""
        seen = [False] * self.n
        pos, neg = [], []
        for start in range(self.n):
            if seen[start]:
                continue
            length, sign, i = 0, 1, start
            while not seen[i]:
                seen[i] = True
                sign *= self.signs[i]
                i = self.perm[i]
                length += 1
            (pos if sign == 1 else neg).append(length)
        return tuple(sorted(pos, reverse=True)), tuple(sorted(neg, reverse=True))


@dataclass(frozen=True)
class GroupSpec:
    family: str
    n: int

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        nmin = 2 if self.family == "symmetric-reflection" else 1
        if self.n < nmin:
            raise ValueError(f"{self.family} needs n >= {nmin}")

    @property
    def pairs(self) -> int:
        """Number of (x, y) variable pairs the group acts on."""
        return self.n - 1 if self.family == "symmetric-reflection" else self.n

    def context(self) -> VariableContext:
        return _spec_context(self.family, self.n)

    def order(self) -> int:
        import math
        f = math.factorial(self.n)
        if self.family == "hyperoctahedral":
            return f * 2 ** self.n
        if self.family == "demihyperoctahedral":
            return f * 2 ** (self.n - 1)
        return f

    def contains(self, g: SignedPermutation) -> bool:
        if g.n != self.n:
            return False
        if self.family in ("symmetric-full", "symmetric-reflection"):
            return g.is_plain()
        if self.family == "demihyperoctahedral":
            return g.sign_product() == 1
        return True

    def elements(self):
        """All group elements; only sensible for small n."""
        n = self.n
        for perm in itertools.permutations(range(n)):
            if self.family in ("symmetric-full", "symmetric-reflection"):
                yield SignedPermutation(perm, (1,) * n)
            elif self.family == "hyperoctahedral":
                for signs in itertools.product((1, -1), repeat=n):
                    yield SignedPermutation(perm, signs)
            else:
                for signs in itertools.product((1, -1), repeat=n):
                    if _prod(signs) == 1:
                        yield SignedPermutation(perm, signs)

    def generators(self) -> list[SignedPermutation]:
        n = self.n
        gens = []
        if n >= 2:
            swap = list(range(n))
            swap[0], swap[1] = 1, 0
            gens.append(SignedPermutation(tuple(swap), (1,) * n))
            cycle = tuple(list(range(1, n)) + [0])
            gens.append(SignedPermutation(cycle, (1,) * n))
        if self.family == "hyperoctahedral":
            gens.append(SignedPermutation(tuple(range(n)), (-1,) + (1,) * (n - 1)))
        elif self.family == "demihyperoctahedral":
            if n >= 2:
                gens.append(SignedPermutation(tuple(range(n)), (-1, -1) + (1,) * (n - 2)))
        return gens or [SignedPermutation.identity(n)]


@lru_cache(maxsize=None)
def _spec_context(family: str, n: int) -> VariableContext:
    return darboux_context(n - 1 if family == "symmetric-reflection" else n)


def _prod(signs) -> int:
    p = 1
    for s in signs:
        p *= s
    return p


# -- the action --------------------------------------------------------------

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


class _ReflectionAction:
    """Cached linear substitution action of S_n on eliminated coordinates."""

    def __init__(self, n: int):
        self.n = n
        self.context = _spec_context("symmetric-reflection", n)
        self._images: dict[SignedPermutation, dict] = {}
        self._caches: dict[SignedPermutation, dict] = {}

    def images(self, g: SignedPermutation) -> dict:
        imgs = self._images.get(g)
        if imgs is None:
            ctx, n, m = self.context, self.n, self.n - 1
            minus_sum_x = SparsePolynomial(
                ctx, {tuple(1 if k == i else 0 for k in range(2 * m)): -1 for i in range(m)})
            minus_sum_y = SparsePolynomial(
                ctx, {tuple(1 if k == m + i else 0 for k in range(2 * m)): -1 for i in range(m)})
            imgs = {}
            for i in range(m):
                j = g.perm[i]
                if j < m:
                    imgs[ctx.names[i]] = SparsePolynomial.variable(ctx, ctx.names[j])
                    imgs[ctx.names[m + i]] = SparsePolynomial.variable(ctx, ctx.names[m + j])
                else:
                    imgs[ctx.names[i]] = minus_sum_x
                    imgs[ctx.names[m + i]] = minus_sum_y
            self._images[g] = imgs
            self._caches[g] = {}
        return imgs

    def apply(self, g: SignedPermutation, f: SparsePolynomial) -> SparsePolynomial:
        imgs = self.images(g)
        return f.substitute(imgs, self.context, _power_cache=self._caches[g])


@lru_cache(maxsize=None)
def _reflection_action(n: int) -> _ReflectionAction:
    return _ReflectionAction(n)


def act(g: SignedPermutation, f: SparsePolynomial, spec: GroupSpec) -> SparsePolynomial:
    """Ring-homomorphism action x_i -> sign_i x_{perm(i)}, y likewise."""
    if not spec.contains(g):
        raise ValueError(f"element not in {spec.family}({spec.n})")
    if spec.family == "symmetric-reflection":
        action = _reflection_action(spec.n)
        if f.context != action.context:
            raise ValueError("context mismatch")
        return action.apply(g, f)
    if f.context != spec.context():
        raise ValueError("context mismatch")
    m = spec.pairs
    out: dict = {}
    for expo, c in f.terms.items():
        key, sign = act_monomial_raw(g, expo, m)
        s = out.get(key, 0) + sign * c
        if s:
            out[key] = s
        else:
            del out[key]
    return SparsePolynomial._raw(f.context, out)


# -- monomial enumeration and orbit bookkeeping ------------------------------

def monomials_of_degree(nvars: int, degree: int):
    """All exponent vectors of the given total degree (reverse-lex stream)."""
    if nvars == 1:
        yield (degree,)
        return
    for first in range(degree, -1, -1):
        for rest in monomials_of_degree(nvars - 1, degree - first):
            yield (first,) + rest


def orbit_rep(expo: tuple, m: int) -> tuple:
    """Canonical S_m-orbit representative: per-index (x, y) pairs sorted."""
    pairs = sorted(((expo[i], expo[m + i]) for i in range(m)), reverse=True)
    return tuple(p[0] for p in pairs) + tuple(p[1] for p in pairs)


def _index_parity_ok(expo: tuple, m: int, family: str) -> str | None:
    """Sector of a monomial under the sign subgroup, or None if killed.

    Returns "+" (all index degrees even), "-" (all odd) or "" when the
    family imposes no parity condition.
    """
    if family == "symmetric-full":
        return ""
    parities = {(expo[i] + expo[m + i]) % 2 for i in range(m)}
    if family == "hyperoctahedral":
        return "+" if parities <= {0} else None
    # demihyperoctahedral: even sign changes fix all-even and all-odd monomials
    if parities == {0} or not parities:
        return "+"
    if parities == {1}:
        return "-"
    return None


def _sn_orbit(expo: tuple, m: int) -> list[tuple]:
    """Distinct images of a monomial under simultaneous index permutations."""
    pairs = [(expo[i], expo[m + i]) for i in range(m)]
    out = set()
    for pp in set(itertools.permutations(pairs)):
        out.add(tuple(p[0] for p in pp) + tuple(p[1] for p in pp))
    return sorted(out)


@lru_cache(maxsize=None)
def invariant_basis_raw(spec: GroupSpec, degree: int, sector: str | None = None) -> tuple[dict, ...]:
    """Invariant-space basis as raw {exponent: +-1} dicts, deterministic order.

    For the monomial families these are orbit sums (coefficient one per
    monomial).  `sector` restricts demihyperoctahedral bases to the
    all-even ("+") or all-odd ("-") eigenspace of the sign character.
    For symmetric-reflection the group averages are row-reduced to an
    independent subset of full-group orbit sums.  Cached per (spec, degree,
    sector): the result is shared and must be treated as read-only.
    """
    if degree < 0:
        return ()
    m = spec.pairs
    if spec.family == "symmetric-reflection":
        return tuple(dict(p.terms) for p in _reflection_invariants(spec.n, degree))
    out = []
    for expo in monomials_of_degree(2 * m, degree):
        if orbit_rep(expo, m) != expo:
            continue
        sec = _index_parity_ok(expo, m, spec.family)
        if sec is None or (sector is not None and sec != sector and sec != ""):
            continue
        out.append({e: 1 for e in _sn_orbit(expo, m)})
    # graded-lex descending on representatives
    out.sort(key=lambda d: max(d), reverse=True)
    return tuple(out)


def invariant_basis(spec: GroupSpec, degree: int) -> list[SparsePolynomial]:
    """Deterministically ordered basis of the degree-d invariant subspace."""
    ctx = spec.context()
    return [SparsePolynomial(ctx, {e: Fraction(c) for e, c in d.items()})
            for d in invariant_basis_raw(spec, degree)]


@lru_cache(maxsize=None)
def _reflection_invariants(n: int, degree: int) -> tuple:
    """Independent orbit sums spanning the S_n-invariants of the eliminated
    ring in a fixed degree (exact incremental row reduction)."""
    spec = GroupSpec("symmetric-reflection", n)
    ctx = spec.context()
    m = n - 1
    action = _reflection_action(n)
    elements = list(spec.elements())
    basis: list[SparsePolynomial] = []
    echelon: dict[tuple, dict] = {}   # pivot monomial -> reduced vector
    for expo in monomials_of_degree(2 * m, degree):
        mono = SparsePolynomial.monomial(ctx, expo)
        total = SparsePolynomial.zero(ctx)
        for g in elements:
            total = total + action.apply(g, mono)
        if not total.terms:
            continue
        vec = dict(total.terms)
        # reduce against current echelon (graded-lex descending pivots)
        while vec:
            lead = max(vec)
            piv = echelon.get(lead)
            if piv is None:
                break
            coef = vec[lead] / piv[lead]
            for k, v in piv.items():
                s = vec.get(k, 0) - coef * v
                if s:
                    vec[k] = s
                else:
                    vec.pop(k, None)
        if vec:
            echelon[max(vec)] = vec
            basis.append(total)
    return tuple(basis)


# -- trace-count dimensions (AFLS counts) ------------------------------------

def hh0_dimension(family: str, n: int) -> int:
    """Number of conjugacy classes acting on C^{2n} without eigenvalue one.

    typeA(n): S_{n+1} on its doubled reflection representation -- only the
    (n+1)-cycle class, so 1.  typeB(n): classes with every signed cycle
    negative, one per partition of n.  typeD(n): the same classes restricted
    to determinant one, i.e. partitions of n with an even number of parts.
    """
    if family == "typeA":
        if n < 1:
            raise ValueError("typeA needs n >= 1")
        return 1
    if family == "typeB":
        if n < 1:
            raise ValueError("typeB needs n >= 1")
        return partition_count(n)
    if family == "typeD":
        if n < 2:
            raise ValueError("typeD needs n >= 2")
        return even_part_count(n)
    raise ValueError(f"unknown family {family!r}")


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
    gens = spec.generators()
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
        spec, {(g.perm, g.signs) for g in spec.elements() if _det_minus_id(g, reflection)})


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
    return _conjugation_orbit_count(spec, {(g.perm, g.signs) for g in spec.elements()})
