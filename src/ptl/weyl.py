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
small integers; the orbits are enumerated directly as multisets of per-index
(x, y) exponent pairs.  For the non-monomial reflection action the
invariants are S_n-orbit sums on C^{2n} restricted to the zero-sum
hyperplane pair, again with integer coefficients.

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
from ptl.linalg import SparseRationalEchelon
from ptl.poisson import _raw_mul
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


def act(g: SignedPermutation, f: SparsePolynomial, spec: GroupSpec) -> SparsePolynomial:
    """Ring-homomorphism action x_i -> sign_i x_{perm(i)}, y likewise.

    For symmetric-reflection, f is lifted to C^{2n} (free of x_n, y_n),
    permuted there and restricted back to the eliminated coordinates.
    """
    if not spec.contains(g):
        raise ValueError(f"element not in {spec.family}({spec.n})")
    if f.context != spec.context():
        raise ValueError("context mismatch")
    m = spec.pairs
    lift = spec.family == "symmetric-reflection"
    out: dict = {}
    for expo, c in f.terms.items():
        if lift:
            expo = expo[:m] + (0,) + expo[m:] + (0,)
        key, sign = act_monomial_raw(g, expo, g.n)
        s = out.get(key, 0) + sign * c
        if s:
            out[key] = s
        else:
            del out[key]
    if lift:
        out = restrict_to_zero_sum(g.n, max(map(sum, out), default=0), [out])[0]
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


def _pair_sequences(m: int, degree: int, bound: tuple[int, int]):
    """Non-increasing sequences of m (a, b) pairs, each at most `bound`, with
    the a + b summing to `degree`: the S_m-orbits of degree-d monomials."""
    if m == 1:
        yield from (((a, degree - a),) for a in range(min(degree, bound[0]), -1, -1)
                    if (a, degree - a) <= bound)
        return
    for a in range(min(degree, bound[0]), -1, -1):
        top = degree - a if a < bound[0] else min(degree - a, bound[1])
        for b in range(top, -1, -1):
            for rest in _pair_sequences(m - 1, degree - a - b, (a, b)):
                yield ((a, b),) + rest


@lru_cache(maxsize=None)
def invariant_basis_raw(spec: GroupSpec, degree: int, sector: str | None = None) -> tuple[dict, ...]:
    """Invariant-space basis as raw {exponent: int} dicts, deterministic order.

    For the monomial families these are orbit sums (coefficient one per
    monomial), one per orbit representative (per-index pairs sorted
    descending), in descending order of the representative.  `sector`
    restricts demihyperoctahedral bases to the all-even ("+") or all-odd
    ("-") eigenspace of the sign character.  For symmetric-reflection see
    `_reflection_invariants`.  Cached per (spec, degree, sector): the result
    is shared and must be treated as read-only.
    """
    if degree < 0:
        return ()
    if spec.family == "symmetric-reflection":
        return _reflection_invariants(spec.n, degree)
    m = spec.pairs
    reps = []
    for seq in _pair_sequences(m, degree, (degree, degree)):
        expo = tuple(a for a, _ in seq) + tuple(b for _, b in seq)
        sec = _index_parity_ok(expo, m, spec.family)
        if sec is None or (sector is not None and sec != sector and sec != ""):
            continue
        reps.append(expo)
    reps.sort(reverse=True)
    return tuple({e: 1 for e in _sn_orbit(expo, m)} for expo in reps)


def invariant_basis(spec: GroupSpec, degree: int) -> list[SparsePolynomial]:
    """Deterministically ordered basis of the degree-d invariant subspace."""
    ctx = spec.context()
    return [SparsePolynomial(ctx, {e: Fraction(c) for e, c in d.items()})
            for d in invariant_basis_raw(spec, degree)]


def restrict_to_zero_sum(n: int, degree: int, polys) -> list[dict]:
    """Restrict raw polynomials on C^{2n} of degree at most `degree` to the
    eliminated coordinates: x_n = -(x_1 + ... + x_{n-1}), y_n likewise.

    The powers of the two linear forms are expanded once, as integer dicts;
    each input is split by its (x_n, y_n) exponents and multiplied out.
    """
    m = n - 1
    zero = (0,) * (2 * m)
    lin_x = {zero[:i] + (1,) + zero[i + 1:]: -1 for i in range(m)}
    lin_y = {zero[:m + i] + (1,) + zero[m + i + 1:]: -1 for i in range(m)}
    xpow, ypow = [{zero: 1}], [{zero: 1}]
    for _ in range(degree):
        xpow.append(_raw_mul(xpow[-1], lin_x))
        ypow.append(_raw_mul(ypow[-1], lin_y))
    out = []
    for poly in polys:
        by_last: dict[tuple[int, int], dict] = {}
        for e, c in poly.items():
            part = by_last.setdefault((e[m], e[n + m]), {})
            key = e[:m] + e[n:n + m]
            part[key] = part.get(key, 0) + c
        total: dict = {}
        for (a, b), part in by_last.items():
            for k, c in _raw_mul(_raw_mul(part, xpow[a]), ypow[b]).items():
                s = total.get(k, 0) + c
                if s:
                    total[k] = s
                else:
                    del total[k]
        out.append(total)
    return out


def _reflection_invariants(n: int, degree: int) -> tuple[dict, ...]:
    """Independent integer polynomials spanning the S_n-invariants of the
    eliminated ring in one degree.

    The candidates are the S_n-orbit sums of degree-d monomials on C^{2n},
    restricted to the zero-sum hyperplane pair.  They span: restriction of
    invariants is onto for a finite group in characteristic 0 (restrict the
    Reynolds average of any lift).  Exact incremental row reduction keeps
    the greedy independent subset, in candidate order (which does not depend
    on the pivot order of the reduction).
    """
    orbits = invariant_basis_raw(GroupSpec("symmetric-full", n), degree)
    echelon = SparseRationalEchelon()
    return tuple(total for total in restrict_to_zero_sum(n, degree, orbits)
                 if echelon.add({k: Fraction(v) for k, v in total.items()}))


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
