"""Constraint solver for the type-D trace spaces on C[s1, s2, ...].

The coordinate s_i (degree i, dual weight 4*(1-i)) reads off the x^(2(i-1))
coefficient of an even formal series.  For each k >= 1 the vector field

    xi_k = V( d/dx ( x^(2k-1) * Q( (1/s_{2k}) * sum_{i >= 2k+1} s_i x^(2(i-2k)) ) ) ),
    V( sum f_i x^(2i) ) = sum f_i d/ds_{i+1},

with Q the Taylor series of sqrt(1+z), has partial-derivative coefficients
that are Laurent polynomials in the s-variables localized at s_{2k}; the
coefficient of d/ds_k is exactly 2k-1.  A degree-n polynomial F belongs to
the trace space iff xi_k(F) vanishes after setting s_1 = ... = s_{2k-1} = 0
on the locus s_{2k} != 0, for every k (k ranges over 1..n: higher k only
involves d/ds_j with j > n, which kills degree-n polynomials).

Since Q is applied to a ratio with zero constant term, every coefficient is
an honest rational Laurent expression; no symbolic radicals appear here.

The constraints preserve the bigrading, so the kernel is computed one
(degree, dual weight) component at a time: modular elimination gives the
candidate dimension and is then certified exactly, either by the known
solution families (multiples of s1^2 and the s2^k s_{k+1} g corrections)
when they already span, or by `linalg.certified_nullspace`, which lifts
the modular nullspace over a stream of word-sized primes and checks every
reconstructed vector against every constraint row (scaled to integers).
Each reported basis is annihilated by every assembled constraint, with
exact arithmetic, before it leaves this module.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType

from ptl.context import svar_context
from ptl.linalg import (
    DEFAULT_PRIME,
    IncrementalModEchelon,
    SparseRationalEchelon,
    certified_nullspace,
    integer_vector,
)
from ptl.partitions import partitions
from ptl.poly import SparsePolynomial
from ptl.series import binom_half
from ptl.tables import GradedDimensionTable

Mono = tuple  # sparse monomial: ((s-index, exponent), ...) sorted by index


def _mono_mul(m1: Mono, m2: Mono) -> Mono:
    if not m1:
        return m2
    if not m2:
        return m1
    acc = dict(m1)
    for i, e in m2:
        s = acc.get(i, 0) + e
        if s:
            acc[i] = s
        else:
            del acc[i]
    return tuple(sorted(acc.items()))


@lru_cache(maxsize=None)
def _xi_slices(k: int, nmax: int) -> tuple:
    """Laurent coefficients of xi_k: slice t holds the d/ds_{k+t} coefficient
    divided by (2(k+t)-1), as {sparse monomial: Fraction}.

    Slice t collects binom(1/2, m) * s_{2k}^{-m} * [X^t] P^m over m <= t,
    where P = sum_{u >= 1} s_{2k+u} X^u.  Treat the returned dicts as
    immutable (they are cached).
    """
    tmax = nmax - k
    acc: list[dict] = [dict() for _ in range(tmax + 1)]
    acc[0][()] = Fraction(1)
    if tmax == 0:
        return tuple(acc)
    # M1[t] = s_{2k+t} / s_{2k}
    m1 = {t: tuple(sorted(((2 * k, -1), (2 * k + t, 1)))) for t in range(1, tmax + 1)}
    power: list[dict] = [dict() for _ in range(tmax + 1)]
    for t, mono in m1.items():
        power[t] = {mono: Fraction(1)}
    m = 1
    while m <= tmax:
        coeff = binom_half(m)
        for t in range(m, tmax + 1):
            for mono, c in power[t].items():
                acc[t][mono] = acc[t].get(mono, Fraction(0)) + coeff * c
        m += 1
        if m > tmax:
            break
        nxt: list[dict] = [dict() for _ in range(tmax + 1)]
        for t in range(m - 1, tmax):
            for mono, c in power[t].items():
                for u in range(1, tmax - t + 1):
                    key = _mono_mul(mono, m1[u])
                    d = nxt[t + u]
                    d[key] = d.get(key, Fraction(0)) + c
        power = nxt
    return tuple(acc)


@dataclass(frozen=True)
class XiField:
    """xi_k with coefficients materialized for k <= j <= nmax."""

    k: int
    nmax: int
    coefficients: dict  # j -> SparsePolynomial (context localized at s_{2k})

    def coefficient(self, j: int) -> SparsePolynomial:
        return self.coefficients[j]


def xi_field(k: int, nmax: int) -> XiField:
    """Materialize xi_k's d/ds_j coefficients for j = k..nmax."""
    if not (1 <= k <= nmax):
        raise ValueError("need 1 <= k <= nmax")
    ctx = svar_context(nmax + k, localized_at=2 * k)
    slices = _xi_slices(k, nmax)
    coeffs = {}
    for j in range(k, nmax + 1):
        terms = {}
        for mono, c in slices[j - k].items():
            expo = [0] * ctx.arity
            for idx, e in mono:
                expo[idx - 1] = e
            terms[tuple(expo)] = c * (2 * j - 1)
        coeffs[j] = SparsePolynomial(ctx, terms)
    return XiField(k, nmax, coeffs)


# -- constraint assembly ------------------------------------------------------

def _partition_to_expo(lam: tuple, N: int) -> tuple:
    expo = [0] * N
    for part in lam:
        expo[part - 1] += 1
    return tuple(expo)


def _column_rows_for_k(k: int, n: int, e: tuple, N: int):
    """Yield (row label monomial, Fraction value) for xi_k applied to the
    column monomial e, after the substitution s_1 = ... = s_{2k-1} = 0.

    The label keeps s_{2k}'s (possibly negative) exponent; clearing the
    denominator uniformly across a component relabels rows bijectively, so
    the raw Laurent label is used directly.
    """
    slices = _xi_slices(k, max(n, k))
    low = e[:2 * k - 1]
    nz = [i for i, v in enumerate(low) if v]
    if len(nz) > 1:
        return
    if len(nz) == 1:
        j0 = nz[0] + 1
        if j0 < k or e[j0 - 1] != 1:
            return
        js = [j0]
    else:
        js = [j + 1 for j in range(2 * k - 1, min(len(e), n)) if e[j]]
        # d/ds_j for k <= j < 2k hits zero exponents here; j > n never occurs
    for j in js:
        if j - k >= len(slices) or j < k:
            continue
        factor = e[j - 1]
        base = list(e)
        base[j - 1] -= 1
        for mono, c in slices[j - k].items():
            label = list(base)
            for idx, ex in mono:
                label[idx - 1] += ex
            yield tuple(label), factor * c * (2 * j - 1)


@dataclass
class ConstraintSystem:
    """Assembled bigraded component: rows over the component's monomial basis."""

    n: int
    weight: int
    columns: list[tuple]             # dense exponent tuples, graded-lex descending
    rows: list[dict]                 # sparse {column index: Fraction}
    labels: list[tuple]              # (k, ambient Laurent monomial) per row


@lru_cache(maxsize=None)
def _components(n: int) -> MappingProxyType:
    """Component monomials keyed by dual weight w = 4*(parts - n), read-only
    because the result is cached."""
    N = 2 * n
    comps: dict[int, list[tuple]] = {}
    for lam in partitions(n):
        w = 4 * (len(lam) - n)
        comps.setdefault(w, []).append(_partition_to_expo(lam, N))
    return MappingProxyType({w: tuple(sorted(cols, reverse=True))
                             for w, cols in sorted(comps.items())})


def component_system(n: int, weight: int, k_max: int | None = None) -> ConstraintSystem:
    columns = list(_components(n).get(weight, ()))
    N = 2 * n
    k_top = k_max if k_max is not None else n
    row_index: dict = {}
    rows: list[dict] = []
    labels: list[tuple] = []
    for k in range(1, k_top + 1):
        for ci, e in enumerate(columns):
            for label, val in _column_rows_for_k(k, n, e, N):
                key = (k, label)
                ri = row_index.get(key)
                if ri is None:
                    ri = len(rows)
                    row_index[key] = ri
                    rows.append({})
                    labels.append(key)
                row = rows[ri]
                s = row.get(ci, Fraction(0)) + val
                if s:
                    row[ci] = s
                else:
                    row.pop(ci, None)
    rows_out, labels_out = [], []
    for row, label in zip(rows, labels):
        if row:
            rows_out.append(row)
            labels_out.append(label)
    return ConstraintSystem(n, weight, columns, rows_out, labels_out)


def _verify_in_kernel(system: ConstraintSystem, vec: dict) -> bool:
    """Exact check that every constraint row annihilates the vector."""
    support = set(vec)
    for row in system.rows:
        if support.isdisjoint(row):
            continue
        total = Fraction(0)
        for c, coeff in row.items():
            v = vec.get(c)
            if v:
                total += coeff * v
        if total:
            return False
    return True


# -- known solution families ---------------------------------------------------

def family_generators(n: int) -> list[SparsePolynomial]:
    """The two explicit solution families in degree n.

    (i) s1^2 * m for every degree-(n-2) monomial m; (ii) for k >= 1 and every
    monomial g in s_2..s_{k+1} with deg(s_2^k s_{k+1} g) = n, the element
    s_2^k s_{k+1} g - s_1 * xi_1(s_2^k s_{k+1} g), which the restriction on g
    makes a polynomial rather than a Laurent polynomial.
    """
    if n < 2:
        raise ValueError("families start at n = 2")
    ctx = svar_context(n)
    out = []
    for lam in partitions(n - 2):
        expo = list(_partition_to_expo(lam, n))
        expo[0] += 2
        out.append(SparsePolynomial.monomial(ctx, tuple(expo)))
    for k in itertools.count(1):
        base_deg = 3 * k + 1
        if base_deg > n:
            break
        for g in _monomials_in_range(n - base_deg, 2, k + 1):
            h = dict(g)
            h[2] = h.get(2, 0) + k
            h[k + 1] = h.get(k + 1, 0) + 1
            out.append(_family_two_element(n, h, ctx))
    return out


def _monomials_in_range(total: int, lo: int, hi: int):
    """Monomials in s_lo..s_hi of degree `total`, as {index: exponent}."""
    if total == 0:
        yield {}
        return
    if total < 0 or lo > hi:
        return
    for lam in partitions(total):
        if all(lo <= part <= hi for part in lam):
            mono: dict = {}
            for part in lam:
                mono[part] = mono.get(part, 0) + 1
            yield mono


def _family_two_element(n: int, h: dict, ctx) -> SparsePolynomial:
    """s_2^k s_{k+1} g  -  s_1 * xi_1(same), assembled exactly."""
    N = n
    slices = _xi_slices(1, n)
    terms: dict = {}
    base = [0] * N
    for idx, e in h.items():
        base[idx - 1] = e
    terms[tuple(base)] = Fraction(1)
    for j, e in list(h.items()):
        if j - 1 >= len(slices):
            continue
        factor = e
        dbase = list(base)
        dbase[j - 1] -= 1
        dbase[0] += 1  # the s_1 prefactor
        for mono, c in slices[j - 1].items():
            expo = list(dbase)
            ok = True
            for idx, ex in mono:
                if idx - 1 >= N:
                    ok = False
                    break
                expo[idx - 1] += ex
            if not ok:
                continue
            key = tuple(expo)
            val = terms.get(key, Fraction(0)) - factor * c * (2 * j - 1)
            if val:
                terms[key] = val
            else:
                terms.pop(key, None)
    for expo in terms:
        if any(x < 0 for x in expo):
            raise AssertionError("family element failed to clear its denominator")
    return SparsePolynomial(ctx, terms)


def family_span_dims(n: int, *, by_weight: bool = True) -> GradedDimensionTable:
    """Exact dimensions of span(family_generators(n)) per dual weight."""
    ctx = svar_context(n)
    buckets: dict[int, SparseRationalEchelon] = {}
    for f in family_generators(n):
        w = ctx.weight_of(next(iter(f.terms)))
        ech = buckets.setdefault(w, SparseRationalEchelon())
        ech.add(dict(f.terms))
    entries = {w: e.rank for w, e in buckets.items() if e.rank}
    return GradedDimensionTable(entries, {"family": "D", "n": n,
                                          "grading": "dual-weight", "kind": "family-span"})


# -- kernel computation ---------------------------------------------------------

@dataclass
class SolutionBasis:
    n: int
    weight: int | None
    vectors: list[SparsePolynomial]
    weight_dims: GradedDimensionTable   # keyed by dual weight (nonpositive)
    display: GradedDimensionTable       # keyed by display exponent -w/4


class KernelCertificationError(RuntimeError):
    pass


def _component_kernel(system: ConstraintSystem, families: list[dict],
                      prime: int) -> list[dict]:
    """Certified exact kernel basis of one component, as column-coefficient dicts."""
    ncols = len(system.columns)
    if ncols == 0:
        return []
    rows = [integer_vector(row) for row in system.rows]
    ech = IncrementalModEchelon(ncols, prime)
    for row in rows:
        ech.add(row)
    d = ncols - ech.rank
    if d == 0:
        return []
    # candidate vectors from the known families, verified exactly
    fam_ech = SparseRationalEchelon()
    fam_basis: list[dict] = []
    for vec in families:
        if not _verify_in_kernel(system, vec):
            raise AssertionError("family vector escaped the kernel")
        if fam_ech.add(dict(vec)):
            fam_basis.append(vec)
    if len(fam_basis) == d:
        return fam_basis
    if len(fam_basis) > d:
        raise KernelCertificationError("family span exceeds the modular bound")
    # exceptional component: the families fall short of the modular bound
    return certified_nullspace(ech, rows)


def kernel_basis(n: int, weight: int | None = None, *,
                 prime: int = DEFAULT_PRIME, k_max: int | None = None) -> SolutionBasis:
    """Exact kernel of the restricted xi_k constraints on degree-n polynomials.

    Returns a basis per bigraded component (all dual weights, or just the
    requested one) together with the dimension tables.  n = 1 yields the
    zero space.
    """
    if n < 1:
        raise ValueError("n >= 1 required")
    ctx = svar_context(n)
    comps = _components(n)
    fams: dict[int, list[dict]] = {}
    if n >= 2:
        col_index: dict[int, dict] = {
            w: {e: i for i, e in enumerate(cols)} for w, cols in comps.items()}
        for f in family_generators(n):
            expo = next(iter(f.terms))
            w = ctx.weight_of(expo)
            idx = col_index[w]
            vec = {idx[e + (0,) * n]: c for e, c in f.terms.items()}
            fams.setdefault(w, []).append(vec)
    weight_entries: dict[int, int] = {}
    vectors: list[SparsePolynomial] = []
    for w, cols in comps.items():
        if weight is not None and w != weight:
            continue
        system = component_system(n, w, k_max)
        basis = _component_kernel(system, fams.get(w, []), prime)
        if basis:
            weight_entries[w] = len(basis)
            for vec in basis:
                terms = {cols[c][:n]: coeff for c, coeff in vec.items()}
                vectors.append(SparsePolynomial(ctx, terms))
    meta = {"family": "D", "n": n, "grading": "dual-weight"}
    weight_dims = GradedDimensionTable(weight_entries, meta)
    return SolutionBasis(n, weight, vectors, weight_dims, display_table(weight_dims))


def display_table(weight_dims: GradedDimensionTable) -> GradedDimensionTable:
    """Re-key a dual-weight table by the display exponent -w/4."""
    return weight_dims.reindexed(lambda w: -w // 4, grading="display-exponent")


def constraint_residual(F: SparsePolynomial, k: int, n: int) -> dict:
    """xi_k(F) after the substitution s_1 = ... = s_{2k-1} = 0, as a raw
    {Laurent monomial: Fraction} dict over 2n dense positions."""
    N = max(F.context.arity, 2 * n, 2 * k)
    out: dict = {}
    for expo, c in F.terms.items():
        e = tuple(expo) + (0,) * (N - len(expo))
        for label, val in _column_rows_for_k(k, n, e, N):
            s = out.get(label, Fraction(0)) + c * val
            if s:
                out[label] = s
            else:
                del out[label]
    return out


def is_kernel_member(F: SparsePolynomial, n: int, k_max: int | None = None) -> bool:
    """Exact membership test: every restricted xi_k annihilates F."""
    if not F.terms:
        return True
    for k in range(1, (k_max if k_max is not None else n) + 1):
        if constraint_residual(F, k, n):
            return False
    return True


def xi_pointwise_check(F: SparsePolynomial, k: int, point: dict) -> dict[int, Fraction]:
    """Evaluate each d/ds_j component of xi_k(F) at a stratum point.

    The point must satisfy s_1 = ... = s_{2k-1} = 0 and s_{2k} != 0;
    unspecified coordinates default to 0.  The value of xi_k(F) at the
    point is the sum of the returned components; the constraint holds
    there iff that sum vanishes (individual components may cancel).
    """
    if not F.is_homogeneous():
        raise ValueError("F must be degree-homogeneous")
    values: dict[int, Fraction] = {}
    for name, v in point.items():
        if not name.startswith("s"):
            raise ValueError(f"not an s-variable: {name}")
        values[int(name[1:])] = Fraction(v)
    for i in range(1, 2 * k):
        if values.get(i, Fraction(0)) != 0:
            raise ValueError(f"point off the stratum: s{i} != 0")
        values[i] = Fraction(0)
    if values.get(2 * k, Fraction(0)) == 0:
        raise ValueError(f"point off the stratum: s{2*k} must be nonzero")
    nmax = max((max((i + 1 for i, e in enumerate(expo) if e), default=1)
                for expo in F.terms), default=1)
    nmax = max(nmax, k)
    slices = _xi_slices(k, nmax)
    out: dict[int, Fraction] = {}
    for j in range(k, nmax + 1):
        dF = F.derivative(f"s{j}") if j <= F.context.arity else None
        if dF is None or not dF.terms:
            out[j] = Fraction(0)
            continue
        dval = Fraction(0)
        for expo, c in dF.terms.items():
            term = c
            for i, e in enumerate(expo):
                if e:
                    term *= values.get(i + 1, Fraction(0)) ** e
            dval += term
        cval = Fraction(0)
        for mono, c in slices[j - k].items():
            term = c * (2 * j - 1)
            for idx, e in mono:
                term *= values.get(idx, Fraction(0)) ** e
            cval += term
        out[j] = cval * dval
    return out
