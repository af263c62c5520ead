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
In closed form, the d/ds_{k+t} coefficient is 2(k+t)-1 times a sum over
the partitions of t that depends on k only through the index shift 2k
(`_xi_slice`), and 4^t times it has integer coefficients, so every
constraint row is assembled in integers, one xi_k at a time (`_xi_blocks`).

The constraints preserve the bigrading, so the kernel is computed one
(degree, dual weight) component at a time by one certificate
(`_component_kernel`), which builds no more rows once their mod-p rank is
full: the kernel is then zero.  Otherwise d = ncols - rank_p bounds the
dimension; candidate vectors that every integer constraint row
annihilates exactly and that are independent mod p are the
basis when there are d of them, and otherwise `linalg.certified_nullspace`
lifts the modular nullspace over a stream of word-sized primes and checks
every reconstructed vector against every row.  The candidates are the
known solution families (multiples of s1^2 and the s2^k s_{k+1} g
corrections) when solving, and a cached record's vectors when
re-verifying it (`recertifies`).  Vectors are exact column-coefficient
dicts over a component's columns; `SolutionBasis.vectors` alone turns
them into polynomials.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType

from ptl.context import svar_context
from ptl.linalg import (
    DEFAULT_PRIME,
    IncrementalModEchelon,
    SparseRationalEchelon,
    annihilated,
    certified_nullspace,
    integer_vector,
)
from ptl.partitions import partitions
from ptl.poly import SparsePolynomial
from ptl.tables import GradedDimensionTable

@lru_cache(maxsize=None)
def _xi_terms(t: int) -> tuple:
    """One term per partition lambda of t: (4^t * C(1/2, l) * l! / prod m_u!,
    l, ((u, m_u), ...)), with l the number of parts and m_u the multiplicity
    of part u, parts ascending.  The coefficient is an int: C(1/2, l) =
    (-1)^(l+1) * 2 * Catalan(l-1) / 4^l for l >= 1, and l <= t."""
    out = []
    for lam in partitions(t):
        ell, mult = len(lam), Counter(lam)
        coeff = math.factorial(ell)
        for m in mult.values():
            coeff //= math.factorial(m)
        if ell:
            catalan = math.comb(2 * ell - 2, ell - 1) // ell
            coeff *= (-1) ** (ell + 1) * 2 * catalan * 4 ** (t - ell)
        out.append((coeff, ell, tuple(sorted(mult.items()))))
    return tuple(out)


@lru_cache(maxsize=None)
def _xi_slice(k: int, t: int) -> dict:
    """Slice t of xi_k times 4^t: its d/ds_{k+t} coefficient divided by
    2(k+t)-1 and multiplied by 4^t, as {((s-index, exponent), ...) sorted by
    index: int}.

    That is 4^t [X^t] Q(P / s_{2k}) with P = sum_{u >= 1} s_{2k+u} X^u, which
    the multinomial expansion of each P^l turns into a sum over the
    partitions lambda of t (`_xi_terms`) of
    C(1/2, l) * (l! / prod m_u!) * s_{2k}^(-l) * prod_i s_{2k+lambda_i}.
    Treat the returned dict as immutable (it is cached).
    """
    return {(((2 * k, -ell),) + tuple((2 * k + u, m) for u, m in parts) if ell else ()): c
            for c, ell, parts in _xi_terms(t)}


# -- constraint assembly ------------------------------------------------------

def _partition_to_expo(lam: tuple, N: int) -> tuple:
    expo = [0] * N
    for part in lam:
        expo[part - 1] += 1
    return tuple(expo)


def _column_rows_for_k(k: int, n: int, e: tuple, support: list):
    """Yield (row label monomial, int value) for 4^(n-k) * xi_k applied to the
    column monomial e, after the substitution s_1 = ... = s_{2k-1} = 0;
    `support` lists the s-indices where e is nonzero, ascending.

    Slice t = j - k of xi_k enters through d/ds_j; `_xi_slice` scales it by
    4^t, so a further 4^(n-j) puts every slice of xi_k on the one scale
    4^(n-k) (j <= n).  The label keeps s_{2k}'s (possibly negative)
    exponent; clearing the denominator uniformly across a component
    relabels rows bijectively, so the raw Laurent label is used directly.
    """
    low = [j for j in support if j < 2 * k]
    if len(low) > 1:
        return
    if low:
        js = low if k <= low[0] <= n and e[low[0] - 1] == 1 else ()
    else:
        js = [j for j in support if j <= n]
        # d/ds_j for k <= j < 2k hits zero exponents here; j > n never occurs
    for j in js:
        scale = e[j - 1] * (2 * j - 1) << 2 * (n - j)
        base = list(e)
        base[j - 1] -= 1
        for mono, c in _xi_slice(k, j - k).items():
            label = base.copy()
            for idx, ex in mono:
                label[idx - 1] += ex
            yield tuple(label), scale * c


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


def _xi_blocks(n: int, weight: int, ks):
    """Yield, for each k of `ks`, the rows of xi_k on one component and their
    labels (k, ambient Laurent monomial), in generation order.

    The rows are built at the scale 4^(n-k) (`_column_rows_for_k`), where
    every closed-form coefficient is an int, and each row is then divided by
    its power-of-two content, but by no more than that scale: so each row is
    exactly `linalg.integer_vector` of the rational row, whose denominators
    are powers of two.
    """
    columns = _components(n).get(weight, ())
    supports = [[i + 1 for i, x in enumerate(e) if x] for e in columns]
    # xi_k has no row on a column with two s-indices below 2k, or one below k
    reach = [s[1] // 2 if len(s) > 1 else s[0] for s in supports]
    for k in ks:
        row_index: dict = {}
        rows: list[dict] = []
        for ci, e in enumerate(columns):
            if k > reach[ci]:
                continue
            for label, val in _column_rows_for_k(k, n, e, supports[ci]):
                ri = row_index.get(label)
                if ri is None:
                    ri = row_index[label] = len(rows)
                    rows.append({})
                row = rows[ri]
                row[ci] = row.get(ci, 0) + val
        rows_out, labels_out = [], []
        for row, label in zip(rows, row_index):
            row = {c: x for c, x in row.items() if x}
            if row:
                g = math.gcd(*row.values())
                shift = min((g & -g).bit_length() - 1, 2 * (n - k))
                rows_out.append({c: x >> shift for c, x in row.items()})
                labels_out.append((k, label))
        yield rows_out, labels_out


# -- known solution families ---------------------------------------------------

def family_generators(n: int) -> list[SparsePolynomial]:
    """The two explicit solution families in degree n.

    (i) s1^2 * m for every degree-(n-2) monomial m; (ii) for k >= 1 and every
    monomial g in s_2..s_{k+1} with deg(s_2^k s_{k+1} g) = n, the element
    s_2^k s_{k+1} g - s_1 * xi_1(s_2^k s_{k+1} g), which the restriction on g
    makes a polynomial rather than a Laurent polynomial.
    """
    ctx = svar_context(n)
    return [SparsePolynomial(ctx, terms) for terms in _family_terms(n)]


def _family_terms(n: int) -> list[dict]:
    """`family_generators(n)` as {exponent tuple over s1..sn: Fraction} dicts."""
    if n < 2:
        raise ValueError("families start at n = 2")
    out = []
    for lam in partitions(n - 2):
        expo = list(_partition_to_expo(lam, n))
        expo[0] += 2
        out.append({tuple(expo): Fraction(1)})
    for k in itertools.count(1):
        base_deg = 3 * k + 1
        if base_deg > n:
            break
        for g in _monomials_in_range(n - base_deg, 2, k + 1):
            h = dict(g)
            h[2] = h.get(2, 0) + k
            h[k + 1] = h.get(k + 1, 0) + 1
            out.append(_family_two_element(n, h))
    return out


def _monomials_in_range(total: int, lo: int, hi: int) -> list[Counter]:
    """Monomials in s_lo..s_hi of degree `total`, as {index: exponent}."""
    return [Counter(lam) for lam in partitions(total, hi) if all(part >= lo for part in lam)]


def _family_two_element(n: int, h: dict) -> dict:
    """s_2^k s_{k+1} g  -  s_1 * xi_1(same), assembled exactly as terms
    (xi_1 involves no substitution, as h has no s_1)."""
    e = tuple(h.get(i + 1, 0) for i in range(2 * n))
    terms = {e[:n]: Fraction(1)}
    for label, val in _column_rows_for_k(1, n, e, sorted(h)):
        expo = (label[0] + 1,) + label[1:n]  # the s_1 prefactor
        terms[expo] = terms.get(expo, 0) - Fraction(val, 4 ** (n - 1))
    terms = {expo: c for expo, c in terms.items() if c}
    if any(x < 0 for expo in terms for x in expo):
        raise AssertionError("family element failed to clear its denominator")
    return terms


def family_span_dims(n: int) -> GradedDimensionTable:
    """Exact dimensions of span(family_generators(n)) per dual weight."""
    entries = {}
    for w, vecs in _family_columns(n).items():
        ech = SparseRationalEchelon()
        entries[w] = sum(ech.add(vec) for vec in vecs)
    return GradedDimensionTable(entries, {"family": "D", "n": n,
                                          "grading": "dual-weight", "kind": "family-span"})


# -- kernel computation ---------------------------------------------------------

@dataclass
class SolutionBasis:
    n: int
    weight: int | None
    columns: dict[int, list[dict]]      # dual weight -> basis over the component's columns
    weight_dims: GradedDimensionTable   # keyed by dual weight (nonpositive)
    display: GradedDimensionTable       # keyed by display exponent -w/4

    @property
    def vectors(self) -> list[SparsePolynomial]:
        """The basis as polynomials in s1..sn, component by component."""
        ctx, comps = svar_context(self.n), _components(self.n)
        return [SparsePolynomial(ctx, {comps[w][c][:self.n]: x for c, x in vec.items()})
                for w, vecs in self.columns.items() for vec in vecs]


class KernelCertificationError(RuntimeError):
    pass


def _component_kernel(n: int, weight: int, candidates: list[dict], prime: int,
                      k_max: int | None = None) -> list[dict]:
    """Certified exact kernel basis of one component, as column-coefficient dicts.

    The `_xi_blocks` of k = k_max (default n) down to 1 enter a sparse
    mod-p echelon as they are built, each in reverse generation order (a
    quarter of the fill-in of generation order at n = 33, w = -104).  Full
    mod-p rank certifies a zero kernel, and the blocks left are never built.

    Otherwise d = ncols - rank_p bounds the kernel's dimension from above.
    Every row must annihilate every candidate (the known families, or the
    vectors of a cached record) exactly, else AssertionError; the candidates
    independent mod p of those kept before them (hence independent over Q)
    are the basis when there are d of them.  Otherwise the basis is
    `certified_nullspace`'s, which depends only on the rows and the prime.
    """
    ncols = len(_components(n).get(weight, ()))
    ech = IncrementalModEchelon(ncols, prime)
    rows: list[dict] = []
    for block, _labels in _xi_blocks(n, weight, range(n if k_max is None else k_max, 0, -1)):
        block.reverse()
        for row in block:
            ech.add(row)
            if ech.rank == ncols:  # d = 0: the rows left cannot change it
                return []
        rows += block
    d = ncols - ech.rank  # 0 only for a weight with no columns
    images = [integer_vector(vec) for vec in candidates]
    if not all(annihilated(rows, images)):
        raise AssertionError("family vector escaped the kernel")
    spanned = IncrementalModEchelon(ncols, prime)
    kept = [vec for vec, image in zip(candidates, images) if spanned.add(image)]
    if len(kept) == d:
        return kept
    if len(kept) > d:
        raise KernelCertificationError("family span exceeds the modular bound")
    return certified_nullspace(ech, rows)


def _family_columns(n: int) -> dict[int, list[dict]]:
    """The family generators as column-coefficient dicts over the degree-n
    components, grouped by dual weight in generator order."""
    index = {e[:n]: (w, i) for w, cols in _components(n).items() for i, e in enumerate(cols)}
    out: dict[int, list[dict]] = {}
    for terms in _family_terms(n):
        w = index[next(iter(terms))][0]
        out.setdefault(w, []).append({index[e][1]: c for e, c in terms.items()})
    return out


def kernel_basis(n: int, weight: int | None = None, *,
                 prime: int = DEFAULT_PRIME, k_max: int | None = None) -> SolutionBasis:
    """Exact kernel of the restricted xi_k constraints on degree-n polynomials.

    Returns a basis per bigraded component (all dual weights, or just the
    requested one) together with the dimension tables.  n = 1 yields the
    zero space.
    """
    if n < 1:
        raise ValueError("n >= 1 required")
    fams = _family_columns(n) if n >= 2 else {}
    columns: dict[int, list[dict]] = {}
    for w in _components(n):
        if weight is not None and w != weight:
            continue
        basis = _component_kernel(n, w, fams.get(w, []), prime, k_max)
        if basis:
            columns[w] = basis
    meta = {"family": "D", "n": n, "grading": "dual-weight"}
    weight_dims = GradedDimensionTable({w: len(b) for w, b in columns.items()}, meta)
    return SolutionBasis(n, weight, columns, weight_dims, display_table(weight_dims))


def recertifies(n: int, weight: int | None, columns: dict[int, list[dict]],
                prime: int = DEFAULT_PRIME) -> bool:
    """Whether `columns` (dual weight -> exact column-coefficient dicts, as in
    `SolutionBasis.columns`) are, component by component, the basis that
    `_component_kernel` certifies with them as candidates: over every
    component of degree n, or over `weight`'s only.

    This is the certificate of `kernel_basis` re-run, not a count against
    the bound ncols - rank_p: at an unlucky prime that bound overstates the
    kernel, and `kernel_basis` returned `certified_nullspace`'s basis, which
    re-running reproduces.
    """
    comps = _components(n)
    weights = list(comps) if weight is None else [weight]
    if not columns.keys() <= set(weights):
        return False
    if any(not 0 <= c < len(comps.get(w, ())) for w, vecs in columns.items()
           for vec in vecs for c in vec):
        return False
    try:
        return all(_component_kernel(n, w, columns.get(w, []), prime)
                   == columns.get(w, []) for w in weights)
    except AssertionError:  # a vector outside the kernel
        return False


def display_table(weight_dims: GradedDimensionTable) -> GradedDimensionTable:
    """Re-key a dual-weight table by the display exponent -w/4."""
    return weight_dims.reindexed(lambda w: -w // 4, grading="display-exponent")


def constraint_residual(F: SparsePolynomial, k: int, n: int) -> dict:
    """xi_k(F) after the substitution s_1 = ... = s_{2k-1} = 0, as a raw
    {Laurent monomial: Fraction} dict over 2n dense positions."""
    N = max(F.context.arity, 2 * n, 2 * k)
    scale = 4 ** max(n - k, 0)
    out: dict = {}
    for expo, c in F.terms.items():
        e = tuple(expo) + (0,) * (N - len(expo))
        support = [i + 1 for i, x in enumerate(e) if x]
        for label, val in _column_rows_for_k(k, n, e, support):
            s = out.get(label, Fraction(0)) + c * Fraction(val, scale)
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
