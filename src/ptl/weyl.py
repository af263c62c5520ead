"""Invariant orbit-sum bases of finite Weyl groups, and their class counts.

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

Class counts (`hh0_dimension`): dim HH_0 of the invariant Weyl algebra
equals the number of conjugacy classes acting without eigenvalue one (the
trace count of the quantization).  For B_n those classes are the
all-negative signed cycle types; for D_n, the all-negative types with evenly
many cycles, i.e. partitions of n with an even number of parts.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import itemgetter

from ptl.linalg import SparseRationalEchelon
from ptl.poisson import _raw_mul
from ptl.partitions import partition_count, even_part_count

FAMILIES = ("symmetric-full", "symmetric-reflection", "hyperoctahedral", "demihyperoctahedral")


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
    xs, ys = zip(*sorted(zip(expo[:m], expo[m:]), reverse=True))
    return xs + ys


@lru_cache(maxsize=None)
def _arrangements(m: int, blocks: tuple[int, ...]) -> tuple[itemgetter, ...]:
    """One getter per distinct arrangement of a representative whose pairs
    form runs of equal pairs of the given lengths: position k takes the next
    unused index of the run it is assigned, in x and in y alike."""
    labels = [run for run, size in enumerate(blocks) for _ in range(size)]
    starts = list(itertools.accumulate(blocks, initial=0))
    getters = []
    while True:
        nxt, src = list(starts), []
        for run in labels:
            src.append(nxt[run])
            nxt[run] += 1
        getters.append(itemgetter(*src, *(m + i for i in src)))
        # next distinct arrangement in lexicographic order (Narayana)
        i = len(labels) - 2
        while i >= 0 and labels[i] >= labels[i + 1]:
            i -= 1
        if i < 0:
            return tuple(getters)
        j = len(labels) - 1
        while labels[j] <= labels[i]:
            j -= 1
        labels[i], labels[j] = labels[j], labels[i]
        labels[i + 1:] = reversed(labels[i + 1:])


def _sn_orbit(expo: tuple, m: int) -> list[tuple]:
    """Distinct images of a monomial under simultaneous index permutations,
    sorted: the distinct arrangements of its multiset of (x, y) pairs."""
    rep = orbit_rep(expo, m)
    blocks = tuple(len(list(run)) for _, run in itertools.groupby(zip(rep[:m], rep[m:])))
    return sorted([get(rep) for get in _arrangements(m, blocks)])


def _pair_sequences(m: int, degree: int, bound: tuple[int, int],
                    parity: int | None = None):
    """Non-increasing sequences of m (a, b) pairs, each at most `bound`, with
    the a + b summing to `degree`: the S_m-orbits of degree-d monomials.
    With `parity` every a + b has that parity, which prunes while generating."""
    if parity is not None and (degree - m * parity) % 2:
        return
    if m == 1:
        yield from (((a, degree - a),) for a in range(min(degree, bound[0]), -1, -1)
                    if (a, degree - a) <= bound)
        return
    for a in range(min(degree, bound[0]), -1, -1):
        top = degree - a if a < bound[0] else min(degree - a, bound[1])
        step = -1
        if parity is not None:
            top -= (a + top - parity) % 2
            step = -2
        for b in range(top, -1, step):
            for rest in _pair_sequences(m - 1, degree - a - b, (a, b), parity):
                yield ((a, b),) + rest


def _sector_parities(family: str, sector: str | None) -> tuple:
    """Per-index degree parities of the orbits spanning a sector: the sign
    subgroup of B_n fixes the all-even monomials only; that of D_n (even
    sign changes) also the all-odd ones, "+" and "-" selecting one of them."""
    if family == "symmetric-full":
        return (None,)
    if family == "hyperoctahedral":
        return (0,) if sector != "-" else ()
    return {None: (0, 1), "+": (0,), "-": (1,)}[sector]


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
    for parity in _sector_parities(spec.family, sector):
        for seq in _pair_sequences(m, degree, (degree, degree), parity):
            xs, ys = zip(*seq)
            reps.append(xs + ys)
    reps.sort(reverse=True)
    return tuple(dict.fromkeys(_sn_orbit(expo, m), 1) for expo in reps)


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
