"""Invariant orbit-sum bases of finite Weyl groups.

Groups handled: the full hyperoctahedral group B_n = S_n x (Z/2)^n of signed
permutations, its index-two subgroup D_n (even number of sign flips), S_n
itself acting either monomially on Darboux coordinates of C^{2n}
(``symmetric-full``) or through the eliminated-coordinate realization of the
reflection representation (``symmetric-reflection``), and the last-point
stabilizer S_{n-1} inside the latter, which acts on the n-1 surviving
coordinate pairs as ``symmetric-full`` does.

An element acts by x_i -> sign_i * x_{perm(i)} and simultaneously on y; the
action is a ring homomorphism, preserves degree and x-degree, and commutes
with the Poisson bracket.  Bases are built per (degree, x-degree): for the
monomial families orbit sums, coefficient 1 per orbit member so the rank
engine sees small integers, whose representatives are enumerated directly
as multisets of per-index (x, y) exponent pairs, and which are expanded
only on request.  For the non-monomial reflection action the invariants
are S_n-orbit sums on C^{2n} restricted to the zero-sum hyperplane pair
h + h, again with integer coefficients, chosen mod p against their counted
dimension: V = h + 1 as S_n-modules, so C[V + V]^{S_n} = C[h + h]^{S_n}
(x) C[sum x, sum y], and the invariants of h + h in bidegree (p, q) number
D(p, q) = N(p, q) - N(p-1, q) - N(p, q-1) + N(p-1, q-1), N(p, q) counting
the S_n-orbits of bidegree-(p, q) monomials on C^{2n}.
"""

from __future__ import annotations

import itertools
import math
from collections import namedtuple
from functools import lru_cache
from operator import itemgetter

from ptl.linalg import IncrementalModEchelon, prime_stream
from ptl.poisson import _raw_mul

FAMILIES = ("symmetric-full", "symmetric-reflection", "hyperoctahedral", "demihyperoctahedral")


class GroupSpec(namedtuple("GroupSpec", "family n")):
    __slots__ = ()

    def __new__(cls, family: str, n: int):
        if family not in FAMILIES:
            raise ValueError(f"unknown family {family!r}")
        nmin = 2 if family == "symmetric-reflection" else 1
        if n < nmin:
            raise ValueError(f"{family} needs n >= {nmin}")
        return super().__new__(cls, family, n)

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


def _runs(rep: tuple, m: int) -> tuple[int, ...]:
    """Lengths of the runs of equal (x, y) pairs of a representative."""
    return tuple(len(list(run)) for _, run in itertools.groupby(zip(rep[:m], rep[m:])))


def _sn_orbit(expo: tuple, m: int) -> list[tuple]:
    """Distinct images of a monomial under simultaneous index permutations,
    sorted: the distinct arrangements of its multiset of (x, y) pairs."""
    rep = orbit_rep(expo, m)
    return sorted([get(rep) for get in _arrangements(m, _runs(rep, m))])


@lru_cache(maxsize=None)
def orbit_sum(rep: tuple, m: int) -> dict:
    """The orbit sum of a representative, expanded once: shared, read-only."""
    return dict.fromkeys(_sn_orbit(rep, m), 1)


def orbit_size(rep: tuple, m: int) -> int:
    """Terms of the orbit sum of a representative: m! / prod(run length!)."""
    return math.factorial(m) // math.prod(map(math.factorial, _runs(rep, m)))


def _pair_sequences(m: int, xdeg: int, ydeg: int, bound: tuple[int, int],
                    parity: int | None = None):
    """Non-increasing sequences of m (a, b) pairs, each at most `bound`, the
    a summing to xdeg and the b to ydeg: the S_m-orbits of the monomials of
    bidegree (xdeg, ydeg).  The first a is the largest, so at least xdeg / m.
    With `parity` every a + b has that parity, which prunes while generating."""
    if parity is not None and (xdeg + ydeg - m * parity) % 2:
        return
    if m == 1:
        if (xdeg, ydeg) <= bound:
            yield ((xdeg, ydeg),)
        return
    for a in range(min(xdeg, bound[0]), -(-xdeg // m) - 1, -1):
        top = ydeg if a < bound[0] else min(ydeg, bound[1])
        step = -1
        if parity is not None:
            top -= (a + top - parity) % 2
            step = -2
        for b in range(top, -1, step):
            for rest in _pair_sequences(m - 1, xdeg - a, ydeg - b, (a, b), parity):
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
def orbit_reps(spec: GroupSpec, degree: int, xdeg: int,
               sector: str | None = None) -> tuple[tuple, ...]:
    """Representatives (per-index pairs sorted descending: the max() of each
    orbit sum) of the orbit sums spanning a monomial family's invariants in
    bidegree (xdeg, degree - xdeg), descending, with no orbit expanded.
    `sector` restricts demihyperoctahedral bases to the all-even ("+") or
    all-odd ("-") eigenspace of the sign character.  Cached, read-only."""
    if not 0 <= xdeg <= degree:
        return ()
    ydeg = degree - xdeg
    reps = []
    for parity in _sector_parities(spec.family, sector):
        for seq in _pair_sequences(spec.pairs, xdeg, ydeg, (xdeg, ydeg), parity):
            xs, ys = zip(*seq)
            reps.append(xs + ys)
    return tuple(sorted(reps, reverse=True))


@lru_cache(maxsize=None)
def _linear_powers(n: int, degree: int) -> tuple[list[dict], list[dict]]:
    """The powers 0..degree of -(x_1 + ... + x_{n-1}) and of -(y_1 + ... +
    y_{n-1}), as integer dicts over the eliminated coordinates: cached,
    read-only."""
    m = n - 1
    zero = (0,) * (2 * m)
    lin_x = {zero[:i] + (1,) + zero[i + 1:]: -1 for i in range(m)}
    lin_y = {zero[:m + i] + (1,) + zero[m + i + 1:]: -1 for i in range(m)}
    xpow, ypow = [{zero: 1}], [{zero: 1}]
    for _ in range(degree):
        xpow.append(_raw_mul(xpow[-1], lin_x))
        ypow.append(_raw_mul(ypow[-1], lin_y))
    return xpow, ypow


def restrict_to_zero_sum(n: int, degree: int, polys):
    """Restrict raw polynomials on C^{2n} of degree at most `degree` to the
    eliminated coordinates: x_n = -(x_1 + ... + x_{n-1}), y_n likewise.

    A generator: each input is split by its (x_n, y_n) exponents and
    multiplied out, by the `_linear_powers`, when it is reached.
    """
    m, (xpow, ypow) = n - 1, _linear_powers(n, degree)
    for poly in polys:
        by_last: dict[tuple[int, int], dict] = {}
        for e, c in poly.items():
            part = by_last.setdefault((e[m], e[n + m]), {})
            key = e[:m] + e[n:n + m]
            part[key] = part.get(key, 0) + c
        total: dict = {}
        for (a, b), part in by_last.items():
            for k, c in _raw_mul(_raw_mul(part, xpow[a]), ypow[b]).items():
                total[k] = total.get(k, 0) + c
        yield {k: c for k, c in total.items() if c}


def reflection_dimension(n: int, xdeg: int, ydeg: int) -> int:
    """D(xdeg, ydeg), the dimension of the S_n-invariants of the eliminated
    ring in that bidegree, counted without a basis (module docstring)."""
    full = GroupSpec("symmetric-full", n)
    return sum(sign * len(orbit_reps(full, p + q, p)) for p, q, sign in (
        (xdeg, ydeg, 1), (xdeg - 1, ydeg, -1), (xdeg, ydeg - 1, -1), (xdeg - 1, ydeg - 1, 1)))


# The reflection selection's primes: one fixed stream, whatever --prime is.
_selection_primes = prime_stream


@lru_cache(maxsize=None)
def invariant_basis_raw(spec: GroupSpec, degree: int, xdeg: int) -> tuple[dict, ...]:
    """Basis of the invariants in bidegree (xdeg, degree - xdeg) as raw
    {exponent: int} dicts, cached (shared, read-only): the orbit sums of
    `orbit_reps`, and for symmetric-reflection a greedy selection mod p of
    the restricted S_n-orbit sums, which span (restrict the Reynolds average
    of any lift), each restricted when it is reached.  The selection stops
    at `reflection_dimension` elements, independent mod p, hence over Q: a
    basis.  Should the candidates run out first, it starts over at the next
    prime of `_selection_primes`."""
    if spec.family != "symmetric-reflection":
        return tuple(orbit_sum(rep, spec.pairs) for rep in orbit_reps(spec, degree, xdeg))
    n, ydeg = spec.n, degree - xdeg
    if not (want := reflection_dimension(n, xdeg, ydeg)):
        return ()
    m, reps = n - 1, orbit_reps(GroupSpec("symmetric-full", n), degree, xdeg)
    length = math.comb(xdeg + m - 1, xdeg) * math.comb(ydeg + m - 1, ydeg)
    for prime in _selection_primes():
        ech, chosen = IncrementalModEchelon(length, prime), []
        for total in restrict_to_zero_sum(n, degree, (orbit_sum(rep, n) for rep in reps)):
            if ech.add(total):
                chosen.append(total)
                if len(chosen) == want:
                    return tuple(chosen)
    raise AssertionError("prime stream ran out before the reflection selection")

