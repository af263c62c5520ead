"""Exact sparse rank and nullspace machinery.

The solver and the engine rank their systems by Gaussian elimination over
a word-sized prime field.  Modular rank can only undercount (reduction mod p preserves
dependencies), so a modular result is always re-certified before any
dimension is reported:

* full modular rank certifies itself (independence mod p implies
  independence over Q);
* a modular rank deficit is certified by `certified_nullspace`: the mod-p
  nullspace is lifted by CRT over a stream of word-sized primes,
  rationally reconstructed, scaled to integers, and checked in exact
  integer arithmetic against every input vector.  The lift provably
  succeeds before its modulus passes twice the square of the input's
  Hadamard bound.

A certified kernel vector has one integer form throughout: the primitive
integer multiple, positive at f, of the nullspace vector that is 1 at its
own non-lead coordinate f and 0 at the other non-lead coordinates.
`certified_kernel` is the one entry point to this policy, for the solver,
the engine and the A_- check alike: it streams integer vectors into one
mod-p echelon, stops once their rank reaches the caller's bound, and
otherwise accepts the caller's candidate basis in that form or lifts one.

There is no rational elimination in the package: the reflection
invariant bases are selected mod p against their counted dimension
(`weyl.invariant_basis_raw`), and the tests hold `certified_nullspace`
to a rational-elimination nullspace of their own.

The incremental echelon below is pure Python and sparse: its rows are
dicts keyed by their leads and are not reduced against each other, an
incoming vector is eliminated lead by lead with its reduction mod p delayed,
and the mod-p nullspace is back-substituted in descending lead order.
"""

from __future__ import annotations

import math
from heapq import heapify, heappop, heappush

# Default prime: large enough for reliable rank filtering, small enough that
# residue products stay short Python ints.  All reported dimensions are
# certified over Q regardless.
DEFAULT_PRIME = 1048573

# Moduli of the mod-p echelon stay below 2^31, the range `prime_stream`
# draws from and well inside the one where `is_prime` is exact.
PRIME_LIMIT = 2 ** 31


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin with bases 2, 7 and 61 (exact below 2^32)."""
    if n >= 2 ** 32:
        raise ValueError("is_prime is exact only below 2^32")
    if n < 2:
        return False
    for a in (2, 7, 61):
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in (2, 7, 61):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class IncrementalModEchelon:
    """Streaming sparse echelon over F_p for vectors of a fixed length.

    Vectors arrive as {coordinate: int} dicts.  Each stored row is a dict
    keyed by its lead (its smallest coordinate) in `rows`; the lead's entry,
    1, is implicit, and the other entries are reduced mod p.  Rows are not
    reduced against each other: the set of leads is already fixed by the
    row space, and the nullspace back-substitutes in descending lead order.
    """

    def __init__(self, length: int, p: int = DEFAULT_PRIME):
        if not 2 <= p < PRIME_LIMIT:
            raise ValueError(f"modulus {p} is outside [2, 2^31)")
        self.length = length
        self.p = p
        self.rows: dict[int, dict[int, int]] = {}

    @property
    def rank(self) -> int:
        return len(self.rows)

    def add(self, vec: dict) -> bool:
        """Insert a vector; returns True when it increased the rank.

        The smallest coordinate left is eliminated until it is not a lead.
        Reduction mod p is delayed: entries accumulate as Python ints and
        only the coordinate being eliminated, and the row being stored,
        are reduced.
        """
        p, rows, vec = self.p, self.rows, dict(vec)
        heap = list(vec)
        heapify(heap)
        while heap:
            lead = heappop(heap)
            a = vec.pop(lead) % p
            if not a:
                continue
            row = rows.get(lead)
            if row is None:
                inv = pow(a, -1, p)
                rows[lead] = {c: x for c, v in vec.items() if (x := v * inv % p)}
                return True
            a = p - a
            for c, v in row.items():
                old = vec.get(c)
                if old is None:
                    vec[c] = a * v
                    heappush(heap, c)
                else:
                    vec[c] = old + a * v
        return False

    def nullspace_modp(self, free=None) -> dict[int, dict[int, int]]:
        """Basis of {x : v . x = 0 for every stored v} mod p, keyed by free
        (non-lead) coordinate f: x_f = 1, 0 at the other free coordinates.
        `free` restricts the basis to those free coordinates."""
        p, rows = self.p, self.rows
        if free is None:
            free = (f for f in range(self.length) if f not in rows)
        basis = {f: {f: 1} for f in sorted(free)}
        # x[lead]: the lead coordinate's entry in each basis vector
        x: dict[int, dict[int, int]] = {}
        for lead in sorted(rows, reverse=True):
            acc: dict[int, int] = {}
            for c, v in rows[lead].items():
                if c in x:
                    for f, y in x[c].items():
                        acc[f] = acc.get(f, 0) - v * y
                elif c in basis:
                    acc[c] = acc.get(c, 0) - v
            x[lead] = {f: r for f, s in acc.items() if (r := s % p)}
            for f, r in x[lead].items():
                basis[f][lead] = r
        return basis

    def shape(self) -> tuple:
        """Smaller is luckier: higher rank first, then lexicographically
        earlier leads (a prime can only lose rank or delay leads)."""
        return -self.rank, sorted(self.rows)


def rational_reconstruct(a: int, m: int) -> tuple[int, int] | None:
    """Wang's rational reconstruction of a mod m, as (numerator, positive
    denominator) in lowest terms; None if no small fraction."""
    a %= m
    bound = math.isqrt(m // 2)
    r0, r1 = m, a
    s0, s1 = 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        s0, s1 = s1, s0 - q * s1
    if s1 == 0 or abs(s1) > bound:
        return None
    num, den = r1, s1
    if den < 0:
        num, den = -num, -den
    if math.gcd(num, den) != 1:
        return None
    return num, den


def certified_nullspace(ech: IncrementalModEchelon, vectors: list[dict]) -> list[dict]:
    """Exact basis of {x : v . x = 0 for every v in vectors}.

    `ech` holds the integer dict `vectors` at its own prime.  Its nullspace
    vectors (x_f = 1 at their own non-lead coordinate f) are lifted by CRT
    over `prime_stream`; after each prime every pending vector is
    rationally reconstructed, scaled by the lcm of its denominators,
    checked in exact integer arithmetic against every input vector, and
    kept once it passes (later primes back-substitute only the pending
    free coordinates).  A stream prime
    of lower rank or later leads (`IncrementalModEchelon.shape`) is
    skipped; a luckier one restarts the lift from its own nullspace.

    Certificate: the length - rank_p returned vectors are independent by
    their shape, so rank_Q <= rank_p; and rank_Q >= rank_p for integer
    vectors.  So they are a basis of the rational nullspace, one vector per
    non-lead coordinate f with x_g = 0 at the other non-lead coordinates g:
    the primitive integer multiple of the one with x_f = 1 (the lcm of its
    denominators at f, as their reduced numerators are coprime to them).

    Termination: let H be the Hadamard bound of the input.  A prime gives
    a shape other than the rational one only if it divides one fixed
    nonzero maximal minor, so the product of the primes of a wrong shape
    is at most H, and once the modulus passes 2 H^2 the current shape is
    the rational one.  Every entry of the rational basis is then a ratio
    of minors of absolute value at most H, which Wang's reconstruction
    recovers at that modulus.  So a lift still pending past the bound, or
    when the prime stream runs out, is a bug: AssertionError.
    """
    bits = sum((sum(v * v for v in vec.values()).bit_length() + 1) // 2 for vec in vectors)
    primes = prime_stream(ech.p)
    shape, pending, modulus, found = ech.shape(), ech.nullspace_modp(), ech.p, {}
    while True:
        found.update(_verified(pending, modulus, vectors))
        pending = {f: res for f, res in pending.items() if f not in found}
        if not pending:
            return [found[f] for f in sorted(found)]
        if modulus.bit_length() > 2 * bits + 1:
            raise AssertionError("nullspace lift passed the Hadamard bound uncertified")
        nxt = _lucky_echelon(primes, ech.length, vectors, shape)
        if nxt is None:
            raise AssertionError("prime stream ran out before the nullspace lift")
        if nxt.shape() < shape:
            shape, pending, modulus, found = nxt.shape(), nxt.nullspace_modp(), nxt.p, {}
        else:
            pending = _crt(pending, modulus, nxt.nullspace_modp(pending), nxt.p)
            modulus *= nxt.p


def certified_kernel(vectors, length: int, bound: int, prime: int,
                     candidates=()) -> list[dict] | None:
    """Exact nullspace basis of the integer dict `vectors` (an iterable,
    drawn lazily into one echelon mod `prime`), or None, drawing no more,
    once their mod-p rank reaches `bound`, an upper bound on their rank
    over Q: rank_Q >= rank_p then certifies that rank is `bound`.

    Otherwise the basis is the `candidates` when they are in the module
    docstring's form on the echelon's non-lead coordinates f, in order
    (one per f, nonzero at f only among them and positive there, gcd 1),
    and every vector annihilates them exactly: they are then independent,
    as many as the bound length - rank_p on the nullspace's dimension, and
    so exactly `certified_nullspace`'s basis, which is returned otherwise.
    """
    ech = IncrementalModEchelon(length, prime)
    stored: list[dict] = []
    for vec in vectors:
        stored.append(vec)
        ech.add(vec)
        if ech.rank == bound:
            return None
    non_leads = [f for f in range(length) if f not in ech.rows]
    if (len(candidates) == len(non_leads)
            and all([g for g in non_leads if vec.get(g)] == [f] and vec[f] > 0
                    and math.gcd(*vec.values()) == 1
                    for f, vec in zip(non_leads, candidates))
            and all(annihilated(stored, candidates))):
        return list(candidates)
    return certified_nullspace(ech, stored)


def prime_stream(skip: int = 0):
    """Primes below PRIME_LIMIT, largest first, without `skip`."""
    for q in range(PRIME_LIMIT - 1, 2, -2):
        if q != skip and is_prime(q):
            yield q


def _lucky_echelon(primes, length: int, vectors: list[dict], shape: tuple):
    """Echelon at the next stream prime whose shape is at least as lucky
    (None once the stream runs out)."""
    for q in primes:
        ech = IncrementalModEchelon(length, q)
        for vec in vectors:
            ech.add(vec)
        if ech.shape() <= shape:
            return ech
    return None


def _crt(residues: dict, modulus: int, new: dict, q: int) -> dict:
    """Combine residue vectors mod `modulus` with those mod q (same keys);
    the vectors of `new` are overwritten with the result."""
    inv = pow(modulus, -1, q)
    out = {}
    for f, vec in residues.items():
        other = out[f] = new[f]
        for c in vec.keys() | other.keys():
            a = vec.get(c, 0)
            other[c] = a + modulus * ((other.get(c, 0) - a) * inv % q)
    return out


def _verified(pending: dict, modulus: int, vectors: list[dict]) -> dict:
    """The pending residue vectors whose rational reconstruction, scaled by
    the lcm of its denominators, every input vector annihilates exactly,
    keyed as `pending`."""
    candidates = {}
    for f, res in pending.items():
        pairs = {}
        for c, r in res.items():
            q = rational_reconstruct(r, modulus)
            if q is None:
                break
            if q[0]:
                pairs[c] = q
        else:
            den = math.lcm(*(d for _num, d in pairs.values()))
            candidates[f] = {c: num * (den // d) for c, (num, d) in pairs.items()}
    ok = annihilated(vectors, list(candidates.values()))
    return {f: vec for (f, vec), good in zip(candidates.items(), ok) if good}


def annihilated(rows: list[dict], vectors: list[dict]) -> list[bool]:
    """Whether every row annihilates each integer dict vector, exactly: one
    batched pass over the rows through a coordinate index of the vectors."""
    index: dict[int, list] = {}  # coordinate -> (vector number, entry)
    for i, vec in enumerate(vectors):
        for c, x in vec.items():
            index.setdefault(c, []).append((i, x))
    ok = [True] * len(vectors)
    for row in rows:
        sums: dict[int, int] = {}
        for c, a in row.items():
            for i, x in index.get(c, ()):
                sums[i] = sums.get(i, 0) + a * x
        for i, s in sums.items():
            if s:
                ok[i] = False
    return ok
