"""Exact sparse rank and nullspace machinery.

The fast path is Gaussian elimination over a word-sized prime field; the
slow path is exact rational arithmetic.  Modular rank can only undercount
(reduction mod p preserves dependencies), so a modular result is always
re-certified before any dimension is reported:

* full modular rank certifies itself (independence mod p implies
  independence over Q);
* a modular rank deficit is certified by `certified_nullspace`, the one
  core shared by the solver and the engine: the mod-p nullspace is lifted
  by CRT over a stream of word-sized primes, rationally reconstructed, and
  every vector is checked in exact integer arithmetic against every input
  vector.

The incremental echelon below is kept fully reduced (RREF), so reducing an
incoming sparse vector costs one small matrix-vector product against the
stored pivot rows, and the mod-p nullspace can be read off directly.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

# Default word-sized prime: small enough that dot products of any realistic
# length accumulate in int64 without overflow, large enough for reliable
# rank filtering.  All reported dimensions are certified over Q regardless.
DEFAULT_PRIME = 1048573

# Moduli of the mod-p echelon stay below 2^31: then (p - 1)^2 < 2^62, so
# every product and difference fits in int64 (larger p would silently wrap).
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
    """Streaming RREF over F_p for sparse vectors of a fixed length.

    Vectors arrive as {coordinate: int} dicts; each is reduced in a single
    pass against the stored reduced echelon.  Tracks the pivot (lead)
    coordinate of each stored row.
    """

    def __init__(self, length: int, p: int = DEFAULT_PRIME):
        if not 2 <= p < PRIME_LIMIT:
            raise ValueError(f"modulus {p} is outside [2, 2^31)")
        self.length = length
        self.p = p
        self.rank = 0
        self._cap = 16
        self.matrix = np.zeros((self._cap, max(length, 1)), dtype=np.int64)
        self.leads: list[int] = []
        self.lead_of_coord: dict[int, int] = {}
        # largest number of products safely accumulated in int64
        self.chunk = max(1, (2 ** 63 - 1) // max((p - 1) ** 2, 1))

    def _matvec(self, coeffs: np.ndarray, rows: np.ndarray) -> np.ndarray:
        if len(coeffs) <= self.chunk:
            return coeffs @ rows % self.p
        acc = np.zeros(rows.shape[1], dtype=np.int64)
        for i in range(0, len(coeffs), self.chunk):
            acc = (acc + coeffs[i:i + self.chunk] @ rows[i:i + self.chunk]) % self.p
        return acc

    def reduce(self, vec: dict) -> np.ndarray:
        """Fully reduce a vector against the echelon (mod p), as a dense array."""
        p = self.p
        dense = np.zeros(self.length, dtype=np.int64)
        hits = []
        for coord, val in vec.items():
            v = val % p
            dense[coord] = v
            idx = self.lead_of_coord.get(coord)
            if idx is not None and v:
                hits.append(idx)
        if hits:
            hits.sort()
            rows = self.matrix[hits]
            coeffs = dense[[self.leads[i] for i in hits]]
            dense = (dense - self._matvec(coeffs, rows)) % p
        return dense

    def add(self, vec: dict) -> bool:
        """Insert a vector; returns True when it increased the rank."""
        dense = self.reduce(vec)
        nz = np.nonzero(dense)[0]
        if nz.size == 0:
            return False
        lead = int(nz[0])
        inv = pow(int(dense[lead]), -1, self.p)
        dense = dense * inv % self.p
        if self.rank:
            col = self.matrix[:self.rank, lead].copy()
            touched = np.nonzero(col)[0]
            if touched.size:
                self.matrix[touched] = (
                    self.matrix[touched] - np.outer(col[touched], dense)) % self.p
        if self.rank == self._cap:
            self._cap *= 2
            grown = np.zeros((self._cap, max(self.length, 1)), dtype=np.int64)
            grown[:self.rank] = self.matrix[:self.rank]
            self.matrix = grown
        self.matrix[self.rank] = dense
        self.leads.append(lead)
        self.lead_of_coord[lead] = self.rank
        self.rank += 1
        return True

    def nullspace_modp(self) -> dict[int, dict[int, int]]:
        """Basis of {x : v . x = 0 for every stored v} mod p, keyed by free
        (non-lead) coordinate f: x_f = 1, 0 at the other free coordinates."""
        basis = {}
        for f in range(self.length):
            if f in self.lead_of_coord:
                continue
            vec = {f: 1}
            col = self.matrix[:self.rank, f]
            for i in np.nonzero(col)[0]:
                vec[self.leads[int(i)]] = int(-col[int(i)]) % self.p
            basis[f] = vec
        return basis

    def shape(self) -> tuple:
        """Smaller is luckier: higher rank first, then lexicographically
        earlier leads (a prime can only lose rank or delay leads)."""
        return -self.rank, sorted(self.leads)


def integer_vector(vec: dict) -> dict:
    """An exact vector scaled by the lcm of its denominators, as ints."""
    den = math.lcm(*(v.denominator for v in vec.values()))
    return {c: v.numerator * (den // v.denominator) for c, v in vec.items()}


def rational_reconstruct(a: int, m: int) -> Fraction | None:
    """Wang's rational reconstruction of a mod m; None if no small fraction."""
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
    return Fraction(num, den)


class SparseRationalEchelon:
    """Exact RREF over Q on sparse dict vectors, with optional tracking.

    Pivot coordinate choice follows a caller-supplied priority (smaller key
    first); with `track=True` each insertion also records the expression of
    the reduced vector as a combination of the inserted originals, which is
    what membership certificates are made of.
    """

    def __init__(self, *, track: bool = False):
        self.rows: list[dict] = []
        self.leads: list = []
        self.lead_index: dict = {}
        self.combos: list[dict] = []
        self.track = track
        self._count = 0

    def _reduce(self, vec: dict, combo: dict | None):
        vec = dict(vec)
        while vec:
            lead = min(vec)
            idx = self.lead_index.get(lead)
            if idx is None:
                return vec, combo, lead
            coef = vec[lead] / self.rows[idx][lead]
            for k, v in self.rows[idx].items():
                s = vec.get(k, 0) - coef * v
                if s:
                    vec[k] = s
                else:
                    vec.pop(k, None)
            if combo is not None:
                for k, v in self.combos[idx].items():
                    s = combo.get(k, 0) - coef * v
                    if s:
                        combo[k] = s
                    else:
                        combo.pop(k, None)
        return vec, combo, None

    def reduce_only(self, vec: dict):
        """Residual of vec modulo the current row space (plus combination)."""
        combo = {} if self.track else None
        red, combo, _lead = self._reduce(vec, combo)
        return red, combo

    def add(self, vec: dict, tag=None) -> bool:
        combo = {self._count if tag is None else tag: Fraction(1)} if self.track else None
        red, combo, lead = self._reduce(vec, combo)
        self._count += 1
        if lead is None:
            return False
        self.lead_index[lead] = len(self.rows)
        self.rows.append(red)
        self.combos.append(combo if combo is not None else {})
        self.leads.append(lead)
        return True

    @property
    def rank(self) -> int:
        return len(self.rows)


def rational_nullspace(vectors: list[dict], length: int) -> list[dict]:
    """Exact nullspace basis by rational elimination, one vector per non-lead
    coordinate f with x_f = 1 (the last resort of `certified_nullspace`)."""
    ech = SparseRationalEchelon()
    for vec in vectors:
        ech.add({c: Fraction(v) for c, v in vec.items()})
    order = sorted(range(ech.rank), key=lambda i: ech.leads[i], reverse=True)
    basis = []
    for f in range(length):
        if f in ech.lead_index:
            continue
        vec = {f: Fraction(1)}
        for i in order:
            row, lead = ech.rows[i], ech.leads[i]
            total = sum(coeff * vec[c] for c, coeff in row.items() if c != lead and c in vec)
            if total:
                vec[lead] = -total / row[lead]
        basis.append(vec)
    return basis


def certified_nullspace(ech: IncrementalModEchelon, vectors: list[dict]) -> list[dict]:
    """Exact basis of {x : v . x = 0 for every v in vectors}.

    `ech` holds the integer dict `vectors` at its own prime.  Its nullspace
    vectors (x_f = 1 at their own non-lead coordinate f) are lifted by CRT
    over `_prime_stream`; after each prime every pending vector is
    rationally reconstructed and checked in exact integer arithmetic
    against every input vector, and kept once it passes.  A stream prime
    of lower rank or later leads (`IncrementalModEchelon.shape`) is
    skipped; a luckier one restarts the lift from its own nullspace.

    Certificate: the length - rank_p returned vectors are independent by
    their shape, so rank_Q <= rank_p; and rank_Q >= rank_p for integer
    vectors.  So they are a basis of the rational nullspace, normalized as
    in `rational_nullspace`.  Every entry of that basis is a ratio of
    minors bounded by the Hadamard bound H of the input, so a lift of the
    right shape succeeds before its modulus passes 2 H^2; past that bound
    the result is settled by `rational_nullspace`.
    """
    bits = sum((sum(v * v for v in vec.values()).bit_length() + 1) // 2 for vec in vectors)
    primes = _prime_stream(ech.p)
    shape, pending, modulus, found = ech.shape(), ech.nullspace_modp(), ech.p, {}
    while True:
        found.update(_verified(pending, modulus, vectors))
        pending = {f: res for f, res in pending.items() if f not in found}
        if not pending:
            return [found[f] for f in sorted(found)]
        past_bound = modulus.bit_length() > 2 * bits + 1
        nxt = None if past_bound else _lucky_echelon(primes, ech.length, vectors, shape)
        if nxt is None:
            return rational_nullspace(vectors, ech.length)
        if nxt.shape() < shape:
            shape, pending, modulus, found = nxt.shape(), nxt.nullspace_modp(), nxt.p, {}
        else:
            pending = _crt(pending, modulus, nxt.nullspace_modp(), nxt.p)
            modulus *= nxt.p


def _prime_stream(skip: int):
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
    """The pending residue vectors whose rational reconstruction every
    input vector annihilates exactly, keyed as `pending`."""
    candidates = {}
    for f, res in pending.items():
        vec = {}
        for c, r in res.items():
            q = rational_reconstruct(r, modulus)
            if q is None:
                break
            if q:
                vec[c] = q
        else:
            candidates[f] = vec
    index: dict[int, list] = {}  # coordinate -> (f, entry of f's integer image)
    for f, vec in candidates.items():
        den = math.lcm(*(q.denominator for q in vec.values()))
        for c, q in vec.items():
            index.setdefault(c, []).append((f, q.numerator * (den // q.denominator)))
    failed = set()
    for row in vectors:
        sums: dict[int, int] = {}
        for c, a in row.items():
            for f, x in index.get(c, ()):
                sums[f] = sums.get(f, 0) + a * x
        failed.update(f for f, s in sums.items() if s)
    return {f: vec for f, vec in candidates.items() if f not in failed}


def independent(vectors: list[dict], p: int = DEFAULT_PRIME) -> bool:
    """Whether exact sparse vectors (any hashable coordinates) are linearly
    independent over Q: full rank mod p of their integer scalings certifies
    itself; otherwise rational elimination settles it."""
    index: dict = {}
    scaled = [{index.setdefault(c, len(index)): v for c, v in integer_vector(vec).items()}
              for vec in vectors]
    ech = IncrementalModEchelon(len(index), p)
    if all(ech.add(vec) for vec in scaled):
        return True
    rat = SparseRationalEchelon()
    return all(rat.add({c: Fraction(v) for c, v in vec.items()}) for vec in vectors)
