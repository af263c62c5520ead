"""Exact sparse rank and nullspace machinery.

The fast path is Gaussian elimination over a word-sized prime field; the
slow path is exact rational arithmetic.  Modular rank can only undercount
(reduction mod p preserves dependencies), so a modular result is always
re-certified before any dimension is reported:

* full modular rank certifies itself (independence mod p implies
  independence over Q);
* a modular rank deficit is certified by exhibiting exact rational
  witnesses -- nullspace vectors or quotient functionals -- and verifying
  them against every column or row with exact arithmetic.

The incremental echelon below is kept fully reduced (RREF), so reducing an
incoming sparse vector costs one small matrix-vector product against the
stored pivot rows, and the mod-p nullspace can be read off directly.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

# Default word-sized prime: small enough that dot products of any realistic
# length accumulate in int64 without overflow, large enough for reliable
# rank filtering.  All reported dimensions are certified over Q regardless.
DEFAULT_PRIME = 1048573

# Moduli of the mod-p echelon stay below 2^31: then (p - 1)^2 < 2^62, so
# every product and difference fits in int64 (larger p would silently wrap).
PRIME_LIMIT = 2 ** 31

# 61-bit primes for the exact-nullspace reconstruction path.
BIG_PRIMES = (
    2305843009213693951,
    2305843009213693921,
    2305843009213693907,
    2305843009213693723,
    2305843009213693693,
    2305843009213693669,
)


def frac_mod(c, p: int) -> int:
    """Image of an exact scalar in F_p; ValueError if the denominator dies."""
    if isinstance(c, int):
        return c % p
    num, den = c.numerator, c.denominator
    if den % p == 0:
        raise ValueError(f"denominator divisible by p={p}")
    return num % p * pow(den, -1, p) % p


class IncrementalModEchelon:
    """Streaming RREF over F_p for sparse vectors of a fixed length.

    Vectors arrive as {coordinate: int} dicts (or dense int64 arrays); each
    is reduced in a single pass against the stored reduced echelon.  Tracks
    which input tags became pivots and the pivot coordinate of each.
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
        self.pivot_tags: list = []
        # largest number of products safely accumulated in int64
        self.chunk = max(1, (2 ** 63 - 1) // max((p - 1) ** 2, 1))

    def _matvec(self, coeffs: np.ndarray, rows: np.ndarray) -> np.ndarray:
        if len(coeffs) <= self.chunk:
            return coeffs @ rows % self.p
        acc = np.zeros(rows.shape[1], dtype=np.int64)
        for i in range(0, len(coeffs), self.chunk):
            acc = (acc + coeffs[i:i + self.chunk] @ rows[i:i + self.chunk]) % self.p
        return acc

    def reduce(self, vec) -> np.ndarray:
        """Fully reduce a vector against the echelon (mod p)."""
        p = self.p
        if isinstance(vec, dict):
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
        else:
            dense = np.asarray(vec, dtype=np.int64) % p
            if self.rank:
                coeffs = dense[self.leads]
                if np.any(coeffs):
                    dense = (dense - self._matvec(coeffs, self.matrix[:self.rank])) % p
        return dense

    def add(self, vec, tag=None) -> bool:
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
        self.pivot_tags.append(tag)
        self.rank += 1
        return True

    def nullspace_modp(self) -> list[dict[int, int]]:
        """Nullspace basis of the row space, one vector per free coordinate.

        Only meaningful when the streamed vectors were the *rows* of the
        matrix whose kernel is wanted.
        """
        lead_set = set(self.leads)
        basis = []
        for f in range(self.length):
            if f in lead_set:
                continue
            vec = {f: 1}
            col = self.matrix[:self.rank, f]
            for i in np.nonzero(col)[0]:
                vec[self.leads[int(i)]] = int(-col[int(i)]) % self.p
            basis.append(vec)
        return basis


def rational_reconstruct(a: int, m: int) -> Fraction | None:
    """Wang's rational reconstruction of a mod m; None if no small fraction."""
    from math import gcd, isqrt
    a %= m
    bound = isqrt(m // 2)
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
    if gcd(num, den) != 1:
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


class PurePythonModEchelon:
    """Dict-based streaming RREF mod a big prime (for reconstruction passes)."""

    def __init__(self, p: int):
        self.p = p
        self.rows: list[dict] = []
        self.leads: list[int] = []
        self.lead_index: dict[int, int] = {}

    def add(self, vec: dict) -> bool:
        p = self.p
        vec = {k: v % p for k, v in vec.items() if v % p}
        # single-pass reduction is valid because stored rows are fully reduced
        adjust: dict[int, int] = {}
        for k, v in vec.items():
            idx = self.lead_index.get(k)
            if idx is not None:
                adjust[idx] = v
        if adjust:
            out = dict(vec)
            for idx, coef in adjust.items():
                for k, v in self.rows[idx].items():
                    s = (out.get(k, 0) - coef * v) % p
                    if s:
                        out[k] = s
                    else:
                        out.pop(k, None)
            vec = out
        if not vec:
            return False
        lead = min(vec)
        inv = pow(vec[lead], -1, p)
        vec = {k: v * inv % p for k, v in vec.items()}
        for row in self.rows:
            c = row.get(lead)
            if c:
                for k, v in vec.items():
                    s = (row.get(k, 0) - c * v) % p
                    if s:
                        row[k] = s
                    else:
                        row.pop(k, None)
        self.lead_index[lead] = len(self.rows)
        self.rows.append(vec)
        self.leads.append(lead)
        return True

    def nullspace_modp(self, length: int) -> list[dict[int, int]]:
        lead_set = set(self.leads)
        basis = []
        for f in range(length):
            if f in lead_set:
                continue
            vec = {f: 1}
            for row, lead in zip(self.rows, self.leads):
                c = row.get(f)
                if c:
                    vec[lead] = (-c) % self.p
            basis.append(vec)
        return basis

