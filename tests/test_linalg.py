import itertools
import math
from fractions import Fraction

import pytest

from ptl import linalg
from ptl.linalg import (
    DEFAULT_PRIME,
    IncrementalModEchelon,
    annihilated,
    certified_kernel,
    certified_nullspace,
    is_prime,
)
from reference import SparseRationalEchelon, integer_vector


def rational_nullspace(vectors, length):
    """Exact nullspace basis by rational elimination, one vector per non-lead
    coordinate f, the primitive integer multiple of the one with x_f = 1,
    positive at f: the reference for `certified_nullspace`."""
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
        basis.append(integer_vector(vec))
    return basis


def _trial_division(n):
    return n > 1 and all(n % f for f in range(2, math.isqrt(n) + 1))


def test_is_prime_matches_trial_division():
    # below 10^4 lie the strong pseudoprimes to base 2 (2047, 3277, ...)
    assert all(is_prime(n) == _trial_division(n) for n in range(10 ** 4))
    for n in itertools.chain(range(2 ** 31 - 200, 2 ** 31 + 50), range(2 ** 32 - 100, 2 ** 32)):
        assert is_prime(n) == _trial_division(n), n
    with pytest.raises(ValueError):
        is_prime(2 ** 32)


def test_prime_stream_descends_and_skips():
    assert list(itertools.islice(linalg.prime_stream(DEFAULT_PRIME), 3)) == [
        2147483647, 2147483629, 2147483587]
    assert next(linalg.prime_stream(2147483647)) == 2147483629


def _random_vectors(rng, length, count):
    """Sparse integer dicts with entries up to 2^64 in size, explicit zeros,
    keys in random order, and some integer combinations of earlier ones."""
    vectors = []
    for _ in range(count):
        if vectors and rng.random() < 0.3:
            acc = {}
            for vec in rng.sample(vectors, rng.randint(1, min(3, len(vectors)))):
                k = rng.randint(-5, 5)
                for c, v in vec.items():
                    acc[c] = acc.get(c, 0) + k * v
        else:
            acc = {c: rng.choice((0, rng.randint(-3, 3), rng.randint(-2 ** 64, 2 ** 64)))
                   for c in rng.sample(range(length), rng.randint(0, length))}
        keys = list(acc)
        rng.shuffle(keys)
        vectors.append({c: acc[c] for c in keys})
    return vectors


def _dense_reference(vectors, length, p):
    """Whether each vector raised the rank, and the sorted pivot columns, by
    dense Gauss-Jordan elimination mod p (pivot: first nonzero column)."""
    pivots = {}  # pivot column -> reduced dense row, 1 there, 0 at other pivots
    grew = []
    for vec in vectors:
        row = [0] * length
        for c, v in vec.items():
            row[c] = v % p
        for c, piv in pivots.items():
            row = [(x - row[c] * y) % p for x, y in zip(row, piv)]
        lead = next((c for c, x in enumerate(row) if x), None)
        grew.append(lead is not None)
        if lead is not None:
            inv = pow(row[lead], -1, p)
            row = [x * inv % p for x in row]
            for c, piv in pivots.items():
                pivots[c] = [(x - piv[lead] * y) % p for x, y in zip(piv, row)]
            pivots[lead] = row
    return grew, sorted(pivots)


@pytest.mark.parametrize("p", [2, 3, 1048573, 2 ** 31 - 1])
def test_sparse_echelon_matches_dense_reference(rng, p):
    for _ in range(60):
        length = rng.randint(1, 12)
        vectors = _random_vectors(rng, length, rng.randint(0, 2 * length))
        copies = [dict(vec) for vec in vectors]
        ech = IncrementalModEchelon(length, p)
        grew = [ech.add(vec) for vec in vectors]
        assert vectors == copies
        ref_grew, ref_leads = _dense_reference(vectors, length, p)
        assert grew == ref_grew  # False exactly on the dependent vectors
        assert ech.rank == len(ref_leads)
        assert ech.shape() == (-len(ref_leads), ref_leads)
        free = [f for f in range(length) if f not in ref_leads]
        basis = ech.nullspace_modp()
        assert list(basis) == free
        for f, x in basis.items():
            assert all(x.get(g, 0) == (g == f) for g in free)
            assert all(0 < v < p for v in x.values())
            for vec in vectors:
                assert sum(v * x.get(c, 0) for c, v in vec.items()) % p == 0
        subset = rng.sample(free, rng.randint(0, len(free)))
        assert ech.nullspace_modp(subset) == {f: basis[f] for f in sorted(subset)}


def _echelon(vectors, length, p):
    ech = IncrementalModEchelon(length, p)
    for vec in vectors:
        ech.add(vec)
    return ech


def _low_rank_vectors(rng, count, length, rank, bits):
    """Integer combinations of `rank` random sparse vectors."""
    base = [{c: rng.randint(-2 ** bits, 2 ** bits)
             for c in rng.sample(range(length), rng.randint(1, length))}
            for _ in range(rank)]
    out = []
    for _ in range(count):
        acc = {}
        for vec in base:
            k = rng.randint(-3, 3)
            for c, v in vec.items():
                acc[c] = acc.get(c, 0) + k * v
        out.append({c: v for c, v in acc.items() if v})
    return out


@pytest.mark.parametrize("prime", [DEFAULT_PRIME, 3])
def test_certified_nullspace_matches_rational(rng, monkeypatch, prime):
    # entries up to 2^64 need several stream primes; 3 is an unlucky prime
    # whose echelon often has too low a rank, so the lift must restart
    lifts = []
    lucky = linalg._lucky_echelon
    monkeypatch.setattr(linalg, "_lucky_echelon", lambda *a: lifts.append(1) or lucky(*a))
    trials = 40
    for _ in range(trials):
        length = rng.randint(1, 10)
        rank = rng.randint(0, length)
        vectors = _low_rank_vectors(rng, rng.randint(rank, rank + 3), length, rank,
                                    rng.choice((1, 8, 64)))
        ech = _echelon(vectors, length, prime)
        assert certified_nullspace(ech, vectors) == rational_nullspace(vectors, length)
    assert len(lifts) > trials


def test_unlucky_primes():
    # rank 2 over Q, rank 1 mod 3: the first stream prime restarts the lift
    vectors = [{0: 3, 1: 1}, {1: 1}]
    ech = _echelon(vectors, 2, 3)
    assert ech.rank == 1
    assert certified_nullspace(ech, vectors) == []
    # the first stream prime q kills the pivot at (0, 0), so its leads come
    # later; it must be skipped, not merged into the lift
    q = next(linalg.prime_stream(DEFAULT_PRIME))
    big = 2 ** 80 + 1
    vectors = [{0: q, 2: big}, {1: 1, 2: 3 * big}]
    assert _echelon(vectors, 3, q).shape() > _echelon(vectors, 3, DEFAULT_PRIME).shape()
    assert certified_nullspace(_echelon(vectors, 3, DEFAULT_PRIME), vectors) == [
        {2: q, 0: -big, 1: -3 * big * q}]


def test_annihilated_checks_each_vector_exactly():
    rows = [{0: 1, 1: 2}, {2: 3}]
    # the second vector passes the first row only in exact arithmetic on
    # entries beyond 2^64, and fails the second row; the empty vector is
    # trivially annihilated
    assert annihilated(rows, [{0: 2, 1: -1}, {0: 2 ** 70, 1: -2 ** 69, 2: 1}, {}]) == [
        True, False, True]
    assert annihilated([], [{0: 5}]) == [True]


def test_certified_kernel_stops_drawing_at_the_bound():
    drawn = []

    def stream():
        for c in range(6):
            drawn.append(c)
            yield {c: 1, 5: c}

    assert certified_kernel(stream(), 6, 3, DEFAULT_PRIME) is None
    assert drawn == [0, 1, 2]


def _lift_spy(monkeypatch):
    lifts, lift = [], linalg.certified_nullspace
    monkeypatch.setattr(linalg, "certified_nullspace", lambda *a: lifts.append(1) or lift(*a))
    return lifts


def test_certified_kernel_accepts_canonical_candidates(monkeypatch):
    lifts = _lift_spy(monkeypatch)
    vectors = [{0: 2, 1: 1}, {0: 4, 1: 2}]
    candidates = [{0: -1, 1: 2}, {2: 1}]
    kernel = certified_kernel(iter(vectors), 3, 3, DEFAULT_PRIME, candidates)
    assert kernel == candidates and all(a is b for a, b in zip(kernel, candidates))
    assert kernel == rational_nullspace(vectors, 3) and not lifts


@pytest.mark.parametrize("candidates", [
    [{0: -2, 1: 4}, {2: 1}],  # the first one scaled by 2
    [{0: 1, 1: -2}, {2: 1}],  # the first one negated
    [{0: -1, 1: 2}],  # one missing
    [{0: -1 + 2 * DEFAULT_PRIME, 1: 2}, {2: 1}],  # annihilated mod p only
], ids=["scaled", "negated", "missing", "not-annihilated"])
def test_certified_kernel_lifts_past_other_candidates(monkeypatch, candidates):
    lifts = _lift_spy(monkeypatch)
    vectors = [{0: 2, 1: 1}]
    assert certified_kernel(iter(vectors), 3, 3, DEFAULT_PRIME, candidates) == (
        rational_nullspace(vectors, 3))
    assert lifts == [1]


@pytest.mark.parametrize("prime", [2, 3, DEFAULT_PRIME])
def test_certified_kernel_below_the_bound_matches_rational(rng, prime):
    # `rank` bounds the rank over Q, so a bound one above it is never reached
    for _ in range(30):
        length = rng.randint(1, 10)
        rank = rng.randint(0, length)
        vectors = _low_rank_vectors(rng, rng.randint(rank, rank + 3), length, rank,
                                    rng.choice((1, 8, 64)))
        assert certified_kernel(iter(vectors), length, rank + 1, prime) == (
            rational_nullspace(vectors, length))
