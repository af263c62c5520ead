import itertools
import math
from fractions import Fraction

import pytest

from ptl import linalg
from ptl.linalg import (
    DEFAULT_PRIME,
    IncrementalModEchelon,
    certified_nullspace,
    independent,
    is_prime,
    rational_nullspace,
)


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
    assert list(itertools.islice(linalg._prime_stream(DEFAULT_PRIME), 3)) == [
        2147483647, 2147483629, 2147483587]
    assert next(linalg._prime_stream(2147483647)) == 2147483629


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
    q = next(linalg._prime_stream(DEFAULT_PRIME))
    big = 2 ** 80 + 1
    vectors = [{0: q, 2: big}, {1: 1, 2: 3 * big}]
    assert _echelon(vectors, 3, q).shape() > _echelon(vectors, 3, DEFAULT_PRIME).shape()
    assert certified_nullspace(_echelon(vectors, 3, DEFAULT_PRIME), vectors) == [
        {2: 1, 0: Fraction(-big, q), 1: -3 * big}]


def test_independent_settles_unlucky_primes_exactly():
    assert independent([{"a": 3, "b": 1}, {"b": 1}], 3)
    assert not independent([{"a": 1, "b": 2}, {"a": 2, "b": 4}], 3)
    assert not independent([{"a": 1}, {}])
