import itertools
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ptl.partitions import (
    bn_hilbert,
    even_part_count,
    multipartition_count,
    p_count,
    p_prime_count,
    partition_count,
    partition_count_exact_parts,
    partitions,
    prime_bound,
)
from ptl.strata import leaves_type_d
from reference import multipartition_count_enum


def test_multipartition_examples():
    assert multipartition_count(5, 1) == 7
    assert multipartition_count(2, 2) == 5
    assert multipartition_count(0, 3) == 1
    assert multipartition_count(4, 0) == 0


def test_multipartition_gf_vs_enumeration():
    for n in range(0, 11):
        for i in range(0, 5):
            assert multipartition_count(n, i) == multipartition_count_enum(n, i)


def test_a_n_1_is_partition_count():
    for n in range(0, 21):
        assert multipartition_count(n, 1) == partition_count(n) or n == 0


def test_a_monotone_in_i():
    for n in range(1, 16):
        for i in range(0, 6):
            assert multipartition_count(n, i) <= multipartition_count(n, i + 1)


def test_p_count_examples():
    assert p_count(4, 2) == 2          # (3,1), (2,2)
    assert p_count(3, 1) == 1          # (2,1)
    for n in range(1, 12):
        assert p_count(n, 0) == 1      # 1+1+...+1


def test_p_count_row_sums():
    for n in range(0, 21):
        assert sum(p_count(n, i) for i in range(n + 1)) == partition_count(n)


def test_p_prime_examples():
    assert p_prime_count(8, 5) == 1    # (4,2,2)
    assert p_prime_count(4, 2) == 1    # (2,2)
    for i in range(8):
        assert p_prime_count(7, i) == 0


def test_p_prime_enumeration_agreement():
    for n in range(0, 21):
        for i in range(0, n + 1):
            direct = sum(1 for lam in partitions(n)
                         if len(lam) == n - i and all(p % 2 == 0 for p in lam))
            assert p_prime_count(n, i) == direct


def test_p_prime_reading_matches_type_d_leaves(rng):
    # p' counts partitions, not multipartitions: the typeD prime bound is
    # the multiplicity of the type-D leaves summed over codimension i
    for n, _draw in itertools.product(range(2, 12), range(5)):
        d = [rng.randint(0, 5) for _ in range(n + 1)]
        leaves = leaves_type_d(n, d)
        for i in range(n + 1):
            assert prime_bound("typeD", n, i, d) == sum(
                leaf.multiplicity for leaf in leaves if leaf.codim_units == i), (n, i, d)


def test_bn_hilbert_small():
    assert bn_hilbert(2).series() == "1 + t"
    assert bn_hilbert(3).series() == "1 + t + t^2"
    assert bn_hilbert(0).series() == "1"
    assert bn_hilbert(4).series() == "1 + t + 2*t^2 + t^3"


def test_bn_hilbert_total_is_partition_count():
    for n in range(0, 15):
        assert sum(bn_hilbert(n).entries.values()) == partition_count(n)


def test_prime_bounds():
    assert prime_bound("typeA-sym", 4, 1) == 1            # only (2,1,1)
    assert prime_bound("typeA-quot", 7, 0) == 1           # p_{8,0}
    assert prime_bound("typeD", 4, 2, (1, 0, 1)) == 4
    with pytest.raises(ValueError):
        prime_bound("typeD", 4, 2, (1, 0))
    with pytest.raises(ValueError):
        prime_bound("nonsense", 1, 0)


def test_even_part_count_values():
    # acceptance values for n = 2..6: 1, 1, 3, 3, 6
    assert [even_part_count(n) for n in (2, 3, 4, 5, 6)] == [1, 1, 3, 3, 6]
    assert even_part_count(7) == 7
    assert even_part_count(8) == 12


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=25))
def test_exact_parts_table_consistency(n):
    assert sum(partition_count_exact_parts(n, k) for k in range(n + 1)) == partition_count(n)


@lru_cache(maxsize=None)
def _reference_partitions(n, max_part):
    """The recursive definition: a first part from min(n, max_part) down to
    1, then the partitions of the rest with parts at most the first."""
    if n < 0:
        return ()
    if n == 0:
        return ((),)
    return tuple((first,) + rest for first in range(min(n, max_part), 0, -1)
                 for rest in _reference_partitions(n - first, first))


def test_partitions_match_the_recursive_definition():
    for n in range(-2, 31):
        assert list(partitions(n)) == list(_reference_partitions(n, max(n, 0))), n
        for max_part in range(-1, n + 3):
            assert list(partitions(n, max_part)) == list(_reference_partitions(n, max_part)), \
                (n, max_part)


def test_partition_enumeration_matches_count():
    for n in range(0, 12):
        assert sum(1 for _ in partitions(n)) == partition_count(n)
