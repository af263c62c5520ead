import pytest

from ptl.partitions import p_count, partition_count
from ptl.solver import kernel_basis
from ptl.strata import leaves_kleinian, leaves_symmetric_power, leaves_type_d
from ptl.partitions import prime_bound


def test_symmetric_power_n3():
    leaves = leaves_symmetric_power(3, 4)
    assert len(leaves) == 3
    by_codim = sorted(l.codim_absolute for l in leaves)
    assert by_codim == [0, 4, 8]
    assert all(l.multiplicity == 1 for l in leaves)


def test_symmetric_power_n1():
    leaves = leaves_symmetric_power(1, 2)
    assert len(leaves) == 1 and leaves[0].codim_absolute == 0


def test_symmetric_power_counts():
    for n in (2, 3, 4, 5, 6):
        leaves = leaves_symmetric_power(n, 2)
        assert len(leaves) == partition_count(n)
        for i in range(n + 1):
            got = sum(1 for l in leaves if l.codim_units == i)
            assert got == p_count(n, i)
        assert all(l.codim_absolute % 2 == 0 for l in leaves)


def test_kleinian_n2_m1():
    leaves = leaves_kleinian(2, 1)
    data = {(l.point_part, l.partition): l.multiplicity for l in leaves}
    assert data[(0, (1, 1))] == 1
    assert data[(0, (2,))] == 1
    assert data[(1, (1,))] == 1
    assert data[(2, ())] == 2


def test_kleinian_r0_multiplicities_trivial():
    for n in (1, 2, 3):
        for leaf in leaves_kleinian(n, 2):
            if leaf.point_part == 0:
                assert leaf.multiplicity == 1


def test_kleinian_n1_m2():
    leaves = leaves_kleinian(1, 2)
    data = {(l.point_part, l.partition): l.multiplicity for l in leaves}
    assert data[(1, ())] == 2
    assert data[(0, (1,))] == 1


def test_kleinian_m1_r0_slice_matches_symmetric_power():
    for n in (2, 3, 4):
        klein = [(l.partition, l.codim_absolute, l.multiplicity)
                 for l in leaves_kleinian(n, 1) if l.point_part == 0]
        sym = [(l.partition, l.codim_absolute, l.multiplicity)
               for l in leaves_symmetric_power(n, 2)]
        assert sorted(klein) == sorted(sym)


def test_type_d_n2():
    leaves = leaves_type_d(2, (1, 0, 1))
    labels = {l.label for l in leaves}
    assert "(i) (r=0; {1,1})" in labels
    assert "(i) (r=0; {2})" in labels
    assert "(i) (r=2; {})" in labels
    assert "(ii) {2}" in labels
    assert len(leaves) == 4
    assert not any(l.point_part == 1 for l in leaves)  # d_1 = 0 omitted


def test_type_d_n3_no_even_sector():
    leaves = leaves_type_d(3, (1, 0, 1, 1))
    assert not any(l.label.startswith("(ii)") for l in leaves)


def test_type_d_n4_even_sector():
    leaves = leaves_type_d(4, (1, 0, 1, 1, 3))
    evens = [l for l in leaves if l.label.startswith("(ii)")]
    assert sorted(l.partition for l in evens) == [(2, 2), (4,)]


def test_type_d_codim_counts_match_prime_bound():
    for n in (2, 3, 4, 5, 6):
        d = tuple([1] + [sum(kernel_basis(r).weight_dims.entries.values())
                        for r in range(1, n + 1)])
        leaves = leaves_type_d(n, d)
        for i in range(n + 1):
            got = sum(l.multiplicity for l in leaves if l.codim_units == i)
            assert got == prime_bound("typeD", n, i, d[: i + 1]), (n, i)


def test_type_d_needs_enough_d():
    with pytest.raises(ValueError):
        leaves_type_d(3, (1, 0))
