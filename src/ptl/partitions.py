"""Partition and multipartition counts.

Statistics implemented:

* a_n(i): number of i-multipartitions of n (ordered i-tuples of partitions
  with total size n); generating function prod_{m>=1} (1-t^m)^{-i}.
* p_{n,i}: partitions of n with exactly n-i parts; bivariate generating
  function prod_{m>=0} 1/(1 - s^m t^{m+1}).
* p'_{n,i}: partitions of n with exactly n-i parts, all parts even.  This
  is the reading that the type-D leaf bookkeeping fixes: the typeD prime
  bound equals the leaves' multiplicities summed over each codimension.
* the hyperoctahedral Hilbert statistic: partitions of n graded by
  n - (number of parts).
* class counts (`hh0_dimension`): dim HH_0 of the invariant Weyl algebra,
  the number of conjugacy classes acting without eigenvalue one.

Every generating-function evaluation is exact integer polynomial
truncation; p_{n,i} is computed both from its generating function and by a
part-count recurrence, which must agree.  Results are memoized behind
immutable caches.
"""

from __future__ import annotations

from functools import lru_cache

from ptl.tables import GradedDimensionTable


def partitions(n: int, max_part: int | None = None):
    """Yield the partitions of n with parts at most `max_part` (default n),
    weakly decreasing, in reverse lexicographic order: each next one lowers
    the last part above 1 by one and refills the rest greedily."""
    if n == 0:
        yield ()
    a, rest, m = [], n, n if max_part is None else min(n, max_part)
    while rest > 0 and m > 0:
        q, r = divmod(rest, m)
        a += [m] * q + [r] * bool(r)
        yield tuple(a)
        ones = a.count(1)
        del a[len(a) - ones:]
        if not a:
            return
        m = a.pop() - 1
        rest = m + 1 + ones


@lru_cache(maxsize=None)
def partition_count(n: int) -> int:
    """p(n) by the Euler pentagonal-number recurrence."""
    if n < 0:
        return 0
    if n == 0:
        return 1
    total = 0
    k = 1
    while True:
        g1 = k * (3 * k - 1) // 2
        g2 = k * (3 * k + 1) // 2
        if g1 > n and g2 > n:
            break
        sign = -1 if k % 2 == 0 else 1
        if g1 <= n:
            total += sign * partition_count(n - g1)
        if g2 <= n:
            total += sign * partition_count(n - g2)
        k += 1
    return total


@lru_cache(maxsize=None)
def partition_count_exact_parts(n: int, k: int) -> int:
    """Number of partitions of n with exactly k parts."""
    if n == 0 and k == 0:
        return 1
    if n <= 0 or k <= 0 or k > n:
        return 0
    # smallest part 1 removed, or all parts lowered by 1
    return partition_count_exact_parts(n - 1, k - 1) + partition_count_exact_parts(n - k, k)


@lru_cache(maxsize=None)
def even_part_count(n: int) -> int:
    """Number of partitions of n with an even number of parts."""
    return sum(partition_count_exact_parts(n, k) for k in range(0, n + 1, 2))


def hh0_dimension(family: str, n: int) -> int:
    """Number of conjugacy classes acting on C^{2n} without eigenvalue one.

    typeA(n): S_{n+1} on its doubled reflection representation -- only the
    (n+1)-cycle class, so 1.  typeB(n): classes with every signed cycle
    negative, one per partition of n.  typeD(n): the same classes restricted
    to determinant one, i.e. partitions of n with an even number of parts.
    """
    nmin = {"typeA": 1, "typeB": 1, "typeD": 2}.get(family)
    if nmin is None:
        raise ValueError(f"unknown family {family!r}")
    if n < nmin:
        raise ValueError(f"{family} needs n >= {nmin}")
    return 1 if family == "typeA" else partition_count(n) if family == "typeB" else even_part_count(n)


def multipartition_count(n: int, i: int) -> int:
    """a_n(i): coefficient of t^n in prod_{m>=1} (1-t^m)^{-i}."""
    if n < 0 or i < 0:
        raise ValueError("n, i must be >= 0")
    if n == 0:
        return 1
    if i == 0:
        return 0
    return _multipartition_row(i, n)[n]


@lru_cache(maxsize=None)
def _multipartition_row(i: int, nmax: int) -> tuple:
    coeffs = [1] + [0] * nmax
    for _ in range(i):
        # multiply by prod_m 1/(1-t^m): apply unbounded parts of each size
        for m in range(1, nmax + 1):
            for d in range(m, nmax + 1):
                coeffs[d] += coeffs[d - m]
    return tuple(coeffs)


@lru_cache(maxsize=None)
def _p_bivariate(nmax: int) -> dict:
    """Coefficients of prod_{m>=0} 1/(1-s^m t^{m+1}) through t^nmax.

    Returned as {(i, n): coefficient} with i the s-exponent and n the
    t-exponent.
    """
    coeffs = {(0, 0): 1}
    for m in range(0, nmax):
        # factor 1/(1 - s^m t^{m+1}), expanded to the t-truncation order
        out = dict(coeffs)
        reps = 1
        while reps * (m + 1) <= nmax:
            shift_i, shift_n = m * reps, (m + 1) * reps
            for (i, n), c in coeffs.items():
                if n + shift_n <= nmax:
                    key = (i + shift_i, n + shift_n)
                    out[key] = out.get(key, 0) + c
            reps += 1
        coeffs = out
    return coeffs


def p_count(n: int, i: int) -> int:
    """p_{n,i}: partitions of n with exactly n-i parts.

    Computed both from the bivariate generating function and by the direct
    part-count recurrence; the two must agree.
    """
    if n < 0 or i < 0:
        return 0
    direct = partition_count_exact_parts(n, n - i) if n - i >= 0 else 0
    gf = _p_bivariate(n).get((i, n), 0)
    if direct != gf:
        raise AssertionError(f"generating function disagrees with enumeration at p_({n},{i})")
    return direct


def p_prime_count(n: int, i: int) -> int:
    """p'_{n,i}: partitions of n with n-i parts, all parts even."""
    if n % 2 or i > n:
        return 0
    return partition_count_exact_parts(n // 2, n - i)


def bn_hilbert(n: int) -> GradedDimensionTable:
    """Dimension table of the degree-n component of C[s1, s2, ...].

    Basis monomials correspond to partitions lambda of n (s_i has degree i);
    the display exponent of a monomial is n - (number of parts), i.e.
    -(weight)/4 under weight(s_i) = 4*(1-i).
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    entries: dict[int, int] = {}
    for k in range(0, n + 1):
        c = partition_count_exact_parts(n, k)
        if c:
            entries[n - k] = entries.get(n - k, 0) + c
    if n == 0:
        entries[0] = 1
    return GradedDimensionTable(entries, {
        "group": "hyperoctahedral", "n": n, "grading": "display-exponent"})


def prime_bound(family: str, n: int, i: int, d: tuple | list | None = None) -> int:
    """Upper bounds for counts of prime ideals with support of codimension i
    grading units.

    * ``typeA-sym``: p_{n,i}
    * ``typeA-quot``: p_{n+1,i}
    * ``typeD``: p'_{n,i} + sum_{j<=i} d_j * p_{n-j, i-j}, d = (d_0..d_i)
      supplied from the typed solver (d_0 = 1, d_1 = 0).
    """
    if family == "typeA-sym":
        return p_count(n, i)
    if family == "typeA-quot":
        return p_count(n + 1, i)
    if family == "typeD":
        if d is None or len(d) < i + 1:
            raise ValueError("typeD bound needs d_0..d_i")
        total = p_prime_count(n, i)
        for j in range(i + 1):
            if n - j >= 0:
                total += d[j] * p_count(n - j, i - j)
        return total
    raise ValueError(f"unknown family {family!r}")
