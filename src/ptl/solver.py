"""Constraint solver for the type-D trace spaces on C[s1, s2, ...].

The coordinate s_i (degree i, dual weight 4*(1-i)) reads off the x^(2(i-1))
coefficient of an even formal series.  For each k >= 1 the vector field

    xi_k = V( d/dx ( x^(2k-1) * Q( (1/s_{2k}) * sum_{i >= 2k+1} s_i x^(2(i-2k)) ) ) ),
    V( sum f_i x^(2i) ) = sum f_i d/ds_{i+1},

with Q the Taylor series of sqrt(1+z), has partial-derivative coefficients
that are Laurent polynomials in the s-variables localized at s_{2k}; the
coefficient of d/ds_k is exactly 2k-1.  A degree-n polynomial F belongs to
the trace space iff xi_k(F) vanishes after setting s_1 = ... = s_{2k-1} = 0
on the locus s_{2k} != 0, for every k (k ranges over 1..n: higher k only
involves d/ds_j with j > n, which kills degree-n polynomials).

Since Q is applied to a ratio with zero constant term, every coefficient is
an honest rational Laurent expression; no symbolic radicals appear here.
In closed form, the d/ds_{k+t} coefficient is 2(k+t)-1 times a sum over
the partitions of t that depends on k only through the index shift 2k
(`_xi_terms`), and 4^t times it has integer coefficients, so every
constraint row is assembled in integers, one xi_k at a time (`_xi_blocks`).
A row is keyed by its Laurent label packed into one int (`_label_code`);
packed at digit width b, the terms of slice t are one table shared by
every k, shifted by 2k - 1 digits (`_slice_table`).

The constraints preserve the bigrading, so the kernel is computed one
(degree, dual weight) component at a time.  Write a column as s1^a m with
m free of s1.  Three facts can be read off `_column_rows_for_k`:

1. a >= 2: the column has no entry in any row.  Below 2k, xi_k has a row
   on a column only through d/ds_j with j >= k and exponent 1, and s_1 is
   the index j = 1.
2. a = 1: the column has exactly one entry, 4^(n-1) (at the integer
   scale), in the xi_1 row labelled by the polynomial m.  For k >= 2 the
   index 1 is below k; for k = 1, d/ds_1 comes with slice 0, which is 1.
3. Every other label of xi_1 comes from an s1-free column, through
   d/ds_j with j >= 2, and has no s1.  So a xi_1 label m that is a
   polynomial has s1 m of degree n (xi_1 lowers the degree by one) and of
   the component's dual weight (xi_1 keeps it, and s1 has weight 0): s1 m
   is a column of the same component, and by 2 its row has the entry
   4^(n-1) there.

Lemma.  Let C2, C1 and C0 be the columns with a >= 2, a = 1 and a = 0, P
the xi_1 rows with a polynomial label, and L all other rows.  x is in the
kernel iff x restricted to C0 is in the kernel of the reduced system
(L on C0), and x_{s1 m} = -(row m . x)/4^(n-1) for every row m of P, with
x on C2 free.  Proof: by 1 and 2, L has no entry outside C0, and C2 none
at all; by 2 and 3, m -> s1 m matches the rows of P one to one with C1,
and P on C1 is 4^(n-1) times the identity.  So the kernel's dimension is
|C2| plus that of the reduced kernel, which is all `_xi_blocks` assembles.

Certificate (`_component_kernel`).  The family-(ii) leading monomials
z = s2^k s_{k+1} g (`_family_leads`) are s1-free, and `family_generators`
completes each e_z to a kernel element, so the column of z is zero in the
reduced system; that is checked exactly, column by column, for every k.
Reduced rows stream, as they are built, into `linalg.certified_kernel`,
the one certification entry point shared with the engine, with the bound
|C0| - |Z| on their rank; none are built once the mod-p rank reaches it:
rank_Q >= rank_p bounds the kernel's dimension by |Z|, so {e_z} is its
basis.  A component that never reaches that rank is lifted, and every
reconstructed vector is checked against every row; re-verifying a cached
record (`recertifies`) accepts its vectors in place of the lift when they
are annihilated exactly and in its integer form.  Bases are integer
column-coefficient dicts over a component's s1-free columns, in the one
form `ptl.linalg` keeps (the family-(ii) leads' unit vectors among them);
only `family_generators` completes vectors (`_completed`) into
polynomials, as {exponent tuple over s1..sn: Fraction} dicts.
"""

from __future__ import annotations

import itertools
import math
from collections import namedtuple
from functools import lru_cache
from types import MappingProxyType

from ptl.linalg import DEFAULT_PRIME, certified_kernel
from ptl.partitions import partition_count_exact_parts, partitions
from ptl.tables import GradedDimensionTable

def _xi_terms(t: int) -> tuple:
    """One term per partition lambda of t: (4^t * C(1/2, l) * l! / prod m_u!,
    l, ((u, m_u), ...)), with l the number of parts and m_u the multiplicity
    of part u, parts ascending.  The coefficient is an int: C(1/2, l) =
    (-1)^(l+1) * 2 * Catalan(l-1) / 4^l for l >= 1, and l <= t.

    Times s_{2k}^(-l) * prod_u s_{2k+u}^(m_u), the terms sum to slice t of
    xi_k times 4^t, its d/ds_{k+t} coefficient divided by 2(k+t)-1: that is
    4^t [X^t] Q(P / s_{2k}) with P = sum_{u >= 1} s_{2k+u} X^u, which the
    multinomial expansion of each P^l turns into this sum."""
    out = []
    for lam in partitions(t):
        ell = len(lam)
        mult = tuple((u, len(list(run))) for u, run in itertools.groupby(reversed(lam)))
        coeff = math.factorial(ell)
        for _u, m in mult:
            coeff //= math.factorial(m)
        if ell:
            catalan = math.comb(2 * ell - 2, ell - 1) // ell
            coeff *= (-1) ** (ell + 1) * 2 * catalan * 4 ** (t - ell)
        out.append((coeff, ell, mult))
    return tuple(out)


# -- constraint assembly ------------------------------------------------------

def _digit_width(n: int) -> int:
    """Bits per exponent in the code of a label on degree n.  An exponent
    of a label is a column exponent (at most n) plus or minus at most
    t < n parts of a partition, so 2^(b-1) > 2n keeps it inside the
    balanced digit range [-2^(b-1), 2^(b-1))."""
    return (2 * n).bit_length() + 1


def _label_code(expo, n: int) -> int:
    """The exponent tuple of a (Laurent) monomial over s_1, s_2, ... packed
    into one int: the exponent of s_i is the balanced digit i-1 in base
    2^_digit_width(n), so on degree n the code is injective."""
    b = _digit_width(n)
    return sum(x << b * i for i, x in enumerate(expo) if x)


def _label(code: int, n: int) -> tuple:
    """The exponent tuple over s_1..s_2n that `_label_code` packed."""
    b = _digit_width(n)
    half, out = 1 << b - 1, []
    for _ in range(2 * n):
        digit = (code + half) % (1 << b) - half
        out.append(digit)
        code = (code - digit) >> b
    return tuple(out)


def _polynomial_xi1(code: int, n: int) -> bool:
    """Whether the code of a xi_1 label of an s1-free column (fact 3 of the
    module docstring) is a polynomial: s_1's digit is 0 and s_2's is the
    only one that can be negative, so it is the sign bit of s_2's digit."""
    return not code >> 2 * _digit_width(n) - 1 & 1


@lru_cache(maxsize=None)
def _slice_table(t: int, b: int) -> tuple:
    """Slice t of every xi_k at digit width b, as (q, coefficient) pairs in
    `_xi_terms(t)` order, with q = sum_u m_u * 2^(b*u) - l: the code of the
    term's monomial s_{2k}^(-l) * prod_u s_{2k+u}^(m_u) is q << b*(2k-1),
    so one table serves every k."""
    return tuple((sum(m << b * u for u, m in mult) - ell, c) for c, ell, mult in _xi_terms(t))


def _partition_to_expo(lam: tuple, N: int) -> tuple:
    expo = [0] * N
    for part in lam:
        expo[part - 1] += 1
    return tuple(expo)


def _column_rows_for_k(k: int, n: int, e: tuple, support: list, code: int):
    """Yield (row label code, int value) for 4^(n-k) * xi_k applied to the
    column monomial e, after the substitution s_1 = ... = s_{2k-1} = 0;
    `support` lists the s-indices where e is nonzero, ascending, and
    `code` is `_label_code(e, n)`.

    Slice t = j - k of xi_k enters through d/ds_j; `_xi_terms` scales it by
    4^t, so a further 4^(n-j) puts every slice of xi_k on the one scale
    4^(n-k) (j <= n).  The label keeps s_{2k}'s (possibly negative)
    exponent; clearing the denominator uniformly across a component
    relabels rows bijectively, so the raw Laurent label is used directly.
    """
    low = [j for j in support if j < 2 * k]
    if len(low) > 1:
        return
    if low:
        js = low if k <= low[0] <= n and e[low[0] - 1] == 1 else ()
    else:
        js = [j for j in support if j <= n]
        # d/ds_j for k <= j < 2k hits zero exponents here; j > n never occurs
    b = _digit_width(n)
    shift = b * (2 * k - 1)
    for j in js:
        scale, at = e[j - 1] * (2 * j - 1) << 2 * (n - j), code - (1 << b * (j - 1))
        for q, c in _slice_table(j - k, b):
            yield at + (q << shift), scale * c


def _reach(e: tuple, support: list) -> int:
    """The largest k with a row on the column e, whose s-indices `support`
    lists ascending: below 2k, xi_k reaches only a smallest s-index j >= k
    of exponent 1, and no further one."""
    first = support[0]
    if e[first - 1] != 1:
        return first // 2
    return min(first, support[1] // 2) if len(support) > 1 else first


@lru_cache(maxsize=None)
def _reduced_components(n: int) -> MappingProxyType:
    """Per dual weight w = 4*(parts - n), for parts = 1..n in ascending
    order: (the number of s1^2 columns, the s1-free columns, descending, the
    positions among them of the family-(ii) leads), read-only because the
    result is cached.  A column is a partition of n as an exponent tuple
    over s_1..s_2n; the s1^2 columns of w are s1^2 times the partitions of
    n - 2 into parts - 2 parts, and only the s1-free ones are built."""
    free: dict[int, list[tuple]] = {}
    for lam in partitions(n):
        if lam[-1] >= 2:
            free.setdefault(len(lam), []).append(_partition_to_expo(lam, 2 * n))
    leads = set(_family_leads(n))
    out = {}
    for parts in range(1, n + 1):
        cols = tuple(sorted(free.get(parts, ()), reverse=True))
        out[4 * (parts - n)] = (partition_count_exact_parts(n - 2, parts - 2), cols,
                                tuple(i for i, e in enumerate(cols) if e in leads))
    return MappingProxyType(out)


_NO_COLUMNS = (0, (), ())


def _xi_blocks(n: int, weight: int, ks):
    """Yield, for each k of `ks`, the rows of xi_k on the s1-free columns of
    one component and their labels (k, label code), in generation order:
    the reduced system of the module docstring, without the rows of xi_1
    whose label is a polynomial.

    The rows are built at the scale 4^(n-k) (`_column_rows_for_k`), where
    every closed-form coefficient is an int, and each row is then divided by
    its power-of-two content, but by no more than that scale: so each row is
    exactly the rational row scaled by the lcm of its denominators, which
    are powers of two.
    """
    columns = _reduced_components(n).get(weight, _NO_COLUMNS)[1]
    supports = [[i + 1 for i, x in enumerate(e) if x] for e in columns]
    codes = [_label_code(e, n) for e in columns]
    reach = [_reach(e, s) for e, s in zip(columns, supports)]
    for k in ks:
        row_index: dict = {}
        rows: list[dict] = []
        for ci, e in enumerate(columns):
            if k > reach[ci]:
                continue
            for label, val in _column_rows_for_k(k, n, e, supports[ci], codes[ci]):
                ri = row_index.get(label)
                if ri is None:
                    ri = row_index[label] = len(rows)
                    rows.append({})
                row = rows[ri]
                row[ci] = row.get(ci, 0) + val
        rows_out, labels_out = [], []
        for row, label in zip(rows, row_index):
            if k == 1 and _polynomial_xi1(label, n):
                continue
            row = {c: x for c, x in row.items() if x}
            if row:
                g = math.gcd(*row.values())
                shift = min((g & -g).bit_length() - 1, 2 * (n - k))
                rows_out.append({c: x >> shift for c, x in row.items()})
                labels_out.append((k, label))
        yield rows_out, labels_out


def _check_zero_columns(n: int, weight: int, ks) -> None:
    """AssertionError unless every family-(ii) lead column of the component
    is zero in the reduced rows of each xi_k of `ks`, one column at a time;
    a k beyond the column's `_reach` has no row on it."""
    _squares, columns, zeros = _reduced_components(n).get(weight, _NO_COLUMNS)
    for z in zeros:
        e = columns[z]
        support = [i + 1 for i, x in enumerate(e) if x]
        code, reach = _label_code(e, n), _reach(e, support)
        for k in ks:
            if k > reach:
                continue
            entries: dict[int, int] = {}
            for label, val in _column_rows_for_k(k, n, e, support, code):
                if k > 1 or not _polynomial_xi1(label, n):
                    entries[label] = entries.get(label, 0) + val
            if any(entries.values()):
                raise AssertionError(f"family-(ii) lead column {z} of (n, w) = ({n}, {weight}) "
                                     f"is not zero in xi_{k}")


# -- known solution families ---------------------------------------------------

def family_generators(n: int) -> list[dict]:
    """The two explicit solution families in degree n, as {exponent tuple
    over s1..sn: Fraction} dicts.

    (i) s1^2 * m for every degree-(n-2) monomial m; (ii) for k >= 1 and every
    monomial g in s_2..s_{k+1} with deg(s_2^k s_{k+1} g) = n, the element
    s_2^k s_{k+1} g - s_1 * xi_1(s_2^k s_{k+1} g), which the restriction on g
    makes a polynomial rather than a Laurent polynomial.
    """
    from fractions import Fraction
    if n < 2:
        raise ValueError("families start at n = 2")
    out = []
    for lam in partitions(n - 2):
        expo = list(_partition_to_expo(lam, n))
        expo[0] += 2
        out.append({tuple(expo): Fraction(1)})
    return out + [_completed(n, {z: 1}) for z in _family_leads(n)]


def polynomial_text(terms: dict) -> str:
    """{exponent tuple over s1, s2, ...: Fraction} as text, such as
    ``-7/2*s1*s2^2*s5 + s2^3*s4``: terms descending by (degree, exponent
    tuple), deg s_i = i, a coefficient written unless it is 1 or -1."""
    if not terms:
        return "0"
    pieces = []
    for expo, c in sorted(terms.items(), reverse=True,
                          key=lambda kv: (sum(i * e for i, e in enumerate(kv[0], 1)), kv[0])):
        factors = [f"s{i}" if e == 1 else f"s{i}^{e}" for i, e in enumerate(expo, 1) if e]
        if abs(c) != 1 or not factors:
            factors.insert(0, str(abs(c)))
        pieces.append(("- " if c < 0 else "+ ") + "*".join(factors))
    text = " ".join(pieces)
    return text[2:] if text[0] == "+" else "-" + text[2:]


def _family_leads(n: int):
    """Yield the family-(ii) leading monomials s_2^k s_{k+1} g of degree n
    (k >= 1, g a monomial in s_2..s_{k+1}) as exponent tuples over
    s_1..s_2n; distinct, as k + 1 is their largest s-index."""
    for k in itertools.count(1):
        if 3 * k + 1 > n:
            return
        for lam in partitions(n - 3 * k - 1, k + 1):
            if all(part >= 2 for part in lam):
                expo = list(_partition_to_expo(lam, 2 * n))
                expo[1] += k
                expo[k] += 1
                yield tuple(expo)


def _completed(n: int, terms: dict) -> dict:
    """The kernel vector with s1-free part `terms` ({exponent tuple over
    s_1..s_2n: value}): x_{s1 m} = -(row m . x)/4^(n-1) for each xi_1 row
    with a polynomial label m (the module docstring's lemma), as
    {exponent tuple over s_1..s_n: Fraction}.  AssertionError unless the
    other xi_1 rows annihilate `terms`, as they do on the reduced kernel:
    else the completion would leave a Laurent polynomial."""
    from fractions import Fraction
    out = {e[:n]: Fraction(x) for e, x in terms.items()}
    laurent: dict = {}
    for e, x in terms.items():
        support = [i + 1 for i, a in enumerate(e) if a]
        for code, val in _column_rows_for_k(1, n, e, support, _label_code(e, n)):
            if _polynomial_xi1(code, n):
                s1m = _label(code + 1, n)[:n]
                out[s1m] = out.get(s1m, 0) - x * Fraction(val, 4 ** (n - 1))
            else:
                laurent[code] = laurent.get(code, 0) + x * val
    if any(laurent.values()):
        raise AssertionError("a completed vector failed to clear its denominator")
    return {e: x for e, x in out.items() if x}


# -- kernel computation ---------------------------------------------------------

class SolutionBasis(namedtuple("SolutionBasis", "columns weight_dims display")):
    """`columns`: dual weight -> reduced kernel basis over the s1-free
    columns, as integer vectors; `weight_dims` and `display`: the kernel's
    dimensions keyed by dual weight (nonpositive) and by display exponent -w/4."""

    __slots__ = ()


def kernel_dims(n: int, weight: int | None, columns: dict[int, list[dict]]) -> GradedDimensionTable:
    """The kernel's dimension per dual weight, given the reduced kernel
    basis `columns` (as in `SolutionBasis.columns`): the number of s1^2
    columns plus that of the basis vectors, over every component of degree
    n or over `weight`'s only."""
    return GradedDimensionTable(
        {w: squares + len(columns.get(w, ()))
         for w, (squares, _free, _zeros) in _reduced_components(n).items()
         if weight is None or w == weight},
        {"family": "D", "n": n, "grading": "dual-weight"})


def _component_kernel(n: int, weight: int, candidates: list[dict], prime: int) -> list[dict]:
    """Certified exact basis of the reduced kernel of one component, as
    column-coefficient dicts over its s1-free columns.

    The family-(ii) lead columns Z are first checked to be zero
    (`_check_zero_columns`).  The `_xi_blocks` of k = n down to 1 then
    stream into `certified_kernel` as they are built, each in reverse
    generation order (a quarter of the fill-in of generation order at
    n = 33, w = -104), with the rank bound |C0| - |Z|.  Reaching it
    certifies the basis {e_z}, and the blocks left are never built.
    Otherwise the basis is the `candidates` (a cached record's vectors)
    when `certified_kernel` accepts them, else the lifted one, which
    depends only on the rows and the prime.
    """
    ks = range(n, 0, -1)
    _check_zero_columns(n, weight, ks)
    _squares, columns, zeros = _reduced_components(n).get(weight, _NO_COLUMNS)
    basis = [{z: 1} for z in zeros]
    target = len(columns) - len(zeros)
    if target == 0:
        return basis
    rows = (row for block, _labels in _xi_blocks(n, weight, ks) for row in reversed(block))
    kernel = certified_kernel(rows, len(columns), target, prime, candidates)
    return basis if kernel is None else kernel


def kernel_basis(n: int, weight: int | None = None, *,
                 prime: int = DEFAULT_PRIME) -> SolutionBasis:
    """Exact kernel of the restricted xi_k constraints on degree-n polynomials.

    Returns the reduced basis per bigraded component (all dual weights, or
    just the requested one) together with the dimension tables.  n = 1
    yields the zero space.
    """
    if n < 1:
        raise ValueError("n >= 1 required")
    columns: dict[int, list[dict]] = {}
    for w in _reduced_components(n):
        if weight is not None and w != weight:
            continue
        basis = _component_kernel(n, w, [], prime)
        if basis:
            columns[w] = basis
    weight_dims = kernel_dims(n, weight, columns)
    return SolutionBasis(columns, weight_dims, display_table(weight_dims))


def recertifies(n: int, weight: int | None, columns: dict[int, list[dict]],
                prime: int = DEFAULT_PRIME) -> bool:
    """Whether `columns` (dual weight -> integer column-coefficient dicts
    over the s1-free columns, as in `SolutionBasis.columns`) are, component
    by component, the basis that `_component_kernel` certifies with them as
    candidates: over every component of degree n, or over `weight`'s only.

    This is the certificate of `kernel_basis` re-run, not a count against
    the bound |C0| - rank_p: at an unlucky prime that bound overstates the
    kernel, and `kernel_basis` returned the lifted basis, which re-running
    reproduces.
    """
    comps = _reduced_components(n)
    weights = list(comps) if weight is None else [weight]
    if not columns.keys() <= set(weights):
        return False
    if any(not 0 <= c < len(comps.get(w, _NO_COLUMNS)[1]) for w, vecs in columns.items()
           for vec in vecs for c in vec):
        return False
    return all(_component_kernel(n, w, columns.get(w, []), prime) == columns.get(w, [])
               for w in weights)


def display_table(weight_dims: GradedDimensionTable) -> GradedDimensionTable:
    """Re-key a dual-weight table by the display exponent -w/4."""
    return weight_dims.reindexed(lambda w: -w // 4, grading="display-exponent")
