"""Inviscid Burgers spot-check for the trace-space flow.

A curve h(t) of even series is invariant under the constraint flow iff
h_t = -(sqrt(h))_x; with u := 2 sqrt(h) this is the inviscid Burgers
equation with swapped roles of space and time,

    u_x + u * u_t = 0,

whose solutions are implicit: u = f(t - u x).  This module expands
solutions as exact bivariate series around a base point x0 != 0 and returns
the residual u_x + u * u_t, which must vanish identically to the truncation
order.  It is a verification aid only; nothing downstream consumes it.
"""

from __future__ import annotations

import math
from fractions import Fraction


def binom_half(m: int) -> Fraction:
    """Binomial coefficient C(1/2, m), exactly: the Taylor coefficients of
    sqrt(1+z) = 1 + z/2 - z^2/8 + ...."""
    num = Fraction(1)
    for i in range(m):
        num *= Fraction(1, 2) - i
    return num / math.factorial(m)


def rational_sqrt(c: Fraction) -> Fraction:
    """Positive square root of a perfect-square rational, else ValueError."""
    c = Fraction(c)
    if c < 0:
        raise ValueError("negative leading coefficient has no rational square root")
    rn = math.isqrt(c.numerator)
    rd = math.isqrt(c.denominator)
    if rn * rn != c.numerator or rd * rd != c.denominator:
        raise ValueError(f"{c} is not a perfect rational square")
    return Fraction(rn, rd)


class BiSeries:
    """Truncated bivariate series in (dx, t) with exact coefficients.

    Terms of total degree >= order are dropped; coefficients are rationals.
    """

    __slots__ = ("terms", "order")

    def __init__(self, terms: dict | None = None, order: int = 8):
        self.order = order
        self.terms = {}
        if terms:
            for (i, j), c in terms.items():
                if i + j < order and c:
                    self.terms[(i, j)] = Fraction(c)

    @classmethod
    def constant(cls, c, order: int) -> "BiSeries":
        return cls({(0, 0): Fraction(c)}, order)

    @classmethod
    def dx(cls, order: int) -> "BiSeries":
        return cls({(1, 0): Fraction(1)}, order)

    @classmethod
    def t(cls, order: int) -> "BiSeries":
        return cls({(0, 1): Fraction(1)}, order)

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = BiSeries.constant(other, self.order)
        out = dict(self.terms)
        for k, c in other.terms.items():
            s = out.get(k, Fraction(0)) + c
            if s:
                out[k] = s
            else:
                out.pop(k, None)
        r = BiSeries(None, min(self.order, other.order))
        r.terms = {k: c for k, c in out.items() if k[0] + k[1] < r.order}
        return r

    __radd__ = __add__

    def __neg__(self):
        r = BiSeries(None, self.order)
        r.terms = {k: -c for k, c in self.terms.items()}
        return r

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = BiSeries.constant(other, self.order)
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            r = BiSeries(None, self.order)
            c0 = Fraction(other)
            if c0:
                r.terms = {k: c * c0 for k, c in self.terms.items()}
            return r
        order = min(self.order, other.order)
        out: dict = {}
        for (i1, j1), c1 in self.terms.items():
            for (i2, j2), c2 in other.terms.items():
                i, j = i1 + i2, j1 + j2
                if i + j >= order:
                    continue
                k = (i, j)
                s = out.get(k, Fraction(0)) + c1 * c2
                if s:
                    out[k] = s
                else:
                    del out[k]
        r = BiSeries(None, order)
        r.terms = out
        return r

    __rmul__ = __mul__

    def diff_dx(self) -> "BiSeries":
        r = BiSeries(None, self.order)
        r.terms = {(i - 1, j): c * i for (i, j), c in self.terms.items() if i}
        return r

    def diff_t(self) -> "BiSeries":
        r = BiSeries(None, self.order)
        r.terms = {(i, j - 1): c * j for (i, j), c in self.terms.items() if j}
        return r

    def is_zero(self) -> bool:
        return not self.terms

    def truncate(self, order: int) -> "BiSeries":
        r = BiSeries(None, order)
        r.terms = {k: c for k, c in self.terms.items() if k[0] + k[1] < order}
        return r

    def __repr__(self):
        return f"<biseries {sorted(self.terms.items())}>"


def _sqrt_biseries(f: BiSeries, order: int) -> BiSeries:
    """Principal square root of a bivariate series with constant term a
    perfect rational square."""
    c0 = f.terms.get((0, 0), Fraction(0))
    root = rational_sqrt(c0)
    if root == 0:
        raise ValueError("square root needs a nonzero constant term here")
    z = (f - c0) * (Fraction(1) / c0)
    acc = BiSeries.constant(0, order)
    power = BiSeries.constant(1, order)
    for m in range(order + 1):
        if m:
            power = power * z
            if power.is_zero():
                break
        acc = acc + power * binom_half(m)
    return acc * root


def closed_form_witness(order: int, x0=Fraction(1)) -> BiSeries:
    """u(x, t) = (x + sqrt(x^2 - 4t)) / 2 expanded around (x0, 0).

    Carries two guard orders so that the residual is trustworthy through
    total degree `order`.
    """
    x0 = Fraction(x0)
    if x0 == 0:
        raise ValueError("base point must be nonzero")
    work = order + 2
    x = BiSeries.dx(work) + x0
    inside = x * x - 4 * BiSeries.t(work)
    return (x + _sqrt_biseries(inside, work)) * Fraction(1, 2)


def burgers_residual_of(u: BiSeries) -> BiSeries:
    """u_x + u * u_t, the defect of the swapped-variable Burgers equation.

    The top truncation degree of u contributes incomplete derivative data,
    so the residual is reported one total order lower.
    """
    r = u.diff_dx() + u * u.diff_t()
    return r.truncate(max(u.order - 1, 1))


def _compose_univariate(coeffs: list[Fraction], inner: BiSeries) -> BiSeries:
    """sum coeffs[m] * inner^m for inner with zero constant term."""
    if inner.terms.get((0, 0)):
        raise ValueError("inner series must have zero constant term")
    order = inner.order
    acc = BiSeries.constant(coeffs[0], order)
    power = BiSeries.constant(1, order)
    for m in range(1, len(coeffs)):
        power = power * inner
        if power.is_zero():
            break
        acc = acc + power * coeffs[m]
    return acc


def _series_inverse(coeffs: list[Fraction], order: int) -> list[Fraction]:
    """Compositional inverse of sum_{m>=1} coeffs[m] z^m (coeffs[0] = 0)."""
    if coeffs[0] != 0 or len(coeffs) < 2 or coeffs[1] == 0:
        raise ValueError("need a series with zero constant term and invertible slope")
    inv = [Fraction(0), Fraction(1) / coeffs[1]]
    for m in range(2, order + 1):
        # choose inv_m so the z^m coefficient of coeffs(inv(z)) vanishes
        val = _univariate_compose(coeffs, inv + [Fraction(0)], m)
        inv.append(-val / coeffs[1])
    return inv[: order + 1]


def _univariate_compose(outer: list[Fraction], inner: list[Fraction], at: int) -> Fraction:
    """Coefficient of z^at in outer(inner(z)), inner(0) = 0."""
    order = at + 1
    acc = [Fraction(0)] * order
    acc[0] = outer[0]
    power = [Fraction(0)] * order
    power[0] = Fraction(1)
    for m in range(1, min(len(outer), order)):
        nxt = [Fraction(0)] * order
        for i, c in enumerate(power):
            if not c:
                continue
            for j in range(1, min(len(inner), order - i)):
                nxt[i + j] += c * inner[j]
        power = nxt
        if outer[m]:
            for i, c in enumerate(power):
                acc[i] += outer[m] * c
        if all(c == 0 for c in power):
            break
    return acc[at]


def burgers_residual(h0: list, order: int, x0=Fraction(1)) -> BiSeries:
    """Residual of the flow started from h(0) = h0 in C^* x^2 + x^4 C[[x^2]],
    given as its list of coefficients of x^0, x^2, x^4, ....

    Builds u = 2 sqrt(h) as a series in (x - x0, t) by solving the implicit
    relation u = f(t - u x), where f matches the initial slice u(x, 0) =
    2 sqrt(h0); returns u_x + u u_t truncated at the requested total order.
    Requires h0(x0) to be a nonzero perfect rational square.
    """
    coeffs = [Fraction(c) for c in h0]
    if len(coeffs) < 2 or coeffs[1] == 0:
        raise ValueError("leading x^2 coefficient must be nonzero")
    x0 = Fraction(x0)
    if x0 == 0:
        raise ValueError("base point must be nonzero")
    work = order + 2
    # u0(dx) = 2 sqrt(h0(x0 + dx)) as a univariate series in dx
    h_shift = BiSeries(None, work)
    x = BiSeries.dx(work) + x0
    xx = x * x
    pw = BiSeries.constant(1, work)
    for i, c in enumerate(coeffs):
        if i:
            pw = pw * xx
        if c:
            h_shift = h_shift + pw * c
    u0 = _sqrt_biseries(h_shift, work) * 2
    u0_coeffs = [u0.terms.get((i, 0), Fraction(0)) for i in range(work)]
    # psi(dx) = -(x0 + dx) * u0(dx); f = u0 o psi^{-1} around psi(0)
    psi = [-(x0 * u0_coeffs[0])]
    for i in range(1, work):
        psi.append(-(x0 * u0_coeffs[i] + u0_coeffs[i - 1]))
    psi0 = psi[0]
    psi_shift = [Fraction(0)] + psi[1:]
    rho = _series_inverse(psi_shift, work)
    f_coeffs = [_univariate_compose(u0_coeffs, rho, m) for m in range(work)]
    # solve u = f(t - u x - psi0) degree by degree: a degree-D defect is
    # removed by dividing by the linearization constant 1 + x0 f'(0)
    cstar = Fraction(1) + x0 * f_coeffs[1]
    if cstar == 0:
        raise ValueError("degenerate implicit relation at the base point")
    u = BiSeries.constant(u0_coeffs[0], work)
    x_full = BiSeries.dx(work) + x0
    for deg in range(1, work):
        arg = BiSeries.t(work) - u * x_full - psi0
        defect = u - _compose_univariate(f_coeffs, arg)
        correction = BiSeries(
            {k: -c / cstar for k, c in defect.terms.items() if k[0] + k[1] == deg},
            work)
        u = u + correction
    return burgers_residual_of(u).truncate(order)
