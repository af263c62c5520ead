"""Inviscid Burgers spot-check for the trace-space flow.

A curve h(t) of even series is invariant under the constraint flow iff
h_t = -(sqrt(h))_x; with u := 2 sqrt(h) this is the inviscid Burgers
equation with swapped roles of space and time,

    u_x + u * u_t = 0,

whose solutions are implicit: u = f(t - u x).  This module expands
solutions as exact bivariate series around a base point x0 != 0 and returns
the residual u_x + u * u_t, which must vanish identically below the
truncation order.  It is a verification aid only; nothing downstream
consumes it.

A series in (dx, t) = (x - x0, t) is a dict {(i, j): Fraction} of the
coefficients of dx^i t^j, zero terms dropped; every operation takes the
order below which it keeps terms of total degree i + j.  One guard order
suffices: the residual below degree d reads u only below degree d + 1
(u_x and u_t lower the degree by one, and u * u_t is exact below d once u
and u_t are), so u is expanded below order + 1.
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


def _add(a: dict, b: dict, scale=1) -> dict:
    """a + scale * b, zero terms dropped."""
    out = dict(a)
    for k, c in b.items():
        s = out.get(k, 0) + scale * c
        if s:
            out[k] = s
        else:
            out.pop(k, None)
    return out


def _mul(a: dict, b: dict, order: int) -> dict:
    """a * b below total degree `order`."""
    out: dict = {}
    for (i1, j1), c1 in a.items():
        for (i2, j2), c2 in b.items():
            if i1 + i2 + j1 + j2 < order:
                k = (i1 + i2, j1 + j2)
                out[k] = out.get(k, 0) + c1 * c2
    return {k: c for k, c in out.items() if c}


def _diff(a: dict, var: int) -> dict:
    """The derivative by dx (var 0) or by t (var 1)."""
    di, dj = (1, 0) if var == 0 else (0, 1)
    return {(i - di, j - dj): c * (i * di + j * dj)
            for (i, j), c in a.items() if i * di + j * dj}


def _compose(coeffs: list, inner: dict, order: int) -> dict:
    """sum_m coeffs[m] * inner^m below total degree `order`."""
    acc: dict = {}
    power = {(0, 0): Fraction(1)}
    for m, c in enumerate(coeffs):
        if m:
            power = _mul(power, inner, order)
            if not power:
                break
        if c:
            acc = _add(acc, power, c)
    return acc


def _sqrt(f: dict, order: int) -> dict:
    """Principal square root of a series whose constant term c0 is a nonzero
    perfect rational square: root(c0) * sqrt(1 + (f - c0) / c0)."""
    c0 = Fraction(f.get((0, 0), 0))
    root = rational_sqrt(c0)
    if root == 0:
        raise ValueError("square root needs a nonzero constant term here")
    z = {k: c / c0 for k, c in f.items() if k != (0, 0)}
    return {k: root * c
            for k, c in _compose([binom_half(m) for m in range(order)], z, order).items()}


def burgers_residual_of(u: dict, order: int) -> dict:
    """u_x + u * u_t below total degree `order`, the defect of the
    swapped-variable Burgers equation; exact when u is (module docstring)
    below order + 1."""
    r = _add(_diff(u, 0), _mul(u, _diff(u, 1), order))
    return {k: c for k, c in r.items() if k[0] + k[1] < order}


def _base(x0) -> Fraction:
    """The base point x0 as a rational, which must be nonzero."""
    x0 = Fraction(x0)
    if x0 == 0:
        raise ValueError("base point must be nonzero")
    return x0


def closed_form_residual(order: int, x0=Fraction(1)) -> dict:
    """The residual below `order` of u(x, t) = (x + sqrt(x^2 - 4t)) / 2,
    expanded around (x0, 0)."""
    work = order + 1
    x = {(0, 0): _base(x0), (1, 0): Fraction(1)}
    inside = _add(_mul(x, x, work), {(0, 1): Fraction(1)}, -4)
    u = {k: c / 2 for k, c in _add(x, _sqrt(inside, work)).items()}
    return burgers_residual_of(u, order)


def burgers_residual(h0: list, order: int, x0=Fraction(1)) -> dict:
    """Residual below `order` of the flow started from h(0) = h0 in
    C^* x^2 + x^4 C[[x^2]], given as its list of coefficients of x^0, x^2,
    x^4, ....

    Builds u = 2 sqrt(h) as a series in (x - x0, t) by solving the implicit
    relation u = f(t - u x - psi0), where f matches the initial slice
    u0(dx) = u(x0 + dx, 0) = 2 sqrt(h0(x0 + dx)).  Requires h0(x0) to be a
    nonzero perfect rational square.
    """
    coeffs = [Fraction(c) for c in h0]
    if len(coeffs) < 2 or coeffs[1] == 0:
        raise ValueError("leading x^2 coefficient must be nonzero")
    x0 = _base(x0)
    work = order + 1
    x = {(0, 0): x0, (1, 0): Fraction(1)}
    root = _sqrt(_compose(coeffs, _mul(x, x, work), work), work)
    u0 = [2 * root.get((i, 0), 0) for i in range(work)]
    # psi(dx) = -(x0 + dx) * u0(dx); f(psi(dx) - psi0) = u0(dx) is solved
    # for f_m triangularly, since (psi - psi0)^k starts at psi1^k dx^k
    psi = [-x0 * u0[0]] + [-(x0 * u0[i] + u0[i - 1]) for i in range(1, work)]
    if psi[1] == 0:
        raise ValueError("need a series with zero constant term and invertible slope")
    shift = {(i, 0): c for i, c in enumerate(psi) if i and c}
    powers = [{(0, 0): Fraction(1)}]
    for _ in range(1, work):
        powers.append(_mul(powers[-1], shift, work))
    f: list[Fraction] = []
    for m in range(work):
        known = sum(fk * powers[k].get((m, 0), 0) for k, fk in enumerate(f))
        f.append((u0[m] - known) / psi[1] ** m)
    # solve u = f(t - u x - psi0) degree by degree: a degree-D defect is
    # removed by dividing by the linearization constant 1 + x0 f'(0), and
    # the terms below degree D + 1 are all that degree D reads
    cstar = 1 + x0 * f[1]
    if cstar == 0:
        raise ValueError("degenerate implicit relation at the base point")
    u = {(0, 0): u0[0]}
    t_shift = {(0, 0): -psi[0], (0, 1): Fraction(1)}
    for deg in range(1, work):
        arg = _add(t_shift, _mul(u, x, deg + 1), -1)
        defect = _add(u, _compose(f, arg, deg + 1), -1)
        u = _add(u, {k: -c / cstar for k, c in defect.items() if k[0] + k[1] == deg})
    return burgers_residual_of(u, order)
