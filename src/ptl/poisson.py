"""Poisson brackets for the two constant symplectic structures in play.

* ``darboux(n)``: {x_i, y_j} = delta_ij on C^{2n}.
* ``reflection(n)``: the structure induced on the zero-sum hyperplane pair
  (the reflection representation of the symmetric group and its dual) after
  eliminating the last coordinate: on surviving variables x1..x_{n-1},
  y1..y_{n-1} the bracket is {x_i, y_j} = delta_ij - 1/n.

Both brackets have constant coefficients, so the Jacobi identity is
automatic and brackets of homogeneous elements of degrees a, b are
homogeneous of degree a + b - 2.  All operations are pure functions over
immutable inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import add

from ptl.context import VariableContext, darboux_context
from ptl.poly import SparsePolynomial


@dataclass(frozen=True)
class PoissonStructure:
    kind: str          # "darboux" | "reflection"
    n: int             # darboux: number of Darboux pairs; reflection: rank of S_n
    context: VariableContext

    @property
    def pairs(self) -> int:
        """Number of surviving (x_i, y_i) variable pairs."""
        return self.n if self.kind == "darboux" else self.n - 1

    def bracket_xy(self, i: int, j: int) -> Fraction:
        """{x_i, y_j} for 1-based i, j among the surviving pairs."""
        delta = Fraction(1) if i == j else Fraction(0)
        if self.kind == "darboux":
            return delta
        return delta - Fraction(1, self.n)


def darboux_structure(n: int) -> PoissonStructure:
    return PoissonStructure("darboux", n, darboux_context(n))


def reflection_structure(n: int) -> PoissonStructure:
    """Eliminated-coordinate realization of the rank-(n-1) reflection pair."""
    if n < 2:
        raise ValueError("reflection structure needs n >= 2")
    return PoissonStructure("reflection", n, darboux_context(n - 1))


def _partials(f: SparsePolynomial, m: int):
    names = f.context.names
    fx = [f.derivative(names[i]) for i in range(m)]
    fy = [f.derivative(names[m + i]) for i in range(m)]
    return fx, fy


def poisson_bracket(f: SparsePolynomial, g: SparsePolynomial,
                    P: PoissonStructure) -> SparsePolynomial:
    """{f, g} under P; bilinear, antisymmetric, Leibniz, Jacobi."""
    if f.context != P.context or g.context != P.context:
        raise ValueError("context mismatch with the Poisson structure")
    m = P.pairs
    fx, fy = _partials(f, m)
    gx, gy = _partials(g, m)
    out = SparsePolynomial.zero(P.context)
    for i in range(m):
        out = out + fx[i] * gy[i] - fy[i] * gx[i]
    if P.kind == "reflection":
        sum_fx = sum(fx[1:], fx[0]) if m else SparsePolynomial.zero(P.context)
        sum_fy = sum(fy[1:], fy[0]) if m else SparsePolynomial.zero(P.context)
        sum_gx = sum(gx[1:], gx[0]) if m else SparsePolynomial.zero(P.context)
        sum_gy = sum(gy[1:], gy[0]) if m else SparsePolynomial.zero(P.context)
        corr = sum_fx * sum_gy - sum_fy * sum_gx
        out = out - corr * Fraction(1, P.n)
    return out


def sl2_generators(P: PoissonStructure):
    """The invariant quadratics (E, F, H) = (sum x_i^2, sum y_i^2, sum x_i y_i).

    For the reflection structure these are the images of the rank-n sums
    under eliminating x_n = -(x_1 + ... + x_{n-1}) and likewise for y.
    """
    ctx = P.context
    m = P.pairs
    xs = [SparsePolynomial.variable(ctx, ctx.names[i]) for i in range(m)]
    ys = [SparsePolynomial.variable(ctx, ctx.names[m + i]) for i in range(m)]
    E = SparsePolynomial.zero(ctx)
    F = SparsePolynomial.zero(ctx)
    H = SparsePolynomial.zero(ctx)
    for i in range(m):
        E = E + xs[i] * xs[i]
        F = F + ys[i] * ys[i]
        H = H + xs[i] * ys[i]
    if P.kind == "reflection":
        sx = sum(xs[1:], xs[0])
        sy = sum(ys[1:], ys[0])
        E = E + sx * sx
        F = F + sy * sy
        H = H + sx * sy
    return E, F, H


# -- raw fast paths (integer coefficients, dict-of-tuples representation) --
#
# The bracket-span engine works on plain {exponent-tuple: int} dicts.  For
# the reflection structure the returned dict is the bracket scaled by n to
# stay integral; spans and ranks are insensitive to the overall scale.

def raw_bracket_darboux(fd: dict, gd: dict, m: int) -> dict:
    out = {}
    for e1, c1 in fd.items():
        # only indices where e1 has a variable can contribute
        active = [(i, e1[i], e1[m + i]) for i in range(m) if e1[i] or e1[m + i]]
        for e2, c2 in gd.items():
            base = None
            for i, a, b in active:
                w = a * e2[m + i] - b * e2[i]
                if not w:
                    continue
                if base is None:
                    base = list(map(add, e1, e2))
                base[i] -= 1
                base[m + i] -= 1
                key = tuple(base)
                base[i] += 1
                base[m + i] += 1
                s = out.get(key, 0) + c1 * c2 * w
                if s:
                    out[key] = s
                else:
                    del out[key]
    return out


def _raw_partial_sums(fd: dict, m: int):
    """(sum_i d/dx_i, sum_i d/dy_i) of a raw dict."""
    dx: dict = {}
    dy: dict = {}
    for e, c in fd.items():
        for i in range(m):
            a = e[i]
            if a:
                k = e[:i] + (a - 1,) + e[i + 1:]
                s = dx.get(k, 0) + c * a
                if s:
                    dx[k] = s
                else:
                    del dx[k]
            b = e[m + i]
            if b:
                k = e[:m + i] + (b - 1,) + e[m + i + 1:]
                s = dy.get(k, 0) + c * b
                if s:
                    dy[k] = s
                else:
                    del dy[k]
    return dx, dy


def _raw_mul(ad: dict, bd: dict) -> dict:
    out: dict = {}
    for e1, c1 in ad.items():
        for e2, c2 in bd.items():
            key = tuple(a + b for a, b in zip(e1, e2))
            s = out.get(key, 0) + c1 * c2
            if s:
                out[key] = s
            else:
                del out[key]
    return out


def raw_bracket_reflection_scaled(fd: dict, gd: dict, m: int, n: int) -> dict:
    """n * {f, g} for the reflection structure on m = n-1 pairs (integer)."""
    out = {k: n * c for k, c in raw_bracket_darboux(fd, gd, m).items()}
    fdx, fdy = _raw_partial_sums(fd, m)
    gdx, gdy = _raw_partial_sums(gd, m)
    for part, sign in ((_raw_mul(fdx, gdy), -1), (_raw_mul(fdy, gdx), 1)):
        for k, c in part.items():
            s = out.get(k, 0) + sign * c
            if s:
                out[k] = s
            else:
                del out[k]
    return out


def raw_bracket(fd: dict, gd: dict, P: PoissonStructure) -> dict:
    """Integer-coefficient bracket; reflection results carry a global scale n."""
    if P.kind == "darboux":
        return raw_bracket_darboux(fd, gd, P.pairs)
    return raw_bracket_reflection_scaled(fd, gd, P.pairs, P.n)
