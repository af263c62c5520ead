"""Sparse multivariate polynomials with exact rational coefficients.

Terms live in a hash map keyed by dense exponent tuples; a canonical
graded-lex ordering is imposed only when printing, so hot loops never pay
for ordered storage.  Laurent behaviour (negative exponents) is permitted in
exactly one declared variable per context, the localization variable.

`SparsePolynomial.text` is a display form only (`typed families` prints it):
terms sorted graded-lex descending, rational coefficients printed
explicitly, e.g. ``3/2*s2^-1*s3``.  Nothing parses it back; the cache
stores integer column vectors instead.
"""

from __future__ import annotations

from fractions import Fraction

from ptl.context import VariableContext


def _as_scalar(c) -> Fraction:
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return Fraction(c)
    if isinstance(c, str):
        return Fraction(c)
    raise TypeError(f"not an exact scalar: {c!r}")


class SparsePolynomial:
    """Finitely supported map from exponent vectors to exact rationals."""

    __slots__ = ("context", "terms")

    def __init__(self, context: VariableContext, terms=None):
        self.context = context
        tt = {}
        if terms:
            for expo, coeff in (terms.items() if isinstance(terms, dict) else terms):
                c = _as_scalar(coeff)
                if c == 0:
                    continue
                expo = tuple(expo)
                prev = tt.get(expo)
                if prev is None:
                    tt[expo] = c
                else:
                    s = prev + c
                    if s:
                        tt[expo] = s
                    else:
                        del tt[expo]
        self.terms = tt
        self._validate()

    def _validate(self):
        arity = self.context.arity
        loc = self.context.localized
        for expo in self.terms:
            if len(expo) != arity:
                raise ValueError(f"exponent vector {expo} does not match arity {arity}")
            for i, e in enumerate(expo):
                if e < 0 and i != loc:
                    raise ValueError(
                        f"negative exponent in non-localized variable {self.context.names[i]}")

    @classmethod
    def _raw(cls, context: VariableContext, terms: dict) -> "SparsePolynomial":
        p = object.__new__(cls)
        p.context = context
        p.terms = terms
        return p

    @classmethod
    def zero(cls, context: VariableContext) -> "SparsePolynomial":
        return cls._raw(context, {})

    @classmethod
    def constant(cls, context: VariableContext, c) -> "SparsePolynomial":
        c = _as_scalar(c)
        if c == 0:
            return cls.zero(context)
        return cls._raw(context, {(0,) * context.arity: c})

    @classmethod
    def variable(cls, context: VariableContext, name: str, exponent: int = 1) -> "SparsePolynomial":
        i = context.var_index(name)
        if exponent < 0 and i != context.localized:
            raise ValueError(f"negative exponent in non-localized variable {name}")
        expo = [0] * context.arity
        expo[i] = exponent
        return cls._raw(context, {tuple(expo): Fraction(1)})

    # -- ring structure -------------------------------------------------

    def _check_context(self, other: "SparsePolynomial"):
        if self.context is not other.context and self.context != other.context:
            raise ValueError("context mismatch")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = SparsePolynomial.constant(self.context, other)
        self._check_context(other)
        out = dict(self.terms)
        for expo, c in other.terms.items():
            s = out.get(expo, 0) + c
            if s:
                out[expo] = s
            else:
                out.pop(expo, None)
        return SparsePolynomial._raw(self.context, out)

    __radd__ = __add__

    def __neg__(self):
        return SparsePolynomial._raw(self.context, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = SparsePolynomial.constant(self.context, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = _as_scalar(other)
            if c == 0:
                return SparsePolynomial.zero(self.context)
            return SparsePolynomial._raw(
                self.context, {e: cc * c for e, cc in self.terms.items()})
        self._check_context(other)
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                s = out.get(e, 0) + c1 * c2
                if s:
                    out[e] = s
                else:
                    del out[e]
        return SparsePolynomial._raw(self.context, out)

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = SparsePolynomial.constant(self.context, other)
        if not isinstance(other, SparsePolynomial):
            return NotImplemented
        return self.context == other.context and self.terms == other.terms

    def __bool__(self):
        return bool(self.terms)

    def __hash__(self):
        return hash((self.context.names, frozenset(self.terms.items())))

    # -- calculus ------------------------------------------------------

    def derivative(self, name: str) -> "SparsePolynomial":
        """Partial derivative; for the localized variable this is the Laurent d/dv."""
        i = self.context.var_index(name)
        out = {}
        for expo, c in self.terms.items():
            e = expo[i]
            if e == 0:
                continue
            new = expo[:i] + (e - 1,) + expo[i + 1:]
            if e - 1 < 0 and i != self.context.localized:
                raise ValueError("derivative would create a negative exponent")
            s = out.get(new, 0) + c * e
            if s:
                out[new] = s
            else:
                del out[new]
        return SparsePolynomial._raw(self.context, out)

    # -- canonical text form ----------------------------------------------

    def sorted_terms(self):
        """Terms in descending graded-lex order (leading term first)."""
        ctx = self.context
        return sorted(self.terms.items(),
                      key=lambda kv: (ctx.degree_of(kv[0]), kv[0]), reverse=True)

    def text(self) -> str:
        if not self.terms:
            return "0"
        pieces = []
        for expo, c in self.sorted_terms():
            factors = []
            for name, e in zip(self.context.names, expo):
                if e == 0:
                    continue
                factors.append(name if e == 1 else f"{name}^{e}")
            mag = abs(c)
            if not factors:
                body = str(mag)
            elif mag == 1:
                body = "*".join(factors)
            else:
                body = str(mag) + "*" + "*".join(factors)
            pieces.append((c < 0, body))
        first_neg, first_body = pieces[0]
        out = ("-" if first_neg else "") + first_body
        for neg, body in pieces[1:]:
            out += (" - " if neg else " + ") + body
        return out

    def __repr__(self):
        return f"<poly {self.text()}>"
