"""Variable contexts: named variables with a fixed grading.

A context pins down the ambient polynomial ring once, so that every
polynomial carries its grading data and arity checks are cheap.  Two kinds
are used:

* ``darboux(n)`` -- variables x1..xn, y1..yn, each of degree 1.  Also used
  (with a smaller pair count) for the coordinates that survive eliminating
  the last coordinate of the reflection representation.
* s-variables s1..sN -- si has degree i.

Exponent vectors are dense tuples of ints matching the context arity.
Negative exponents are legal only in the single declared localized variable.
Contexts are immutable and safe to share between threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class VariableContext:
    kind: str
    names: tuple[str, ...]
    degrees: tuple[int, ...]
    localized: int | None = None  # index of the one variable allowed negative exponents
    _index: dict = field(default=None, repr=False, compare=False, hash=False)

    def __post_init__(self):
        if len(set(self.names)) != len(self.names):
            raise ValueError("variable names must be unique")
        if len(self.degrees) != len(self.names):
            raise ValueError("grading data must match arity")
        object.__setattr__(self, "_index", {v: i for i, v in enumerate(self.names)})

    @property
    def arity(self) -> int:
        return len(self.names)

    def var_index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise KeyError(f"unknown variable {name!r} in {self.kind} context") from None

    def degree_of(self, exponents) -> int:
        return sum(e * d for e, d in zip(exponents, self.degrees))


def darboux_context(n: int) -> VariableContext:
    """Context for C^{2n} with variables x1..xn, y1..yn, all of degree 1."""
    if n < 1:
        raise ValueError("darboux context needs n >= 1")
    names = tuple(f"x{i}" for i in range(1, n + 1)) + tuple(
        f"y{i}" for i in range(1, n + 1))
    ones = (1,) * (2 * n)
    return VariableContext("darboux", names, ones)


def svar_context(nmax: int, localized_at: int | None = None) -> VariableContext:
    """Context for s1..s_nmax; deg(si) = i.

    `localized_at` optionally declares s_{localized_at} as the localization
    variable (1-based index).
    """
    if nmax < 1:
        raise ValueError("svar context needs nmax >= 1")
    names = tuple(f"s{i}" for i in range(1, nmax + 1))
    degrees = tuple(range(1, nmax + 1))
    loc = None if localized_at is None else localized_at - 1
    if loc is not None and not (0 <= loc < nmax):
        raise ValueError("localized variable out of range")
    return VariableContext("svars", names, degrees, localized=loc)
