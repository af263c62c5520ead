"""Graded dimension tables: the Hilbert-series currency of the package.

A table maps a grading key (polynomial degree, dual weight, or display
exponent, as recorded in its metadata) to a nonnegative dimension.  Only
nonzero entries are stored; serialization is in ascending key order.  The
display convention for the type-D tables writes the exponent
n - (number of s-factors) = -(dual weight)/4, i.e. the series variable is
t^(1/4) in terms of polynomial degree.
"""

from __future__ import annotations


class GradedDimensionTable:
    """Nonzero `entries` {key: dimension} and free-form `metadata`; two
    tables are equal when their entries are."""

    def __init__(self, entries: dict | None = None, metadata: dict | None = None):
        self.entries = {int(k): int(v) for k, v in (entries or {}).items() if int(v) != 0}
        self.metadata = {} if metadata is None else metadata

    def __repr__(self):
        return f"GradedDimensionTable({self.entries!r}, {self.metadata!r})"

    def items(self):
        return sorted(self.entries.items())

    def __eq__(self, other):
        if not isinstance(other, GradedDimensionTable):
            return NotImplemented
        return self.entries == other.entries

    def reindexed(self, fn, **meta) -> "GradedDimensionTable":
        out = {}
        for k, v in self.entries.items():
            nk = fn(k)
            out[nk] = out.get(nk, 0) + v
        md = dict(self.metadata)
        md.update(meta)
        return GradedDimensionTable(out, md)

    def to_json_dict(self) -> dict:
        out = dict(self.metadata)
        out["dims"] = {str(k): v for k, v in self.items()}
        return out

    def series(self, var: str = "t", latex: bool = False) -> str:
        """Polynomial display, ascending exponents: ``1 + t + 2*t^2``."""
        if not self.entries:
            return "0"
        parts = []
        for e, c in self.items():
            if e == 0:
                parts.append(str(c))
            else:
                if latex:
                    power = var if e == 1 else f"{var}^{{{e}}}"
                    parts.append(power if c == 1 else f"{c}{power}")
                else:
                    power = var if e == 1 else f"{var}^{e}"
                    parts.append(power if c == 1 else f"{c}*{power}")
        return " + ".join(parts)
