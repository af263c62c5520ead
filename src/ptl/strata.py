"""Symplectic-leaf indexing and multiplicity bookkeeping.

Only the combinatorial shadow of the module decompositions is represented:
labels, codimensions and integer multiplicities.  Stabilizer groups are
recorded as textual labels, never as computed group objects.  Codimensions
are reported both in units of the base dimension and absolutely.
"""

from __future__ import annotations

from collections import namedtuple

from ptl.partitions import multipartition_count, partitions


class LeafDescriptor(namedtuple("LeafDescriptor", "label point_part partition codim_units "
                                "codim_absolute multiplicity stabilizer", defaults=("",))):
    """A leaf: `point_part` r coordinates pinned at the origin, the
    `partition` of diagonal cell sizes, its codimension in units of dim Y
    and absolutely, its multiplicity and a textual stabilizer label."""

    __slots__ = ()

    def to_json_dict(self) -> dict:
        return {
            "label": self.label,
            "r": self.point_part,
            "partition": list(self.partition),
            "codim_units": self.codim_units,
            "codim_absolute": self.codim_absolute,
            "multiplicity": self.multiplicity,
            "stabilizer": self.stabilizer,
        }


def _cell_label(lam: tuple[int, ...]) -> str:
    return "{" + ",".join(str(p) for p in lam) + "}" if lam else "{}"


def leaves_symmetric_power(n: int, dim_y: int) -> list[LeafDescriptor]:
    """One leaf per partition of n; codimension (n - #parts) * dim Y.

    Every codimension is a multiple of dim Y and every multiplicity is 1.
    """
    if n < 1 or dim_y < 2 or dim_y % 2:
        raise ValueError("need n >= 1 and even dim_y >= 2")
    out = []
    for lam in partitions(n):
        units = n - len(lam)
        out.append(LeafDescriptor(
            label=_cell_label(lam),
            point_part=0,
            partition=lam,
            codim_units=units,
            codim_absolute=units * dim_y,
            multiplicity=1,
            stabilizer=" x ".join(f"S_{i}^{lam.count(i)} x S_{lam.count(i)}"
                                  for i in sorted(set(lam))),
        ))
    return out


def leaves_kleinian(n: int, m: int) -> list[LeafDescriptor]:
    """Leaves of the n-th symmetric power of a Kleinian quotient C^2/G.

    Indexed by (r, lambda) with r + |lambda| = n; the multiplicity of the
    (r, lambda) leaf is the number of m-multipartitions of r, where m counts
    the nontrivial irreducibles of G.
    """
    if n < 1 or m < 0:
        raise ValueError("need n >= 1 and m >= 0")
    out = []
    for r in range(n + 1):
        for lam in partitions(n - r):
            units = n - len(lam)  # r pinned points plus diagonal collapsing
            out.append(LeafDescriptor(
                label=f"(r={r}; {_cell_label(lam)})",
                point_part=r,
                partition=lam,
                codim_units=units,
                codim_absolute=2 * units,
                multiplicity=multipartition_count(r, m),
            ))
    return out


def leaves_type_d(n: int, d: tuple | list) -> list[LeafDescriptor]:
    """Leaves of the type-D quotient C^{2n}/D_n with trace-space multiplicities.

    Type (i): a pinned block of size r and a partition of n - r of diagonal
    cells, with multiplicity d_r (the degree-r trace-space dimension from the
    typed solver; descriptors with d_r = 0 are omitted).  Type (ii): one
    leaf per all-even partition of n, multiplicity 1, the first diagonal
    cell carrying the sign-twisted embedding.
    """
    if n < 2:
        raise ValueError("n >= 2 required")
    if len(d) < n + 1:
        raise ValueError("need d_0..d_n")
    out = []
    for r in range(n + 1):
        if d[r] == 0:
            continue
        for lam in partitions(n - r):
            units = n - len(lam)
            out.append(LeafDescriptor(
                label=f"(i) (r={r}; {_cell_label(lam)})",
                point_part=r,
                partition=lam,
                codim_units=units,
                codim_absolute=2 * units,
                multiplicity=int(d[r]),
                stabilizer="D_r x prod (+-S_i)^{r_i} x| S_{r_i}",
            ))
    for lam in partitions(n):
        if lam and all(p % 2 == 0 for p in lam):
            units = n - len(lam)
            out.append(LeafDescriptor(
                label=f"(ii) {_cell_label(lam)}",
                point_part=0,
                partition=lam,
                codim_units=units,
                codim_absolute=2 * units,
                multiplicity=1,
                stabilizer="prod (+-S_i)^{r_i} x| S_{r_i} (first factor sign-twisted)",
            ))
    return out
