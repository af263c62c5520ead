"""Exact computation of Poisson trace spaces on Weyl-group quotient singularities.

All arithmetic is exact: coefficients are arbitrary-precision rationals,
dimension counts are certified integers.  The two independent computational
routes (a typed constraint solver on the ring C[s1, s2, ...] and a brute-force
bracket-span engine over invariant rings) are cross-checked against each other
and against closed-form partition combinatorics.
"""

import importlib

__version__ = "0.1.0"

# public name -> the module that defines it; each module is imported on the
# first access to one of its names (PEP 562), so that `import ptl.cli` and
# each CLI command load only the modules they use
_SOURCES = {
    "PoissonStructure": "poisson",
    "GroupSpec": "weyl",
    "hh0_dimension": "partitions",
    "GradedDimensionTable": "tables",
    "BracketSpanProblem": "engine",
    "hp0_graded_dims": "engine",
    "check_aminus_identity": "engine",
    "kernel_basis": "solver",
    "family_generators": "solver",
    "multipartition_count": "partitions",
    "p_count": "partitions",
    "p_prime_count": "partitions",
    "bn_hilbert": "partitions",
    "prime_bound": "partitions",
    "LeafDescriptor": "strata",
    "leaves_symmetric_power": "strata",
    "leaves_kleinian": "strata",
    "leaves_type_d": "strata",
}

__all__ = list(_SOURCES)


def __getattr__(name: str):
    if name not in _SOURCES:
        raise AttributeError(f"module 'ptl' has no attribute {name!r}")
    value = getattr(importlib.import_module(f"ptl.{_SOURCES[name]}"), name)
    globals()[name] = value
    return value
