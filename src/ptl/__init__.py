"""Exact computation of Poisson trace spaces on Weyl-group quotient singularities.

All arithmetic is exact: coefficients are arbitrary-precision rationals,
dimension counts are certified integers.  The two independent computational
routes (a typed constraint solver on the ring C[s1, s2, ...] and a brute-force
bracket-span engine over invariant rings) are cross-checked against each other
and against closed-form partition combinatorics.
"""

from ptl.context import VariableContext, darboux_context, svar_context
from ptl.poly import SparsePolynomial
from ptl.poisson import PoissonStructure, poisson_bracket
from ptl.weyl import GroupSpec, SignedPermutation, act, invariant_basis, hh0_dimension
from ptl.tables import GradedDimensionTable
from ptl.engine import BracketSpanProblem, hp0_graded_dims, bracket_membership, check_aminus_identity
from ptl.solver import kernel_basis, family_generators
from ptl.partitions import (
    multipartition_count,
    p_count,
    p_prime_count,
    bn_hilbert,
    prime_bound,
)
from ptl.strata import LeafDescriptor, leaves_symmetric_power, leaves_kleinian, leaves_type_d

__version__ = "0.1.0"

__all__ = [
    "VariableContext",
    "darboux_context",
    "svar_context",
    "SparsePolynomial",
    "PoissonStructure",
    "poisson_bracket",
    "GroupSpec",
    "SignedPermutation",
    "act",
    "invariant_basis",
    "hh0_dimension",
    "GradedDimensionTable",
    "BracketSpanProblem",
    "hp0_graded_dims",
    "bracket_membership",
    "check_aminus_identity",
    "kernel_basis",
    "family_generators",
    "multipartition_count",
    "p_count",
    "p_prime_count",
    "bn_hilbert",
    "prime_bound",
    "LeafDescriptor",
    "leaves_symmetric_power",
    "leaves_kleinian",
    "leaves_type_d",
]
