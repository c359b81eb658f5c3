"""Classify hyperplane-arrangement complements in projective space.

Given the defining linear forms of a hyperplane arrangement, compute the
possible dimensions of linear subspaces meeting the complement generically
(equivalently, the achievable dimensions of dense point sets on the
complement), and produce a certified witness subspace of the maximal
dimension.
"""

from .arrangement import Arrangement, ArrangementProfile, RefusedError, load, profile
from .corollaries import Verdict, cross_check, finiteness_verdict, general_position_bound
from .dimension_search import (
    DimensionReport,
    achievable_dimensions,
    brute_force_max_parts,
    max_valid_parts,
)
from .exact_linalg import (
    DimensionMismatchError,
    InternalError,
    Subspace,
    span,
)
from .witness import (
    UChain,
    WitnessSubspace,
    build_u_chain,
    build_witness_for_mplus1,
    witness_subspace,
)

__all__ = [
    "Arrangement",
    "ArrangementProfile",
    "RefusedError",
    "load",
    "profile",
    "Verdict",
    "cross_check",
    "finiteness_verdict",
    "general_position_bound",
    "DimensionReport",
    "achievable_dimensions",
    "brute_force_max_parts",
    "max_valid_parts",
    "DimensionMismatchError",
    "InternalError",
    "Subspace",
    "span",
    "UChain",
    "WitnessSubspace",
    "build_u_chain",
    "build_witness_for_mplus1",
    "witness_subspace",
]
