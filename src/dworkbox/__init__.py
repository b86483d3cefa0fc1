"""Exact deformation invariants of smooth projective complete intersections.

The package models the primitive middle cohomology of a complete
intersection through a polynomial super-algebra with a twisted differential,
computes monomial quotient bases with reduction certificates and Hodge
numbers, and expands the deformation of period data in exact rational power
series.
"""

from .errors import (
    AssumptionError,
    ContextMismatchError,
    DworkboxError,
    IndependenceError,
    InputError,
    InternalCheckError,
    ParseError,
    SmoothnessError,
)
from .superalgebra import (
    SuperElement,
    SuperMonomial,
    VariableContext,
    grade,
    partial_eta,
    partial_q,
)
from .operators import (
    DworkData,
    LinearFunctional,
    apply_delta,
    apply_k,
    apply_q,
    bell_complete,
    bell_partial,
    dwork_potential,
    ell2,
    ell_n,
    phi_n,
)
from .cohomology import (
    QuotientPresentation,
    ReductionResult,
    build_presentation,
    charge_generator,
    charge_witness,
    enumerate_piece,
)
from .deformation import (
    BaseChange,
    DeformationData,
    DeformationSeries,
    PeriodMatrix,
    UBasis,
    build_deformation,
    d_ladder,
    d_matrix,
    k_gamma,
    mc_check,
    period_transport,
    t_series,
    expansion_coefficients,
    bell_expansion,
    u_basis,
)
from .polyparse import parse, render
from .verify import exp_identity_lhs, exp_identity_rhs, reduction_functional, run_suite

__version__ = "0.1.0"

__all__ = [
    "AssumptionError",
    "BaseChange",
    "ContextMismatchError",
    "DeformationData",
    "DeformationSeries",
    "DworkboxError",
    "DworkData",
    "IndependenceError",
    "InputError",
    "InternalCheckError",
    "LinearFunctional",
    "ParseError",
    "PeriodMatrix",
    "QuotientPresentation",
    "ReductionResult",
    "SmoothnessError",
    "SuperElement",
    "SuperMonomial",
    "UBasis",
    "VariableContext",
    "apply_delta",
    "apply_k",
    "apply_q",
    "bell_complete",
    "bell_partial",
    "build_deformation",
    "build_presentation",
    "charge_generator",
    "charge_witness",
    "d_ladder",
    "d_matrix",
    "dwork_potential",
    "ell2",
    "ell_n",
    "enumerate_piece",
    "exp_identity_lhs",
    "exp_identity_rhs",
    "grade",
    "k_gamma",
    "mc_check",
    "parse",
    "partial_eta",
    "partial_q",
    "period_transport",
    "phi_n",
    "reduction_functional",
    "render",
    "run_suite",
    "t_series",
    "expansion_coefficients",
    "bell_expansion",
    "u_basis",
]
