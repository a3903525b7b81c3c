"""Groebner bases for ideals of partial difference polynomials.

Exact computation over Q or Q(parameters): block monomial orderings
compatible with the shift action, normal forms modulo shift orbits,
plain / truncated / self-certifying completion, Noetherian quotients with
companion-matrix normal forms, and Groebner bases of ideals invariant
under cyclic permutation groups.
"""

from .errors import (CoefficientSizeError, CoefficientTypeError, DGBError, ExactDivisionError,
                     InternalCheckError, ParseError, RankMismatchError, RingMismatchError,
                     ShiftWidthError, StaircaseError)
from .field import ConstantField
from .orderings import (DEGLEX, DEGREVLEX, LEX, MAX_SHIFT_DEGREE, Ordering,
                        OrderingSpec, VarRef)
from .ring import (MAX_SHIFT_RANK, DifferenceRing, Monomial, NEG_INF, Polynomial,
                   Signature, format_monomial, format_polynomial, spoly)
from .reduction import (ReducerBasis, reduce, reduce_full, replay_certificate,
                        tail_reduce)
from .completion import (CompletionOptions, CompletionStatus, PairStats,
                         SigmaBasis, VerificationReport, interreduce,
                         minimalize, sigma_gbasis, sigma_gbasis_adaptive,
                         sigma_gbasis_truncated, verify_sigma_gbasis)
from .quotient import (LinearRelation, PermutationAction, QuotientPresentation,
                       expand_classical_basis, groebner_gamma_basis,
                       normal_variables, pure_power_table, symmetric_setup)

__all__ = [
    "CoefficientSizeError", "CoefficientTypeError", "DGBError", "ExactDivisionError",
    "InternalCheckError", "ParseError", "RankMismatchError", "RingMismatchError",
    "ShiftWidthError", "StaircaseError",
    "ConstantField",
    "DEGLEX", "DEGREVLEX", "LEX", "MAX_SHIFT_DEGREE", "Ordering", "OrderingSpec",
    "MAX_SHIFT_RANK", "DifferenceRing", "Monomial", "NEG_INF", "Polynomial", "Signature",
    "VarRef", "format_monomial", "format_polynomial", "spoly",
    "ReducerBasis", "reduce", "reduce_full", "replay_certificate",
    "tail_reduce",
    "CompletionOptions", "CompletionStatus", "PairStats", "SigmaBasis",
    "VerificationReport", "interreduce", "minimalize",
    "sigma_gbasis", "sigma_gbasis_adaptive", "sigma_gbasis_truncated",
    "verify_sigma_gbasis",
    "LinearRelation", "PermutationAction", "QuotientPresentation",
    "expand_classical_basis", "groebner_gamma_basis", "normal_variables",
    "pure_power_table", "symmetric_setup",
]
