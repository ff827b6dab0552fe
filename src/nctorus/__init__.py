"""Exact computation in algebraic noncommutative tori.

The package computes in the twisted group *-algebra of Z^(2g) with exact
phase bookkeeping, classifies SL(2,Z)-orbits and symplectic normal forms,
evaluates invariant-state candidates through Gram matrices, and emits
machine-checkable refutation certificates for any candidate that is not
the trace.
"""

from .algebra import (
    AlgebraElement,
    PhaseContext,
    adjoint,
    multiply,
    numeric_eval,
    weyl,
)
from .certificate import (
    CertParams,
    Certificate,
    ConsistentWithTrace,
    DiophantineBudgetError,
    DiophantinePrecisionError,
    VerificationReport,
    average_R,
    build_H_second,
    choose_parameters,
    diophantine_N,
    family_generators,
    refute,
    verify,
    witness_vector,
)
from .lattice import (
    SIGMA2,
    NormalForm,
    SkewForm,
    extended_gcd,
    orbit_rep,
    pairing,
    symplectic_normal_form,
    theta_j,
)
from .parser import ParseError, format_element, parse_element, to_element
from .scalars import GaussRat, PhaseScalar, as_scalar
from .states import (
    HermitianMatrix,
    PsdVerdict,
    StateCandidate,
    determinant_exact,
    eval_generator,
    evaluate,
    evaluate_exact,
    gram,
    is_psd,
    quadratic_form,
)

__version__ = "0.1.0"
