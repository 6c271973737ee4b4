"""Exact Lie point-symmetry analysis for the Monge-Ampere equation and the
affine maximal type equation.

Everything algebraic runs over exact rationals: invariance checks reduce to
polynomial identities, exact divisibility, or exact evaluation at rational
points of the solution variety.
"""

from .algebra import (
    Atom,
    DEP,
    DivisorZeroError,
    ExponentOverflowError,
    MissingAtomError,
    NonSquareError,
    Poly,
    THETA,
    atom_str,
    coord,
    divide_exact,
    func_partial,
    jet,
    nullspace,
    poly_str,
    sym_adjugate,
    sym_det,
)
from .equations import (
    JetPoint,
    PdeSystem,
    SamplingExhaustedError,
    build_affine_maximal,
    build_monge_ampere,
    named_contraction,
    sample_on_variety,
)
from .jets import (
    JetInCoefficientError,
    OrderTooLowError,
    ProlongedField,
    SymbolicVectorField,
    UnsupportedOrderError,
    VectorField,
    apply_prolonged,
    circle_sum,
    prolong_explicit,
    prolong_recursive,
    total_derivative,
)
from .symmetry import (
    CheckReport,
    DeterminingSystem,
    ExplicitVariableError,
    GeneratorBasis,
    NotClosedError,
    affine_maximal_basis,
    ansatz_dimension,
    check_generator_basis,
    closure_check,
    degree_certified,
    extract_determining,
    infinitesimal_check,
    lie_bracket,
    monge_ampere_basis,
    taylor_rows,
)
from .groups import (
    BadParamsError,
    DetNotOneError,
    GroupElement,
    NotAffineError,
    NotInvertibleHereError,
    PNotAllowedError,
    SingularError,
    SolutionSample,
    act,
    compose,
    exponentiate,
    make_am_element,
    make_ma_element,
    residual,
    residual_polynomial,
    solution_family,
    transport_local,
)
from .dsl import (
    DivisionNotSupportedError,
    IndexOutOfRangeError,
    ParseError,
    format_vector_field,
    parse_expression,
    parse_vector_field,
)

__version__ = "0.1.0"
