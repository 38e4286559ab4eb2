"""Exact symbolic computation for quantum matrix algebras.

Normalizes arbitrary expressions in the quantized coordinate ring of m-by-n
matrices to the PBW ordered-monomial basis, with exact Laurent-polynomial
coefficients, and mechanically verifies the minor-reduction identities, the
q-Laplace expansions, the localization relations at the corner generator, and
the graded non-membership obstruction: every suite up to 6 x 6 grids, and
most up to 8 x 8.
"""

from .algebra import (
    AlgebraElement,
    Bidegree,
    Shape,
    commutator,
    component_basis,
    gen,
    monomial,
    monomial_count,
)
from .checks import IdentityCheck
from .expr import ExprError, SessionConfig, evaluate, evaluate_source, parse
from .localize import (
    LocalizedElement,
    check_det_reduction,
    check_minor_commutation,
    check_minor_reduction,
    expand_minor_without_corner,
    full_x_prime_determinant,
    minor_over_derived_generators,
    x_prime,
    x_prime_minor,
)
from .minors import (
    MinorSpec,
    complement_minor,
    laplace_expand_col,
    laplace_expand_row,
    minor,
    project_pi,
    qdet,
)
from .scalar import LaurentScalar, ScalarFraction
from .verify import (
    ExponentFit,
    FitError,
    MembershipProblem,
    SuiteReport,
    UnknownCofactor,
    associativity_fuzz,
    fit_exponents,
    jordan_ingredients,
    jordan_membership_problem,
    run_suite,
    solve_membership,
    verify_frozen_table,
)

__version__ = "0.1.0"
