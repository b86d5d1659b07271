"""Heun functions, B-spline operator kernels, operator entropies, and a
machine-checked registry of the identities connecting them."""

from .exactalg import E0, E1, E2, NEG_INFINITY, PiecewisePoly, Poly, integrate_product, rat
from .bspline import (
    ConstantSigma,
    KernelInstance,
    KnotVector,
    QuadraticSigma,
    TableSigma,
    apply_Ln,
    bspline_density,
    c_constant,
    kernel,
)
from .specfun import (
    ConfluentHeunParams,
    HeunParams,
    QuadratureRule,
    SeriesResult,
    confluent_heun,
    f_poly,
    heun_local,
    heun_ode_residual,
    heun_poly,
    hyp2f1,
    hyp2f1_poly,
    kernel_sum,
    kn_deriv_zero,
    legendre_p,
    legendre_poly,
    periodic_trapezoid,
    quadrature,
    szasz_K,
)
from .entropy import (
    BSplineOp,
    EntropyPoint,
    KantorovichOp,
    entropy_profile,
    kantorovich_apply,
    kantorovich_poly,
    synchronicity_check,
)
from .identities import (
    IdentityId,
    NumericGrid,
    VerificationReport,
    i314_rhs,
    registry_table,
    verify,
    verify_all,
)

__version__ = "0.1.0"
