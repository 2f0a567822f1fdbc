"""hpcert: recompute a catalog of series/integral identities at high
precision and certify each against its exact closed form."""

__version__ = "0.1.0"

from .errors import (
    BasisError,
    CatalogError,
    DomainError,
    NonconvergenceError,
    PreconditionError,
    VerificationError,
)
from .numeric import (
    BasisConstant,
    ClosedForm,
    Precision,
    cf_add,
    cf_mul_ln2,
    cf_scale,
    const_catalan,
    const_ln2,
    const_pi,
    eval_closed_form,
)
from .quadrature import (
    GaussLegendre,
    Integrand,
    QuadResult,
    TanhSinh,
    gauss_legendre_nodes,
    integrate,
    integrate_2d,
    tanh_sinh_nodes,
)
from .series import (
    Crz,
    SeriesResult,
    ln1pt_over_t,
    sigma_series,
    sum_alternating,
)
from .identities import (
    CATALOG,
    CheckResult,
    IdentityCheck,
    run_catalog,
    run_check,
)
