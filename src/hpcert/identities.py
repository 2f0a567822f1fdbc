"""The check catalog: one entry per certified identity, plus the runner.

Each `IdentityCheck` compares two sides.  A side is either a pipeline
(quadrature, accelerated series, or a rational combination of both) or an
exact `ClosedForm` over the seven-constant basis (zero for route-against-route
comparisons).  Every quadrature a pipeline needs goes through
`CheckContext.integrate`, which picks the catalog's rule and memoises the
result per run.  `run_check` evaluates both sides at the requested precision
and applies the check's tolerance policy; `run_catalog` executes a filtered
selection in catalog order, optionally on a process pool.

The catalog order follows the derivation it certifies, so a rendered report
reads as a walkthrough: the series value, its reduction to a double
integral, the inner-integral split, the three component integrals A/B/C and
their sub-integrals, the two appendix evaluations by differentiation under
the integral sign, and the supporting log-sine and dilogarithm facts.
"""

import math
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Union

from mpmath import atan, cos, ldexp, log, log1p, mp, mpf, sin, workprec

from . import quadrature, series
from .errors import CatalogError
from .numeric import (
    GUARD_BITS,
    BasisConstant,
    ClosedForm,
    Precision,
    cf_add,
    cf_mul_ln2,
    cf_scale,
    constant_value,
    eval_closed_form,
    round_to,
)
from .quadrature import GaussLegendre, Integrand, PiMultiple, TanhSinh, integrate, integrate_2d

ONE = BasisConstant.ONE
LN2 = BasisConstant.LN2
LN2_SQ = BasisConstant.LN2_SQ
PI = BasisConstant.PI
PI_LN2 = BasisConstant.PI_LN2
PI_SQ = BasisConstant.PI_SQ
CATALAN = BasisConstant.CATALAN

F = Fraction

SIGMA_CF = ClosedForm({CATALAN: F(1, 2), PI_SQ: F(1, 48), LN2_SQ: F(-7, 8), PI_LN2: F(-1, 8)})
A_CF = ClosedForm({LN2: F(3, 4), PI: F(-1, 8)})
B_CF = ClosedForm({LN2_SQ: F(1, 4), PI_SQ: F(-1, 96), PI_LN2: F(1, 4), CATALAN: F(-1, 2)})
C_CF = ClosedForm({PI_LN2: F(1, 8), PI_SQ: F(-1, 64), CATALAN: F(-1, 4)})
I1_CF = ClosedForm({PI_LN2: F(1, 2), CATALAN: F(-1)})
I2_CF = ClosedForm({LN2_SQ: F(3, 4), PI_SQ: F(-1, 48)})
I3_CF = ClosedForm({PI_LN2: F(1, 8)})
EQ10_CF = ClosedForm({LN2_SQ: F(1, 4)})
EQ16_CF = ClosedForm({PI_SQ: F(1, 32)})
EQ17_CF = ClosedForm({CATALAN: F(1, 2), PI_LN2: F(-1, 8)})
LOGSINE_CF = ClosedForm({PI_LN2: F(-1, 2)})
LI2_CF = ClosedForm({PI_SQ: F(1, 12)})
CATALAN_CF = ClosedForm({CATALAN: F(1)})
LN2_CF = ClosedForm({LN2: F(1)})
ZERO_CF = ClosedForm.zero()
# Eq. (7) as an exact rational identity: A ln2 + B/2 + C = -sigma.  The two
# forms are equal coefficient by coefficient, so they evaluate to the same mpf.
ASSEMBLY_CF = cf_add(cf_add(cf_mul_ln2(A_CF), cf_scale(B_CF, F(1, 2))), C_CF)
NEG_SIGMA_CF = cf_scale(SIGMA_CF, F(-1))

LN2_DIRECT_TERMS = 100_000


# ---------------------------------------------------------------------------
# Integrand registry.
# ---------------------------------------------------------------------------

_REGISTRY = {}


def _register(integrand):
    _REGISTRY[integrand.id] = integrand
    return integrand


def get_integrand(integrand_id):
    try:
        return _REGISTRY[integrand_id]
    except KeyError:
        raise CatalogError(f"integrand {integrand_id!r} is not registered") from None


def _ln2_here():
    return constant_value(LN2, mp.prec)


# Most 1D integrands share ln(1+x^2), arctan x or ln x at the same tanh-sinh
# abscissae.  A hit is the mpf the same call made at the same width, so the
# memo is bit for bit the same as calling mpmath directly.
_SHARED = {}  # (function, x, mp.prec) -> function(x)


def _log1p_sq(x):
    return log1p(x * x)


def _shared(fn, x):
    key = (fn, x._mpf_, mp.prec)
    hit = _SHARED.get(key)
    if hit is None:
        hit = _SHARED[key] = fn(x)
    return hit


_register(
    Integrand(
        id="sigma_double",
        evaluator=lambda x, y: -(x * x * y * y)
        / ((1 + x * x * y * y) * (1 + x) * (1 + y)),
        domain=((0, 1), (0, 1)),
        # h(t) = -t^2/(1+t^2) at t = T/2^W, scaled by 2^W and floored: within 2 units
        product=(lambda x: 1 / (1 + x), lambda T, W: -((T2 := T * T >> W) << W) // ((1 << W) + T2)),
    )
)
_register(
    Integrand(
        id="a_integrand",
        evaluator=lambda x: x * x / ((1 + x * x) * (1 + x)),
        domain=(0, 1),
    )
)
_register(
    Integrand(
        id="b_integrand",
        evaluator=lambda x: _shared(_log1p_sq, x) / ((1 + x * x) * (1 + x)),
        domain=(0, 1),
    )
)
_register(
    Integrand(
        id="c_integrand",
        evaluator=lambda x: -x * _shared(atan, x) / ((1 + x * x) * (1 + x)),
        domain=(0, 1),
    )
)
_register(
    Integrand(
        id="x_ln_1px2_over_1px2",
        evaluator=lambda x: x * _shared(_log1p_sq, x) / (1 + x * x),
        domain=(0, 1),
    )
)
_register(
    Integrand(
        id="i1_integrand",
        evaluator=lambda x: _shared(_log1p_sq, x) / (1 + x * x),
        domain=(0, 1),
    )
)
_register(
    Integrand(
        id="i1_minus_ln_x",
        evaluator=lambda x: (_shared(_log1p_sq, x) - _shared(log, x)) / (1 + x * x),
        domain=(0, 1),
        singular_left=True,
    )
)
_register(
    Integrand(
        id="neg_ln_x_over_1px2",
        evaluator=lambda x: -_shared(log, x) / (1 + x * x),
        domain=(0, 1),
        singular_left=True,
    )
)
_register(
    Integrand(
        id="log_sin_half",
        evaluator=lambda t: log(sin(t)),
        domain=(0, PiMultiple(F(1, 2))),
        singular_left=True,
    )
)
_register(
    Integrand(
        id="log_sin_full",
        evaluator=lambda t: log(sin(t)),
        domain=(0, PiMultiple(F(1))),
        singular_left=True,
        singular_right=True,
    )
)
_register(
    Integrand(
        id="log_cos_half",
        evaluator=lambda t: log(cos(t)),
        domain=(0, PiMultiple(F(1, 2))),
        singular_right=True,
    )
)
_register(
    Integrand(
        id="i2_integrand",
        evaluator=lambda x: _shared(_log1p_sq, x) / (1 + x),
        domain=(0, 1),
    )
)
_register(
    Integrand(
        id="i3_integrand",
        evaluator=lambda x: _shared(atan, x) / (1 + x),
        domain=(0, 1),
    )
)
_register(
    Integrand(
        id="eq16_integrand",
        evaluator=lambda x: _shared(atan, x) / (1 + x * x),
        domain=(0, 1),
    )
)
_register(
    Integrand(
        id="eq17_integrand",
        evaluator=lambda x: x * _shared(atan, x) / (1 + x * x),
        domain=(0, 1),
    )
)


def _middle_alpha(a):
    # ln(1+a^2)/(a(1+a^2)) with removable zero at a = 0
    if a == 0:
        return mpf(0)
    return _shared(_log1p_sq, a) / (a * (1 + a * a))


def _middle_t(t):
    # ln(1+t)/(t(1+t)) -> 1 as t -> 0
    if t == 0:
        return mpf(1)
    return log1p(t) / (t * (1 + t))


_register(Integrand(id="middle_alpha", evaluator=_middle_alpha, domain=(0, 1)))
_register(Integrand(id="middle_t", evaluator=_middle_t, domain=(0, 1)))
_register(series.ln1pt_integrand())


def _f_prime_closed(a):
    # d/da int_0^1 ln(1+a^2 x^2)/(1+x) dx, in closed form; -> 0 as a -> 0
    if a == 0:
        return mpf(0)
    a2 = a * a
    return (
        2 * a * _ln2_here() / (1 + a2)
        + _shared(_log1p_sq, a) / (a * (1 + a2))
        - 2 * _shared(atan, a) / (1 + a2)
    )


def _h_prime_closed(a):
    # d/da int_0^1 arctan(a x)/(1+x) dx, in closed form; -> 1 - ln2 as a -> 0
    if a == 0:
        return 1 - _ln2_here()
    a2 = a * a
    return (
        -_ln2_here() / (1 + a2)
        + _shared(_log1p_sq, a) / (2 * (1 + a2))
        + _shared(atan, a) / (a * (1 + a2))
    )


_register(Integrand(id="f_prime_closed", evaluator=_f_prime_closed, domain=(0, 1)))
_register(Integrand(id="h_prime_closed", evaluator=_h_prime_closed, domain=(0, 1)))

EQ06_GRID = (F(1, 4), F(1, 2), F(3, 4), F(1))

for _x0 in EQ06_GRID:
    _register(
        Integrand(
            id=f"eq06_inner_{_x0.numerator}_{_x0.denominator}",
            evaluator=(lambda x0n: lambda u: u * u / ((1 + u * u) * (u + x0n)))(
                mpf(_x0.numerator) / _x0.denominator
            ),
            domain=(0, _x0),
        )
    )


# ---------------------------------------------------------------------------
# Parameter families for differentiation under the integral sign:
#
#   F(a) = int_0^1 ln(1+a^2 x^2)/(1+x) dx   (F(1) is the I2 integral)
#   H(a) = int_0^1 arctan(a x)/(1+x) dx     (H(1) is the I3 integral)
# ---------------------------------------------------------------------------


def _param_integrand(name, alpha_value, tag):
    if name == "F":
        a2 = alpha_value * alpha_value

        def f(x):
            return log1p(a2 * x * x) / (1 + x)

    else:

        def f(x):
            return atan(alpha_value * x) / (1 + x)

    return Integrand(id=f"{name}_at_{tag}", evaluator=f, domain=(0, 1))


def _fd_step(p):
    # balances O(h^2) truncation against O(2^-p / h) quadrature noise,
    # leaving ~2p/3 matching bits; the pass tolerance is 2^-(p/2) for slack
    return ldexp(1, -(p.bits // 3))


# ---------------------------------------------------------------------------
# Checks and tolerance policies.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Tol:
    """Absolute tolerance 10^exponent."""

    exponent: int


@dataclass(frozen=True)
class TolExact:
    """Exact rational absolute tolerance (e.g. a series remainder bound)."""

    value: Fraction


@dataclass(frozen=True)
class TolHalfBits:
    """Absolute tolerance 2^-(bits/2); used by finite-difference checks."""


@dataclass(frozen=True)
class QuadEstimate:
    """Tolerance = 8 * (sum of the pipelines' own error estimates)."""


TolerancePolicy = Union[Tol, TolExact, TolHalfBits, QuadEstimate]


@dataclass
class Pipe:
    value: mpf
    est: mpf
    evals: int


Side = Union[ClosedForm, Callable]


@dataclass(frozen=True)
class IdentityCheck:
    id: str
    description: str
    ref: str
    lhs: Side
    rhs: Side
    tolerance_policy: TolerancePolicy


@dataclass(frozen=True)
class CheckResult:
    id: str
    description: str
    ref: str
    lhs_value: mpf
    rhs_value: mpf
    abs_error: mpf
    tolerance: mpf
    passed: bool
    evaluations: int
    elapsed_ms: int


class CheckContext:
    """Shared per-run state: precision plus memoized pipeline results.

    Pipelines compose at the guarded precision `pg` (= p + guard bits) and
    the single rounding to the reporting precision happens when the
    `CheckResult` is built; rounding each intermediate to p would otherwise
    dominate the tightest tolerances.
    """

    def __init__(self, p):
        self.p = p
        self.pg = Precision(p.guarded)
        self._quad = {}

    def integrate(self, f):
        """Integrate `f` by the catalog's rule for its dimension, memoised on `f`."""
        hit = self._quad.get(f)
        if hit is None:
            if f.dimension == 2:
                hit = integrate_2d(f, GaussLegendre(), self.pg)
            else:
                hit = integrate(f, TanhSinh(), self.pg)
            self._quad[f] = hit
        return hit


def _side_pipe(side, ctx):
    """Evaluate one side of a check: a closed form or a pipeline."""
    if isinstance(side, ClosedForm):
        return Pipe(eval_closed_form(side, ctx.pg), mpf(0), 0)
    return side(ctx)


def _quad_pipe(integrand_id):
    def run(ctx):
        q = ctx.integrate(get_integrand(integrand_id))
        return Pipe(q.value, q.error_estimate, q.evaluations)

    return run


def _combo_pipe(weighted):
    """Rational combination sum w_i * pipe_i with summed error estimates."""

    def run(ctx):
        v, e, n = mpf(0), mpf(0), 0
        for w, sub in weighted:
            pp = sub(ctx)
            wf = mpf(w.numerator) / w.denominator
            v += wf * pp.value
            e += abs(wf) * pp.est
            n += pp.evals
        return Pipe(v, e, n)

    return run


def _sigma_series_pipe(ctx):
    r = series.sigma_series(ctx.pg, series.Crz(30))
    return Pipe(r.value, mpf(0), r.terms_used)


def _eq03_pipe(ctx):
    r = series.ln2_direct_partial(LN2_DIRECT_TERMS, ctx.pg)
    return Pipe(r.value, r.error_bound, r.terms_used)


def _eq04_pipe(ctx):
    dev, est, evals = mpf(0), mpf(0), 0
    for n in (1, 2, 3, 5, 10, 20):
        harm = series.tail(n, series.TailRoute.HARMONIC, ctx.pg)
        q = ctx.integrate(series.tail_integrand(n))
        dev = max(dev, abs(harm.value - q.value))
        est = max(est, q.error_estimate)
        evals += q.evaluations
    return Pipe(dev, est, evals)


def _eq06_pipe(ctx):
    ln2 = _ln2_here()
    dev, est, evals = mpf(0), mpf(0), 0
    for x0 in EQ06_GRID:
        q = ctx.integrate(get_integrand(f"eq06_inner_{x0.numerator}_{x0.denominator}"))
        x = mpf(x0.numerator) / x0.denominator
        x2 = x * x
        closed = x2 / (1 + x2) * ln2 + log1p(x2) / (2 * (1 + x2)) - x * atan(x) / (1 + x2)
        dev = max(dev, abs(q.value - closed))
        est = max(est, q.error_estimate)
        evals += q.evaluations
    return Pipe(dev, est, evals)


def _funceq_pipe(ctx):
    full, half, cosh_ = (
        ctx.integrate(get_integrand(i)) for i in ("log_sin_full", "log_sin_half", "log_cos_half")
    )
    dev = max(abs(full.value - 2 * half.value), abs(cosh_.value - half.value))
    est = full.error_estimate + 2 * half.error_estimate + cosh_.error_estimate
    return Pipe(dev, est, full.evaluations + half.evaluations + cosh_.evaluations)


def _gap_pipe(a_id, b_id, w=1):
    """|int a - w int b| with estimate e_a + w e_b; w is 1/2 or 1, so w*x is exact."""

    def run(ctx):
        a = ctx.integrate(get_integrand(a_id))
        b = ctx.integrate(get_integrand(b_id))
        dev = abs(a.value - w * b.value)
        est = a.error_estimate + w * b.error_estimate
        return Pipe(dev, est, a.evaluations + b.evaluations)

    return run


def _li2_pipe(ctx):
    s = series.ln1pt_over_t(ctx.pg)
    q = ctx.integrate(get_integrand("ln1p_t_over_t"))
    cf = eval_closed_form(LI2_CF, ctx.pg)
    dev = max(abs(s - q.value), abs(s - cf), abs(q.value - cf))
    return Pipe(dev, q.error_estimate, q.evaluations)


def _param_grid_pipe(name):
    """Max |closed derivative - central finite difference| over a in {0.3, 0.7, 1}."""
    derivative = _f_prime_closed if name == "F" else _h_prime_closed

    def run(ctx):
        # step size keyed to the *reporting* precision; the quadratures are
        # handed the guarded precision so the difference quotient does not
        # amplify boundary rounding
        h = _fd_step(ctx.p)
        dev, evals = mpf(0), 0
        for af in (F(3, 10), F(7, 10), F(1)):
            with workprec(ctx.pg.guarded):
                a = mpf(af.numerator) / af.denominator
                closed = derivative(a)
                up = ctx.integrate(_param_integrand(name, a + h, f"{af}+h"))
                dn = ctx.integrate(_param_integrand(name, a - h, f"{af}-h"))
                fd = (up.value - dn.value) / (2 * h)
            dev = max(dev, abs(closed - fd))
            evals += up.evaluations + dn.evaluations
        return Pipe(dev, mpf(0), evals)

    return run


CATALOG = (
    IdentityCheck(
        id="eq01_sigma_series",
        description="accelerated series sum (-1)^n a_n^2 equals G/2 + pi^2/48 - (7/8)(ln2)^2 - (pi/8)ln2",
        ref="Eq. (1)",
        lhs=_sigma_series_pipe,
        rhs=SIGMA_CF,
        tolerance_policy=Tol(-20),
    ),
    IdentityCheck(
        id="eq03_ln2",
        description=f"alternating harmonic partial sum of {LN2_DIRECT_TERMS} terms brackets ln2 within 1/(N+1)",
        ref="Eq. (3)",
        lhs=_eq03_pipe,
        rhs=LN2_CF,
        tolerance_policy=TolExact(F(1, LN2_DIRECT_TERMS + 1)),
    ),
    IdentityCheck(
        id="eq04_tail_routes",
        description="harmonic-tail route vs integral route for a_n, n in {1,2,3,5,10,20}",
        ref="Eqs. (2)-(4)",
        lhs=_eq04_pipe,
        rhs=ZERO_CF,
        tolerance_policy=QuadEstimate(),
    ),
    IdentityCheck(
        id="eq05_sigma_2d",
        description="double integral of -x^2 y^2/((1+x^2 y^2)(1+x)(1+y)) equals the series value",
        ref="Eq. (5)",
        lhs=_quad_pipe("sigma_double"),
        rhs=_sigma_series_pipe,
        tolerance_policy=Tol(-20),
    ),
    IdentityCheck(
        id="eq06_inner",
        description="inner integral of u^2/((1+u^2)(u+x)) over [0,x] vs its closed form on a grid of x",
        ref="Eq. (6)",
        lhs=_eq06_pipe,
        rhs=ZERO_CF,
        tolerance_policy=Tol(-40),
    ),
    IdentityCheck(
        id="eq07_assembly",
        description="exact rational identity: A ln2 + B/2 + C equals -sigma, coefficient by coefficient",
        ref="Eq. (7)",
        lhs=ASSEMBLY_CF,
        rhs=NEG_SIGMA_CF,
        tolerance_policy=TolExact(F(0)),
    ),
    IdentityCheck(
        id="eq08_A",
        description="int x^2/((1+x^2)(1+x)) = (3/4)ln2 - pi/8",
        ref="Eq. (8)",
        lhs=_quad_pipe("a_integrand"),
        rhs=A_CF,
        tolerance_policy=Tol(-40),
    ),
    IdentityCheck(
        id="eq09_B_split",
        description="B integral equals (I2 + I1 - int x ln(1+x^2)/(1+x^2))/2, all by quadrature",
        ref="Eq. (9)",
        lhs=_quad_pipe("b_integrand"),
        rhs=_combo_pipe(
            [
                (F(1, 2), _quad_pipe("i2_integrand")),
                (F(1, 2), _quad_pipe("i1_integrand")),
                (F(-1, 2), _quad_pipe("x_ln_1px2_over_1px2")),
            ]
        ),
        tolerance_policy=Tol(-40),
    ),
    IdentityCheck(
        id="eq10",
        description="int x ln(1+x^2)/(1+x^2) = (ln2)^2/4",
        ref="Eq. (10)",
        lhs=_quad_pipe("x_ln_1px2_over_1px2"),
        rhs=EQ10_CF,
        tolerance_policy=Tol(-40),
    ),
    IdentityCheck(
        id="app1_I1",
        description="I1 = int ln(1+x^2)/(1+x^2) = (pi/2)ln2 - G",
        ref="Eq. (11) / Appendix 1",
        lhs=_quad_pipe("i1_integrand"),
        rhs=I1_CF,
        tolerance_policy=Tol(-40),
    ),
    IdentityCheck(
        id="app1_I1_substitution",
        description="int (ln(1+x^2) - ln x)/(1+x^2) = (pi/2)ln2  (the I1 + G form)",
        ref="Appendix 1",
        lhs=_quad_pipe("i1_minus_ln_x"),
        rhs=ClosedForm({PI_LN2: F(1, 2)}),
        tolerance_policy=Tol(-40),
    ),
    IdentityCheck(
        id="app1_catalan_integral",
        description="-int ln x/(1+x^2) = G, the integral representation behind I1",
        ref="Appendix 1",
        lhs=_quad_pipe("neg_ln_x_over_1px2"),
        rhs=CATALAN_CF,
        tolerance_policy=Tol(-40),
    ),
    IdentityCheck(
        id="app1_logsine",
        description="int_0^{pi/2} ln sin = -(pi/2)ln2 despite the endpoint singularity",
        ref="Appendix 1",
        lhs=_quad_pipe("log_sin_half"),
        rhs=LOGSINE_CF,
        tolerance_policy=Tol(-40),
    ),
    IdentityCheck(
        id="app1_logsine_funceq",
        description="functional equation: int_0^pi ln sin = 2 int_0^{pi/2} ln sin and cos/sin symmetry",
        ref="Appendix 1",
        lhs=_funceq_pipe,
        rhs=ZERO_CF,
        tolerance_policy=Tol(-40),
    ),
    IdentityCheck(
        id="app2_I2",
        description="I2 = int ln(1+x^2)/(1+x) = (3/4)(ln2)^2 - pi^2/48",
        ref="Eq. (12) / Appendix 2",
        lhs=_quad_pipe("i2_integrand"),
        rhs=I2_CF,
        tolerance_policy=Tol(-40),
    ),
    IdentityCheck(
        id="app2_middle",
        description="int ln(1+a^2)/(a(1+a^2)) da equals half of int ln(1+t)/(t(1+t)) dt",
        ref="Appendix 2",
        lhs=_gap_pipe("middle_alpha", "middle_t", 0.5),
        rhs=ZERO_CF,
        tolerance_policy=Tol(-40),
    ),
    IdentityCheck(
        id="app2_li2",
        description="sum (-1)^(n-1)/n^2, int ln(1+t)/t, and pi^2/12 agree pairwise",
        ref="Appendix 2",
        lhs=_li2_pipe,
        rhs=ZERO_CF,
        tolerance_policy=Tol(-40),
    ),
    IdentityCheck(
        id="eq13_B",
        description="B = ((ln2)^2/2 - pi^2/48 + (pi/2)ln2 - G)/2",
        ref="Eq. (13)",
        lhs=_quad_pipe("b_integrand"),
        rhs=B_CF,
        tolerance_policy=Tol(-40),
    ),
    IdentityCheck(
        id="eq14_C_split",
        description="C integral equals (I3 - int x arctan x/(1+x^2) - int arctan x/(1+x^2))/2",
        ref="Eq. (14)",
        lhs=_quad_pipe("c_integrand"),
        rhs=_combo_pipe(
            [
                (F(1, 2), _quad_pipe("i3_integrand")),
                (F(-1, 2), _quad_pipe("eq17_integrand")),
                (F(-1, 2), _quad_pipe("eq16_integrand")),
            ]
        ),
        tolerance_policy=Tol(-40),
    ),
    IdentityCheck(
        id="app3_I3",
        description="I3 = int arctan x/(1+x) = (pi/8)ln2",
        ref="Eq. (15) / Appendix 3",
        lhs=_quad_pipe("i3_integrand"),
        rhs=I3_CF,
        tolerance_policy=Tol(-40),
    ),
    IdentityCheck(
        id="eq16",
        description="int arctan x/(1+x^2) = pi^2/32",
        ref="Eq. (16)",
        lhs=_quad_pipe("eq16_integrand"),
        rhs=EQ16_CF,
        tolerance_policy=Tol(-40),
    ),
    IdentityCheck(
        id="eq17",
        description="int x arctan x/(1+x^2) = G/2 - (pi/8)ln2",
        ref="Eq. (17)",
        lhs=_quad_pipe("eq17_integrand"),
        rhs=EQ17_CF,
        tolerance_policy=Tol(-40),
    ),
    IdentityCheck(
        id="eq18_C",
        description="C = ((pi/4)ln2 - pi^2/32 - G/2)/2",
        ref="Eq. (18)",
        lhs=_quad_pipe("c_integrand"),
        rhs=C_CF,
        tolerance_policy=Tol(-40),
    ),
    IdentityCheck(
        id="app2_F_derivative",
        description="closed F'(a) vs central finite differences at a in {0.3, 0.7, 1}",
        ref="Appendix 2",
        lhs=_param_grid_pipe("F"),
        rhs=ZERO_CF,
        tolerance_policy=TolHalfBits(),
    ),
    IdentityCheck(
        id="app2_F_reconstruct",
        description="int_0^1 F' da reproduces F(1) = I2",
        ref="Appendix 2",
        lhs=_gap_pipe("f_prime_closed", "i2_integrand"),
        rhs=ZERO_CF,
        tolerance_policy=Tol(-35),
    ),
    IdentityCheck(
        id="app3_H_derivative",
        description="closed H'(a) vs central finite differences at a in {0.3, 0.7, 1}",
        ref="Appendix 3",
        lhs=_param_grid_pipe("H"),
        rhs=ZERO_CF,
        tolerance_policy=TolHalfBits(),
    ),
    IdentityCheck(
        id="app3_H_reconstruct",
        description="int_0^1 H' da reproduces H(1) = I3",
        ref="Appendix 3",
        lhs=_gap_pipe("h_prime_closed", "i3_integrand"),
        rhs=ZERO_CF,
        tolerance_policy=Tol(-35),
    ),
)

_BY_ID = {c.id: c for c in CATALOG}
if len(_BY_ID) != len(CATALOG):
    raise CatalogError("catalog ids are not unique")


def catalog():
    """The full ordered check catalog."""
    return CATALOG


_SERIES_PIPES = (_sigma_series_pipe, _eq03_pipe)  # the pipelines that integrate nothing


def precision_floor(checks, tolerance_exponent_override=None):
    """Least bits at which the checks' quadratures can meet their tightest `Tol`.

    Quadratures stop at 2^-(bits + GUARD_BITS - STOP_MARGIN), coarser than 10^E below
    ceil(-E log2 10) - (GUARD_BITS - STOP_MARGIN) bits; closed forms and series have no floor.
    """
    override = tolerance_exponent_override
    exponents = []
    for c in checks:
        policy = c.tolerance_policy if override is None else Tol(override)
        quad = any(callable(s) and s not in _SERIES_PIPES for s in (c.lhs, c.rhs))
        if quad and isinstance(policy, Tol):
            exponents.append(policy.exponent)
    bits = math.ceil(-min(exponents, default=0) * math.log2(10))
    return bits - (GUARD_BITS - quadrature.STOP_MARGIN)


# ---------------------------------------------------------------------------
# Execution.
# ---------------------------------------------------------------------------


def _resolve_tolerance(policy, p, est):
    if isinstance(policy, Tol):
        return mpf(10) ** policy.exponent
    if isinstance(policy, TolExact):
        v = policy.value
        return mpf(v.numerator) / v.denominator
    if isinstance(policy, TolHalfBits):
        return ldexp(1, -(p.bits // 2))
    if isinstance(policy, QuadEstimate):
        return 8 * est
    raise ValueError(f"unknown tolerance policy {policy!r}")


def run_check(check, p, ctx=None, tolerance_exponent_override=None):
    """Evaluate one check at precision p and apply its tolerance policy."""
    ctx = ctx or CheckContext(p)
    if ctx.p != p:
        raise ValueError(f"context precision {ctx.p.bits} differs from the check's {p.bits}")
    policy = check.tolerance_policy
    if tolerance_exponent_override is not None:
        policy = Tol(tolerance_exponent_override)
    t0 = time.perf_counter()
    with workprec(p.guarded):
        lhs = _side_pipe(check.lhs, ctx)
        rhs = _side_pipe(check.rhs, ctx)
        err = abs(lhs.value - rhs.value)
        tol = _resolve_tolerance(policy, p, lhs.est + rhs.est)
    elapsed_ms = int(round((time.perf_counter() - t0) * 1000))
    return CheckResult(
        id=check.id,
        description=check.description,
        ref=check.ref,
        lhs_value=round_to(lhs.value, p),
        rhs_value=round_to(rhs.value, p),
        abs_error=round_to(err, p),
        tolerance=round_to(tol, p),
        passed=bool(err <= tol),
        evaluations=lhs.evals + rhs.evals,
        elapsed_ms=elapsed_ms,
    )


def _run_by_id(check_id, bits, tolerance_exponent_override):
    return run_check(
        _BY_ID[check_id], Precision(bits), tolerance_exponent_override=tolerance_exponent_override
    )


def run_catalog(p, ids=None, jobs=1, tolerance_exponent_override=None):
    """Run a selection of catalog checks in catalog order.

    With jobs > 1 the checks fan out to a process pool (each worker builds
    its own caches); results are still aggregated in catalog order, so the
    report is deterministic either way.
    """
    checks = CATALOG
    if ids is not None:
        wanted = set(ids)
        unknown = wanted - _BY_ID.keys()
        if unknown:
            raise CatalogError(f"unknown check ids: {sorted(unknown)}")
        checks = [c for c in CATALOG if c.id in wanted]
    if jobs > 1 and len(checks) > 1:
        import concurrent.futures

        # fork starts every worker at the first submit, so start no idle ones
        with concurrent.futures.ProcessPoolExecutor(max_workers=min(jobs, len(checks))) as pool:
            futures = {
                c.id: pool.submit(_run_by_id, c.id, p.bits, tolerance_exponent_override)
                for c in checks
            }
            return [futures[c.id].result() for c in checks]
    ctx = CheckContext(p)
    return [
        run_check(c, p, ctx=ctx, tolerance_exponent_override=tolerance_exponent_override)
        for c in checks
    ]
