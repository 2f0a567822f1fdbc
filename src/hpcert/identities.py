"""The check catalog: one entry per certified identity, plus the runner.

Each `IdentityCheck` compares two sides, and every side is data: an exact
`ClosedForm` over the seven-constant basis (zero for route-against-route
comparisons), a registered integrand's id (its integral's value), a `Value`
computed from its arguments and the precision (a series or a closed value
that no basis form writes), a `Combo` (a rational combination of sides), a
`MaxGap` (the deviation max |x - y| between routes) or a `FiniteDifference`
(a closed derivative against central differences of its family's integrals).
Every quadrature goes through `CheckContext.integrate`, which picks the
catalog's rule, memoises the result per run and records it for the current
check.

Every integral the catalog reads is registered here, under the id a side
names it by.  Each but eq04's six tails, plain mpf evaluators, declares one
`form` of expressions over `numeric`'s operation contexts: g + h ln x +
k ln(b - x) in 1D, whose kernel the tanh-sinh ladder sums in integers, and
eq05's g(x) g(y) h(xy), its g in mpf and its h in integers.
`run_check` refuses a precision that `precision_refusal` refuses, then evaluates
both sides at the requested precision, applies the check's tolerance policy
and reads `evaluations` off the context's record; a nonconvergence or a
domain error in one check becomes that check's `error`, and the other checks
still run.  `run_catalog` runs the checks it is handed, in their order,
optionally on a process pool, so every check pickles and equals its pickled
copy: each function a side holds is defined at module level, and each
argument a `Value` binds is a plain value.

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
from typing import Callable, Optional, Union

from mpmath import atan, ldexp, log1p, mpf, workprec

from . import quadrature, series
from .errors import CatalogError, DomainError, NonconvergenceError
from .numeric import (
    GUARD_BITS,
    BasisConstant,
    ClosedForm,
    MP,
    Precision,
    cf_add,
    cf_mul_ln2,
    cf_scale,
    eval_closed_form,
    round_to,
)
from .quadrature import GaussLegendre, Integrand, TanhSinh, expression, integrate, integrate_2d, product

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
ZERO_CF = ClosedForm()
# Eq. (7) as an exact rational identity: A ln2 + B/2 + C = -sigma.  The two
# forms are equal coefficient by coefficient, so they evaluate to the same mpf.
ASSEMBLY_CF = cf_add(cf_add(cf_mul_ln2(A_CF), cf_scale(B_CF, F(1, 2))), C_CF)
NEG_SIGMA_CF = cf_scale(SIGMA_CF, F(-1))

LN2_DIRECT_TERMS = 100_000


# ---------------------------------------------------------------------------
# Integrand registry.  Each 1D integrand but eq04's tails is a form
# g + h ln x + k ln(b - x) of bounded expressions over a `numeric` operation
# context (`quadrature.expression`): under `MP` it is the evaluator, and under
# `fixed_context(W)` the integer kernel that the tanh-sinh ladder sums.  A
# kernel is within the sum of its operations' units of 2^-W (the table in
# `numeric`): W/8 + 20 for F(a), the ladder's assumption, and at most 3q + 8,
# q = W/128 + 3, for those built on the quotients ln(1 + u)/u and arctan(t)/t.
# The quotients also carry the removable 0/0 at x = 0 of middle_alpha, middle_t,
# ln(1 + t)/t, F' and H', so every expression returns its limit there.  Only
# the ln-x pair and the three log-sine integrands have an h or a k, whose
# kernel reads ln x and ln(b - x) from the integer ladder's column beside each
# node; the log-sine g are logarithms of quotients bounded away from 0, from
# `numeric`'s sin(t)/t and cos t.  eq04's tails x^(2n)/(1 + x) are plain mpf
# evaluators, on the mpf ladder: eq04's tolerance prints 8 |T_k - T_{k-1}|,
# that ladder's own rounding noise.
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


# sigma's integrand -x^2 y^2/((1 + x^2 y^2)(1 + x)(1 + y)) = g(x) g(y) h(xy), with g(x) = 1/(1 + x)
# and h(t) = -t^2/(1 + t^2): in integers, one floor for t^2 and one for the quotient, within 2 units
_register(
    product("sigma_double", lambda c, x: c.div(c.one, c.one + x), lambda c, t: c.div(-(t2 := c.sq(t)), c.one + t2))
)
_register(expression("a_integrand", lambda c, x: c.div2(x2 := c.sq(x), c.one + x2, c.one + x)))
_register(expression("b_integrand", lambda c, x: c.div2(c.log1p_sq(x), c.one + c.sq(x), c.one + x)))
_register(expression("c_integrand", lambda c, x: -c.div2(c.mul(x, c.atan_x(x)), c.one + c.sq(x), c.one + x)))
_register(expression("x_ln_1px2_over_1px2", lambda c, x: c.div(c.mul(x, c.log1p_sq(x)), c.one + c.sq(x))))
_register(expression("i1_integrand", lambda c, x: c.div(c.log1p_sq(x), c.one + c.sq(x))))


def _minus_1_over_1px2(c, x):  # the ln-x pair's h
    return c.div(-c.one, c.one + c.sq(x))


# the ln-x pair, g + h ln x: (ln(1 + x^2) - ln x)/(1 + x^2), whose g is i1's, and -ln x/(1 + x^2)
_register(expression("i1_minus_ln_x", get_integrand("i1_integrand").form[0], h=_minus_1_over_1px2))
_register(expression("neg_ln_x_over_1px2", lambda c, x: 0, h=_minus_1_over_1px2))


def _one(c, x):  # the coefficient of each log-sine logarithm
    return c.one


def _ln_sin_over_t(c, t):  # ln(sin t / t)
    return c.log(c.sin_over(t))


def _ln_sin_over_t_pi_minus_t(c, t):  # ln(sin t / (t (pi - t))), sin t being sin(pi - t) from the nearer end
    s = c.pi - t
    return c.log(c.div(c.sin_over(min(t, s)), max(t, s)))


def _ln_cos_over_half_pi_minus_t(c, t):  # ln(cos t / (pi/2 - t)), with the cosine of t itself
    return c.log(c.div(2 * c.cos(t), c.pi - 2 * t))


# the log-sine three: ln sin t = ln t + ln(sin t / t) on (0, pi/2);
# ln t + ln(pi - t) + ln(sin t / (t (pi - t))) on (0, pi); ln(pi/2 - t) + ln(cos t / (pi/2 - t))
_TO_HALF_PI, _TO_PI = (0, ClosedForm({PI: F(1, 2)})), (0, ClosedForm({PI: F(1)}))
_register(expression("log_sin_half", _ln_sin_over_t, h=_one, domain=_TO_HALF_PI))
_register(expression("log_sin_full", _ln_sin_over_t_pi_minus_t, h=_one, k=_one, domain=_TO_PI))
_register(expression("log_cos_half", _ln_cos_over_half_pi_minus_t, k=_one, domain=_TO_HALF_PI))
_register(expression("i2_integrand", lambda c, x: c.div(c.log1p_sq(x), c.one + x)))
_register(expression("i3_integrand", lambda c, x: c.div(c.atan_x(x), c.one + x)))
_register(expression("eq16_integrand", lambda c, x: c.div(c.atan_x(x), c.one + c.sq(x))))
_register(expression("eq17_integrand", lambda c, x: c.div(c.mul(x, c.atan_x(x)), c.one + c.sq(x))))
# ln(1 + a^2)/(a (1 + a^2)) and ln(1 + t)/(t (1 + t))
_register(expression("middle_alpha", lambda c, a: c.div(c.mul(a, c.log1p_sq_over(a)), c.one + c.sq(a))))
_register(expression("middle_t", lambda c, t: c.div(c.log1p_over(t), c.one + t)))
_register(expression("ln1p_t_over_t", lambda c, t: c.log1p_over(t)))  # Li2(-1)'s integral route

EQ04_TAILS = (1, 2, 3, 5, 10, 20)

for _n in EQ04_TAILS:  # a_n's integral route
    _register(Integrand(f"tail_integral_n{_n}", (lambda e: lambda x: x**e / (1 + x))(2 * _n), (0, 1)))

# a_n's harmonic route, ln2 - (1/(n+1) + ... + 1/(2n)), exact over {1, ln2}
HARMONIC_TAIL_CF = {n: ClosedForm({LN2: F(1), ONE: -series.harmonic_tail_fraction(n)}) for n in EQ04_TAILS}


def _f_prime_closed(a):
    # d/da int_0^1 ln(1+a^2 x^2)/(1+x) dx, in closed form, for a > 0
    one_pa2 = 1 + a * a
    return 2 * a * MP.ln2 / one_pa2 + log1p(a * a) / (a * one_pa2) - 2 * atan(a) / one_pa2


def _h_prime_closed(a):
    # d/da int_0^1 arctan(a x)/(1+x) dx, in closed form, for a > 0
    one_pa2 = 1 + a * a
    return -MP.ln2 / one_pa2 + log1p(a * a) / (2 * one_pa2) + atan(a) / (a * one_pa2)


# The same derivatives as integrands on [0, 1], arranged without a 0/0 at a = 0,
# where they take their limits 0 and 1 - ln2:
# (a (2 ln2 + ln(1 + a^2)/a^2) - 2 arctan a)/(1 + a^2) and
# (ln(1 + a^2)/2 - ln2 + arctan(a)/a)/(1 + a^2)
_register(
    expression(
        "f_prime_closed",
        lambda c, a: c.div(c.mul(a, 2 * c.ln2 + c.log1p_sq_over(a)) - 2 * c.atan_x(a), c.one + c.sq(a)),
    )
)
_register(
    expression(
        "h_prime_closed",
        lambda c, a: c.div(c.div(c.log1p_sq(a), 2 * c.one) - c.ln2 + c.atan_over(a), c.one + c.sq(a)),
    )
)


EQ06_GRID = (F(1, 4), F(1, 2), F(3, 4), F(1))

for _x0 in EQ06_GRID:  # u^2/((1 + u^2)(u + x0)) on [0, x0]; each x0 is dyadic, so exact in both contexts
    _register(
        expression(
            f"eq06_inner_{_x0.numerator}_{_x0.denominator}",
            (lambda x0: lambda c, u: c.div2(u2 := c.sq(u), c.one + u2, u + c.const(x0)))(
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


# family -> (its integrand's expression at a, its closed derivative); F holds for
# a x < 3/2 and H for 0 <= a x < 2, the ranges of `log1p_fixed` and `atan_fixed`
_FAMILIES = {
    "F": (lambda a: lambda c, x: c.div(c.log1p(c.sq(c.mul(c.const(a), x))), c.one + x), _f_prime_closed),
    "H": (lambda a: lambda c, x: c.div(c.atan(c.mul(c.const(a), x)), c.one + x), _h_prime_closed),
}


def _param_integrand(family, a, tag):
    """The integrand of F(a) or H(a), its id keyed by `tag`."""
    return expression(f"{family}_at_{tag}", _FAMILIES[family][0](a))


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
    """Tolerance = 8 * the largest error estimate among the integrals the check read."""


TolerancePolicy = Union[Tol, TolExact, TolHalfBits, QuadEstimate]


@dataclass(frozen=True)
class Value:
    """fn(*args, pg): a value at the guarded precision that integrates nothing.

    `fn` is a module-level function and `args` plain values, so a `Value`
    compares, hashes and pickles by value.  `fn` returns an mpf, or a
    `SeriesResult` whose terms the check counts.
    """

    fn: Callable
    args: tuple = ()


@dataclass(frozen=True)
class Combo:
    """The rational combination sum w * side over ((w, side), ...)."""

    terms: tuple


@dataclass(frozen=True)
class MaxGap:
    """The deviation max |x - y| over ((x, y), ...); each distinct side is evaluated once."""

    pairs: tuple


@dataclass(frozen=True)
class FiniteDifference:
    """Max |closed derivative - central finite difference| of family F or H over a in {0.3, 0.7, 1}."""

    family: str

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise CatalogError(f"{self.family!r} is not a parameter family: not one of {sorted(_FAMILIES)}")


Side = Union[ClosedForm, str, Value, Combo, MaxGap, FiniteDifference]


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
    """One check's verdict.  A check that could not be computed has `error`
    set to "<Type>: <message>", no values, and `passed` False."""

    id: str
    description: str
    ref: str
    lhs_value: Optional[mpf]
    rhs_value: Optional[mpf]
    abs_error: Optional[mpf]
    tolerance: Optional[mpf]
    passed: bool
    evaluations: int
    elapsed_ms: int
    error: Optional[str] = None


class CheckContext:
    """Shared per-run state: precision, the quadrature memo, and the record of one check.

    Sides compose at the guarded precision `pg` (= p + guard bits) and the
    single rounding to the reporting precision happens when the
    `CheckResult` is built; rounding each intermediate to p would otherwise
    dominate the tightest tolerances.

    The record is what the current check read: `read` maps every integrand it
    integrated, memo hits included, to its `QuadResult`, and `terms` counts the
    terms of the series it summed through a `Value` that returns a
    `SeriesResult`.  `run_check` resets the record before each check and
    derives from it the check's `evaluations` (terms plus each distinct
    integral's evaluations) and its `QuadEstimate` tolerance.
    """

    def __init__(self, p):
        self.p = p
        self.pg = Precision(p.guarded)
        self._quad = {}
        self.read, self.terms = {}, 0

    def integrate(self, f):
        """Integrate `f` by the catalog's rule for its dimension, memoised on `f` and recorded."""
        hit = self._quad.get(f)
        if hit is None:
            if f.dimension == 2:
                hit = integrate_2d(f, GaussLegendre(), self.pg)
            else:
                hit = integrate(f, TanhSinh(), self.pg)
            self._quad[f] = hit
        self.read[f] = hit
        return hit


def _side_value(side, ctx):
    """One side of a check, at the guarded precision."""
    if isinstance(side, ClosedForm):
        return eval_closed_form(side, ctx.pg)
    if isinstance(side, str):
        return ctx.integrate(get_integrand(side)).value
    if isinstance(side, Value):
        r = side.fn(*side.args, ctx.pg)
        if isinstance(r, series.SeriesResult):
            ctx.terms += r.terms_used
            r = r.value
        return r
    if isinstance(side, Combo):
        return sum(mpf(w.numerator) / w.denominator * _side_value(s, ctx) for w, s in side.terms)
    if isinstance(side, MaxGap):
        v = {s: _side_value(s, ctx) for s in dict.fromkeys(s for pair in side.pairs for s in pair)}
        return max(abs(v[x] - v[y]) for x, y in side.pairs)
    if isinstance(side, FiniteDifference):
        return _finite_difference_gap(side.family, ctx)
    raise CatalogError(f"{side!r} is not a check side")


def _finite_difference_gap(family, ctx):
    derivative = _FAMILIES[family][1]
    # step size keyed to the *reporting* precision; the quadratures are
    # handed the guarded precision so the difference quotient does not
    # amplify boundary rounding
    h = _fd_step(ctx.p)
    dev = mpf(0)
    for af in (F(3, 10), F(7, 10), F(1)):
        with workprec(ctx.pg.guarded):
            a = mpf(af.numerator) / af.denominator
            closed = derivative(a)
            up = ctx.integrate(_param_integrand(family, a + h, f"{af}+h")).value
            dn = ctx.integrate(_param_integrand(family, a - h, f"{af}-h")).value
            fd = (up - dn) / (2 * h)
        dev = max(dev, abs(closed - fd))
    return dev


def _eq06_closed(x0, p):
    # the inner integral of Eq. (6) over [0, x0] in closed form
    with workprec(p.bits):
        x = mpf(x0.numerator) / x0.denominator
        x2 = x * x
        return x2 / (1 + x2) * MP.ln2 + log1p(x2) / (2 * (1 + x2)) - x * atan(x) / (1 + x2)


# each series is looked up at call time, so a wrapped module attribute sees the call
def _sigma_series(p):
    return series.sigma_series(p, series.Crz(30))


def _ln2_partial(p):
    return series.ln2_direct_partial(LN2_DIRECT_TERMS, p)


def _li2_series(p):  # an mpf: its CRZ terms go uncounted
    return series.ln1pt_over_t(p)


CATALOG = (
    IdentityCheck(
        id="eq01_sigma_series",
        description="accelerated series sum (-1)^n a_n^2 equals G/2 + pi^2/48 - (7/8)(ln2)^2 - (pi/8)ln2",
        ref="Eq. (1)",
        lhs=Value(_sigma_series),
        rhs=SIGMA_CF,
        tolerance_policy=Tol(-20),
    ),
    IdentityCheck(
        id="eq03_ln2",
        description=f"alternating harmonic partial sum of {LN2_DIRECT_TERMS} terms brackets ln2 within 1/(N+1)",
        ref="Eq. (3)",
        lhs=Value(_ln2_partial),
        rhs=LN2_CF,
        tolerance_policy=TolExact(F(1, LN2_DIRECT_TERMS + 1)),
    ),
    IdentityCheck(
        id="eq04_tail_routes",
        description="harmonic-tail route vs integral route for a_n, n in {1,2,3,5,10,20}",
        ref="Eqs. (2)-(4)",
        lhs=MaxGap(tuple((HARMONIC_TAIL_CF[n], f"tail_integral_n{n}") for n in EQ04_TAILS)),
        rhs=ZERO_CF,
        tolerance_policy=QuadEstimate(),
    ),
    IdentityCheck(
        id="eq05_sigma_2d",
        description="double integral of -x^2 y^2/((1+x^2 y^2)(1+x)(1+y)) equals the series value",
        ref="Eq. (5)",
        lhs="sigma_double",
        rhs=Value(_sigma_series),
        tolerance_policy=Tol(-20),
    ),
    IdentityCheck(
        id="eq06_inner",
        description="inner integral of u^2/((1+u^2)(u+x)) over [0,x] vs its closed form on a grid of x",
        ref="Eq. (6)",
        lhs=MaxGap(tuple((f"eq06_inner_{x.numerator}_{x.denominator}", Value(_eq06_closed, (x,))) for x in EQ06_GRID)),
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
        lhs="a_integrand",
        rhs=A_CF,
        tolerance_policy=Tol(-40),
    ),
    IdentityCheck(
        id="eq09_B_split",
        description="B integral equals (I2 + I1 - int x ln(1+x^2)/(1+x^2))/2, all by quadrature",
        ref="Eq. (9)",
        lhs="b_integrand",
        rhs=Combo(((F(1, 2), "i2_integrand"), (F(1, 2), "i1_integrand"), (F(-1, 2), "x_ln_1px2_over_1px2"))),
        tolerance_policy=Tol(-40),
    ),
    IdentityCheck(
        id="eq10",
        description="int x ln(1+x^2)/(1+x^2) = (ln2)^2/4",
        ref="Eq. (10)",
        lhs="x_ln_1px2_over_1px2",
        rhs=EQ10_CF,
        tolerance_policy=Tol(-40),
    ),
    IdentityCheck(
        id="app1_I1",
        description="I1 = int ln(1+x^2)/(1+x^2) = (pi/2)ln2 - G",
        ref="Eq. (11) / Appendix 1",
        lhs="i1_integrand",
        rhs=I1_CF,
        tolerance_policy=Tol(-40),
    ),
    IdentityCheck(
        id="app1_I1_substitution",
        description="int (ln(1+x^2) - ln x)/(1+x^2) = (pi/2)ln2  (the I1 + G form)",
        ref="Appendix 1",
        lhs="i1_minus_ln_x",
        rhs=ClosedForm({PI_LN2: F(1, 2)}),
        tolerance_policy=Tol(-40),
    ),
    IdentityCheck(
        id="app1_catalan_integral",
        description="-int ln x/(1+x^2) = G, the integral representation behind I1",
        ref="Appendix 1",
        lhs="neg_ln_x_over_1px2",
        rhs=CATALAN_CF,
        tolerance_policy=Tol(-40),
    ),
    IdentityCheck(
        id="app1_logsine",
        description="int_0^{pi/2} ln sin = -(pi/2)ln2 despite the endpoint singularity",
        ref="Appendix 1",
        lhs="log_sin_half",
        rhs=LOGSINE_CF,
        tolerance_policy=Tol(-40),
    ),
    IdentityCheck(
        id="app1_logsine_funceq",
        description="functional equation: int_0^pi ln sin = 2 int_0^{pi/2} ln sin and cos/sin symmetry",
        ref="Appendix 1",
        lhs=MaxGap((("log_sin_full", Combo(((F(2), "log_sin_half"),))), ("log_cos_half", "log_sin_half"))),
        rhs=ZERO_CF,
        tolerance_policy=Tol(-40),
    ),
    IdentityCheck(
        id="app2_I2",
        description="I2 = int ln(1+x^2)/(1+x) = (3/4)(ln2)^2 - pi^2/48",
        ref="Eq. (12) / Appendix 2",
        lhs="i2_integrand",
        rhs=I2_CF,
        tolerance_policy=Tol(-40),
    ),
    IdentityCheck(
        id="app2_middle",
        description="int ln(1+a^2)/(a(1+a^2)) da equals half of int ln(1+t)/(t(1+t)) dt",
        ref="Appendix 2",
        lhs=MaxGap((("middle_alpha", Combo(((F(1, 2), "middle_t"),))),)),
        rhs=ZERO_CF,
        tolerance_policy=Tol(-40),
    ),
    IdentityCheck(
        id="app2_li2",
        description="sum (-1)^(n-1)/n^2, int ln(1+t)/t, and pi^2/12 agree pairwise",
        ref="Appendix 2",
        lhs=MaxGap(
            ((Value(_li2_series), "ln1p_t_over_t"), (Value(_li2_series), LI2_CF), ("ln1p_t_over_t", LI2_CF))
        ),
        rhs=ZERO_CF,
        tolerance_policy=Tol(-40),
    ),
    IdentityCheck(
        id="eq13_B",
        description="B = ((ln2)^2/2 - pi^2/48 + (pi/2)ln2 - G)/2",
        ref="Eq. (13)",
        lhs="b_integrand",
        rhs=B_CF,
        tolerance_policy=Tol(-40),
    ),
    IdentityCheck(
        id="eq14_C_split",
        description="C integral equals (I3 - int x arctan x/(1+x^2) - int arctan x/(1+x^2))/2",
        ref="Eq. (14)",
        lhs="c_integrand",
        rhs=Combo(((F(1, 2), "i3_integrand"), (F(-1, 2), "eq17_integrand"), (F(-1, 2), "eq16_integrand"))),
        tolerance_policy=Tol(-40),
    ),
    IdentityCheck(
        id="app3_I3",
        description="I3 = int arctan x/(1+x) = (pi/8)ln2",
        ref="Eq. (15) / Appendix 3",
        lhs="i3_integrand",
        rhs=I3_CF,
        tolerance_policy=Tol(-40),
    ),
    IdentityCheck(
        id="eq16",
        description="int arctan x/(1+x^2) = pi^2/32",
        ref="Eq. (16)",
        lhs="eq16_integrand",
        rhs=EQ16_CF,
        tolerance_policy=Tol(-40),
    ),
    IdentityCheck(
        id="eq17",
        description="int x arctan x/(1+x^2) = G/2 - (pi/8)ln2",
        ref="Eq. (17)",
        lhs="eq17_integrand",
        rhs=EQ17_CF,
        tolerance_policy=Tol(-40),
    ),
    IdentityCheck(
        id="eq18_C",
        description="C = ((pi/4)ln2 - pi^2/32 - G/2)/2",
        ref="Eq. (18)",
        lhs="c_integrand",
        rhs=C_CF,
        tolerance_policy=Tol(-40),
    ),
    IdentityCheck(
        id="app2_F_derivative",
        description="closed F'(a) vs central finite differences at a in {0.3, 0.7, 1}",
        ref="Appendix 2",
        lhs=FiniteDifference("F"),
        rhs=ZERO_CF,
        tolerance_policy=TolHalfBits(),
    ),
    IdentityCheck(
        id="app2_F_reconstruct",
        description="int_0^1 F' da reproduces F(1) = I2",
        ref="Appendix 2",
        lhs=MaxGap((("f_prime_closed", "i2_integrand"),)),
        rhs=ZERO_CF,
        tolerance_policy=Tol(-35),
    ),
    IdentityCheck(
        id="app3_H_derivative",
        description="closed H'(a) vs central finite differences at a in {0.3, 0.7, 1}",
        ref="Appendix 3",
        lhs=FiniteDifference("H"),
        rhs=ZERO_CF,
        tolerance_policy=TolHalfBits(),
    ),
    IdentityCheck(
        id="app3_H_reconstruct",
        description="int_0^1 H' da reproduces H(1) = I3",
        ref="Appendix 3",
        lhs=MaxGap((("h_prime_closed", "i3_integrand"),)),
        rhs=ZERO_CF,
        tolerance_policy=Tol(-35),
    ),
)

if len({c.id for c in CATALOG}) != len(CATALOG):
    raise CatalogError("catalog ids are not unique")


# the widest run the catalog is tested at (a `slow` test); a wider one could
# spend hours in eq05's tensor rule
MAX_PRECISION_BITS = 2048


def _quadrature_tol_exponents(checks):
    for c in checks:
        quad = any(not isinstance(s, (ClosedForm, Value)) for s in (c.lhs, c.rhs))
        if quad and isinstance(c.tolerance_policy, Tol):
            yield c.tolerance_policy.exponent


def precision_floor(checks):
    """Least bits at which the checks' quadratures can meet their tightest `Tol`.

    Quadratures stop at 2^-(bits + GUARD_BITS - STOP_MARGIN), coarser than 10^E below
    ceil(-E log2 10) - (GUARD_BITS - STOP_MARGIN) bits; a `ClosedForm` or a `Value` has no floor.
    """
    bits = math.ceil(-min(_quadrature_tol_exponents(checks), default=0) * math.log2(10))
    return bits - (GUARD_BITS - quadrature.STOP_MARGIN)


def precision_refusal(checks, bits):
    """Why the catalog will not run `checks` at `bits`, or None: the one gate of `run_check` and `verify`."""
    floor = precision_floor(checks)
    if floor > MAX_PRECISION_BITS:
        return (
            f"no accepted precision (at most {MAX_PRECISION_BITS} bits) meets"
            f" 10^{min(_quadrature_tol_exponents(checks))}: its tolerance floor is {floor} bits"
        )
    if bits < floor:
        return f"precision {bits} bits is below {floor}, the tolerance floor"
    if bits > MAX_PRECISION_BITS:
        return f"precision {bits} bits is above {MAX_PRECISION_BITS}, the largest the catalog is tested at"
    return None


# ---------------------------------------------------------------------------
# Execution.
# ---------------------------------------------------------------------------


def _resolve_tolerance(policy, p, read):
    if isinstance(policy, Tol):
        return mpf(10) ** policy.exponent
    if isinstance(policy, TolExact):
        v = policy.value
        return mpf(v.numerator) / v.denominator
    if isinstance(policy, TolHalfBits):
        return ldexp(1, -(p.bits // 2))
    if isinstance(policy, QuadEstimate):
        return 8 * max((q.error_estimate for q in read.values()), default=mpf(0))
    raise ValueError(f"unknown tolerance policy {policy!r}")


def run_check(check, p, ctx=None):
    """Evaluate one check at precision p and apply its tolerance policy; a refused precision is a `ValueError`."""
    if refusal := precision_refusal([check], p.bits):
        raise ValueError(refusal)
    ctx = ctx or CheckContext(p)
    if ctx.p != p:
        raise ValueError(f"context precision {ctx.p.bits} differs from the check's {p.bits}")
    ctx.read, ctx.terms = {}, 0
    t0 = time.perf_counter()
    try:
        with workprec(p.guarded):
            lhs = _side_value(check.lhs, ctx)
            rhs = _side_value(check.rhs, ctx)
            err = abs(lhs - rhs)
            tol = _resolve_tolerance(check.tolerance_policy, p, ctx.read)
        # lhs_value, rhs_value, abs_error, tolerance and passed
        verdict, error = [round_to(v, p) for v in (lhs, rhs, err, tol)] + [bool(err <= tol)], None
    except (NonconvergenceError, DomainError) as exc:  # this check only: the others still report
        verdict, error = [None] * 4 + [False], f"{type(exc).__name__}: {exc}"
    evaluations = ctx.terms + sum(q.evaluations for q in ctx.read.values())
    elapsed_ms = int(round((time.perf_counter() - t0) * 1000))
    return CheckResult(check.id, check.description, check.ref, *verdict, evaluations, elapsed_ms, error)


def run_catalog(p, checks=CATALOG, jobs=1):
    """Run `checks`, an iterable of `IdentityCheck`s, in their order.

    With jobs > 1 the checks themselves are pickled to a process pool (each
    worker builds its own caches); results still come back in the order
    given, so the report is deterministic either way.  A precision that
    `precision_refusal` refuses for the checks is a `ValueError` before any
    check runs.
    """
    checks = tuple(checks)
    if refusal := precision_refusal(checks, p.bits):
        raise ValueError(refusal)
    if jobs > 1 and len(checks) > 1:
        import concurrent.futures
        from itertools import repeat

        # fork starts every worker at the first submit, so start no idle ones
        with concurrent.futures.ProcessPoolExecutor(max_workers=min(jobs, len(checks))) as pool:
            return list(pool.map(run_check, checks, repeat(p)))
    ctx = CheckContext(p)
    return [run_check(c, p, ctx=ctx) for c in checks]
