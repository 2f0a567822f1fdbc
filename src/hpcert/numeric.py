"""Extended-precision values, fundamental constants, and closed forms.

Everything the verifier certifies against lives here: `Precision` (an
explicit mantissa size), the seven-constant basis
{1, ln2, (ln2)^2, pi, pi*ln2, pi^2, G}, and `ClosedForm` -- an exact
rational-coefficient combination over that basis.

Internal computation runs at ``bits + GUARD_BITS``.  Every public value is a
plain `mpf` that `round_to` checks for finiteness and rounds once to
``bits`` at the boundary.  pi, ln2 and G are mpmath's correctly rounded
constants, so each public constant is within 1 ulp of the true value.

Each 1D integrand in `identities` and `series` but eq04's tails is written
once, as an expression over the operation contexts kept here, below both:
under `MP` (mpf at the ambient precision) it is the integrand's evaluator, and
under `fixed_context(W)` (integers scaled by 2^W) the integer kernel that the
tanh-sinh ladder sums for a bounded one.  Each context owns its per-abscissa
memo: `MP` keeps, bit for bit, the mpf ln x and (cos t, sin t) that two
log-singular integrands on the mpf ladder share, and each `fixed_context(W)`
the ln(1+x^2)/x^2, arctan(x)/x and ln(1+x)/x of its nodes X.  `MP`'s
logarithms of 1 + x are mpmath's own `log1p`.
Importing this module points mpmath's pure-Python bit count at the C
`int.bit_length`, which gives the same count on every int.
"""

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cache
import math
import sys
from types import SimpleNamespace

from mpmath import atan, catalan, cos, cos_sin, isfinite, ldexp, libmp, ln2, log, log1p, mag, mp, mpf, pi, sin, workprec
from mpmath.libmp import libintmath, to_fixed
from mpmath.libmp.libelefun import atan_taylor, ln2_fixed, log_taylor_cached

from .errors import BasisError, DomainError

GUARD_BITS = 32


def _bit_length(n):
    """`libintmath.python_bitcount(n)` by the C `int.bit_length`: 0 for every n <= 0."""
    return n.bit_length() if n > 0 else 0


# Every libmp operation counts its mantissa's bits; the pure-Python backend
# does it with bisect and math.log, at about 5x the cost of `_bit_length`.
if libmp.BACKEND == "python" and hasattr(libintmath, "python_bitcount"):
    for _name, _module in list(sys.modules.items()):
        if _name.startswith("mpmath") and getattr(_module, "bitcount", None) is libintmath.python_bitcount:
            _module.bitcount = _bit_length


@dataclass(frozen=True, order=True)
class Precision:
    """Working mantissa size in bits.  Minimum 64."""

    bits: int

    def __post_init__(self):
        if not isinstance(self.bits, int) or self.bits < 64:
            raise ValueError(f"precision must be an integer >= 64 bits, got {self.bits!r}")

    @property
    def guarded(self):
        return self.bits + GUARD_BITS

    @property
    def decimal_digits(self):
        """Decimal digits carrying the same information as `bits` bits."""
        return int(math.ceil(self.bits * math.log10(2)))


def round_to(x, p):
    """Round a finite ambient-precision value once to p.bits."""
    if not isfinite(x):
        raise DomainError(f"non-finite value {x!r} cannot cross the module boundary")
    with workprec(p.bits):
        return +x


def ulp(x, bits):
    """Unit in the last place of x at a mantissa of `bits` bits."""
    if x == 0:
        return ldexp(1, -bits)
    return ldexp(1, mag(x) - bits)


# ---------------------------------------------------------------------------
# Per-abscissa memo.  The log-singular integrands that the mpf ladder sums meet
# the same tanh-sinh abscissae, so each value that two of them share runs once
# per (x, mp.prec) for the life of the process: ln x in -ln(x)/(1 + x^2) and
# (ln(1 + x^2) - ln x)/(1 + x^2), cos and sin in the log-sine pair.  A hit is
# the mpf the same expression made at the same width, so the memo is bit for
# bit the same as evaluating directly.  Only an mpf argument is shared: any
# other (an interval, a complex) is evaluated as written and stored nowhere.
# ---------------------------------------------------------------------------


@cache
def _shared(fn, x, prec):
    """fn of the mpf whose raw value is x, at the ambient width `prec`."""
    return fn(mp.make_mpf(x))


# ---------------------------------------------------------------------------
# Fixed-point elementary functions for the integrands' integer kernels: an
# argument T stands for t = T / 2^W and a result for its value times 2^W.
# Both run mpmath's own fixed-point Taylor series about its cached points
# a = k 2^-9 (log) and k 2^-7 (atan), the ones `mpf_log` and `mpf_atan` use.
# Each series term is floored once, |t - a| < 2^-7 leaves at most W/28 + 1
# rounds of two terms, and the cached value is floored from 20 or more extra
# bits, so a result is within W/8 + 16 units of 2^-W.  `log1p_fixed` runs at
# W + s, s <= 2 for t < 3, up to 2500 bits, the widest `log_taylor_cached` serves.
# ---------------------------------------------------------------------------


def log1p_fixed(T, W):
    """ln(1 + t) 2^W for t >= 0, as ln(2^-s (1 + t)) + s ln 2 with 2^-s (1 + t) in [1/2, 1).

    That is the reduction `mpf_log` makes, so the two share their cached points;
    like `mpf_log`, it returns the one exact value, ln 1 = 0, exactly.
    """
    if not T:
        return 0
    Y = (1 << W) + T
    s = Y.bit_length() - W
    return (log_taylor_cached(Y, W + s) + s * ln2_fixed(W + s)) >> s


def atan_fixed(T, W):
    """arctan(t) 2^W for 0 <= t < 2, the range `mpf_atan` hands `atan_taylor`."""
    return atan_taylor(T, W)


# ln(1 + u)/u and arctan(t)/t, for the integrands with a removable 0/0 at 0:
# the two functions above divided by t would lose all accuracy as t -> 0.
# From the first cached point past 0 on (u >= 2^-9, t >= 2^-7), each quotient
# divides its function taken at W + s, s = 9 + 4 or 7 + 4, by its argument:
# (W + s)/8 + 16 units of 2^-(W + s) over an argument of at least 2^(4 - s)
# give (W + s)/128 + 1 units, plus 1 for the division.  Below that point each
# sums its own series at W + 4 in powers v^2 < 2^-14, two terms a product as
# `log_taylor_cached` does: every term floored once, at most W/28 + 2 rounds,
# within W/20 + 8 units of 2^-(W + 4) before the final shift.  Both branches
# are within W/128 + 3 units of 2^-W, and both give exactly 2^W at 0.

QUOTIENT_GUARD = 4


def _odd_series(V, W, sign):
    """sum_k (sign v^2)^k/(2k + 1) 2^W for 0 <= v = V / 2^W < 2^-7."""
    V2 = V * V >> W
    V4 = V2 * V2 >> W
    S0, S1, P, k = 1 << W, (1 << W) // 3, V4, 5
    while P:
        S0 += P // k
        S1 += P // (k + 2)
        P = P * V4 >> W
        k += 4
    return S0 + sign * (S1 * V2 >> W)


def log1p_over_fixed(U, W):
    """ln(1 + u)/u 2^W for 0 <= u < 3, and its limit 2^W at u = 0."""
    g = QUOTIENT_GUARD
    if U >> (W - 9):
        s = 9 + g
        return (log1p_fixed(U << s, W + s) << W) // (U << s)
    # 2 atanh(v)/u = 2/(2 + u) sum_k v^2k/(2k + 1), with v = u/(2 + u) < 2^-10
    Wg = W + g
    D = (2 << Wg) + (U << g)
    return (_odd_series((U << g + Wg) // D, Wg, 1) << Wg + 1) // D >> g


def atan_over_fixed(T, W):
    """arctan(t)/t 2^W for 0 <= t < 2, and its limit 2^W at t = 0."""
    g = QUOTIENT_GUARD
    if T >> (W - 7):
        s = 7 + g
        return (atan_fixed(T << s, W + s) << W) // (T << s)
    return _odd_series(T << g, W + g, -1) >> g


# ---------------------------------------------------------------------------
# Operation contexts.  A 1D integrand is written once, as an expression
# expr(c, x) over the operations below; sums and differences are Python's own
# + and -, and a product with a small integer is exact in both contexts.
# Under `MP` the operations are mpf arithmetic at the ambient precision, and
# expr(MP, x) is the integrand's evaluator.  Under `fixed_context(W)` a value
# v is an integer near v 2^W, and expr(fixed_context(W), X) is the integrand's
# kernel, which the integer tanh-sinh ladder sums.  A log-singular integrand
# runs under `MP` only, the one context with log, sin and cos.
#
# Each fixed operation adds at most these units of 2^-W to its result:
#   one, and const of a dyadic rational that fits W bits     0
#   ln2, const (floored once per width)                      1
#   mul, sq, div, div2 (one floor each)                      1
#   log1p, atan (`log1p_fixed`, `atan_fixed`)                W/8 + 16
#   log1p_over, atan_over                                    q = W/128 + 3
#   log1p_sq_over (x^2 floored inside it)                    q + 1
#   log1p_sq = mul(sq(x), log1p_sq_over(x))                  q + 3
#   atan_x = mul(x, atan_over(x))                            q + 1
# and carries each operand's error times the size of its partial derivative.
# So a kernel is within the sum over its operations of their units, each times
# the size of the kernel's derivative with respect to that operation's value.
# Every catalog kernel has |f| <= 1 over denominators of at least 1, so that
# derivative is at most 1, but for the integer multiples (2 ln2, 2 arctan x)
# and eq06's u^2 (1/x0 <= 4): F(a) is within W/8 + 20 units, H(a) W/8 + 19,
# F'(a) 3q + 8, eq06 5, inside the W/8 + 20 that the ladder assumes.
# ---------------------------------------------------------------------------


class _MpContext:
    """mpf arithmetic at the ambient precision: expr(MP, x) is an evaluator."""

    one = 1
    ln2 = property(lambda self: constant_value(BasisConstant.LN2, mp.prec))
    const = staticmethod(lambda v: v)
    mul = staticmethod(lambda a, b: a * b)
    sq = staticmethod(lambda a: a * a)
    div = staticmethod(lambda n, d: n / d)
    div2 = staticmethod(lambda n, d1, d2: n / (d1 * d2))
    log1p = staticmethod(log1p)
    atan = atan_x = staticmethod(atan)
    log1p_sq = staticmethod(lambda x: log1p(x * x))
    # the quotients take their limit 1 at 0
    log1p_over = staticmethod(lambda u: log1p(u) / u if u else mpf(1))
    log1p_sq_over = staticmethod(lambda x: log1p(x2 := x * x) / x2 if x else mpf(1))
    atan_over = staticmethod(lambda t: atan(t) / t if t else mpf(1))
    log = staticmethod(log)
    # ln x of an abscissa, shared by the ln-x pair, and cos t and sin t, by the log-sine pair;
    # `cos_sin` rounds each of the two as `cos` and `sin` do
    log_x = staticmethod(lambda x: _shared(log, x._mpf_, mp.prec) if isinstance(x, mpf) else log(x))
    cos = staticmethod(lambda t: _shared(cos_sin, t._mpf_, mp.prec)[0] if isinstance(t, mpf) else cos(t))
    sin = staticmethod(lambda t: _shared(cos_sin, t._mpf_, mp.prec)[1] if isinstance(t, mpf) else sin(t))


MP = _MpContext()


@cache
def fixed_context(W):
    """Integers scaled by 2^W, built once per width: expr(fixed_context(W), X) is a kernel.

    Its quotients run once per node X of this width's ladders, as `MP` shares
    each mpf ln x and (cos t, sin t) once per abscissa.
    """
    floor = cache(lambda v: to_fixed(v, W))  # an mpf's raw value, floored once per width

    def mul(A, B):
        return A * B >> W

    log1p_sq_over = cache(lambda X: log1p_over_fixed(X * X >> W, W))  # ln(1+x^2)/x^2
    log1p_over = cache(lambda X: log1p_over_fixed(X, W))  # ln(1+x)/x
    atan_over = cache(lambda X: atan_over_fixed(X, W))  # arctan(x)/x
    return SimpleNamespace(
        one=1 << W,
        ln2=ln2_fixed(W),
        const=lambda v: floor(v._mpf_),
        mul=mul,
        sq=lambda A: A * A >> W,
        div=lambda N, D: (N << W) // D,
        div2=lambda N, D1, D2: (N << 2 * W) // (D1 * D2),  # N/(D1 D2) with one floor
        log1p=lambda U: log1p_fixed(U, W),
        atan=lambda T: atan_fixed(T, W),
        log1p_sq=lambda X: mul(X * X >> W, log1p_sq_over(X)),
        atan_x=lambda X: mul(X, atan_over(X)),
        log1p_over=log1p_over,
        log1p_sq_over=log1p_sq_over,
        atan_over=atan_over,
    )


class BasisConstant(Enum):
    ONE = "1"
    LN2 = "ln2"
    LN2_SQ = "ln2^2"
    PI = "pi"
    PI_LN2 = "pi*ln2"
    PI_SQ = "pi^2"
    CATALAN = "G"


# ---------------------------------------------------------------------------
# Raw constants.  pi, ln2 and G are mpmath's constants `pi`, `ln2` and
# `catalan`: +c at a width is a fixed-point series with 20 guard bits rounded
# once to nearest, the correctly rounded value at every width from 64 to 2199
# bits, checked against independent integer series.  The products in the
# basis are formed from them at bits + 8.
# ---------------------------------------------------------------------------

_MPF_CONSTANTS = {BasisConstant.PI: pi, BasisConstant.LN2: ln2, BasisConstant.CATALAN: catalan}
_PRODUCTS = {
    BasisConstant.LN2_SQ: (BasisConstant.LN2, BasisConstant.LN2),
    BasisConstant.PI_LN2: (BasisConstant.PI, BasisConstant.LN2),
    BasisConstant.PI_SQ: (BasisConstant.PI, BasisConstant.PI),
}


@cache
def constant_value(tag, bits):
    """Raw basis-constant value at `bits` bits, computed once per process."""
    if tag is BasisConstant.ONE:
        return mpf(1)
    if tag in _MPF_CONSTANTS:
        value = _MPF_CONSTANTS[tag]
    elif tag in _PRODUCTS:
        a, b = _PRODUCTS[tag]
        with workprec(bits + 8):
            value = constant_value(a, bits + 8) * constant_value(b, bits + 8)
    else:
        raise BasisError(f"unknown basis tag {tag!r}")
    with workprec(bits):
        return +value


def const_pi(p):
    """pi to within 1 ulp at p bits."""
    return round_to(constant_value(BasisConstant.PI, p.guarded), p)


def const_ln2(p):
    """ln 2 to within 1 ulp at p bits.

    mpmath's constant, not the alternating harmonic series: that series
    converges far too slowly to be a computation route and is instead
    certified separately as a catalog check.
    """
    return round_to(constant_value(BasisConstant.LN2, p.guarded), p)


def const_catalan(p):
    """Catalan's constant G to within 1 ulp at p bits."""
    return round_to(constant_value(BasisConstant.CATALAN, p.guarded), p)


# ---------------------------------------------------------------------------
# Closed forms: exact rational coefficients over the seven-constant basis.
# ---------------------------------------------------------------------------

_TAG_ORDER = {tag: i for i, tag in enumerate(BasisConstant)}


@dataclass(frozen=True)
class ClosedForm:
    """Immutable map BasisConstant -> Fraction; absent key means zero."""

    items: tuple

    def __init__(self, coefficients=()):
        mapping = dict(coefficients)
        for tag in mapping:
            if not isinstance(tag, BasisConstant):
                raise BasisError(f"{tag!r} is not a basis constant")
        items = tuple(
            sorted(
                ((tag, Fraction(v)) for tag, v in mapping.items() if Fraction(v) != 0),
                key=lambda kv: _TAG_ORDER[kv[0]],
            )
        )
        object.__setattr__(self, "items", items)

    @property
    def coefficients(self):
        return dict(self.items)

    def coefficient(self, tag):
        for t, v in self.items:
            if t is tag:
                return v
        return Fraction(0)

    def __str__(self):
        if not self.items:
            return "0"
        return " + ".join(f"({v})*{t.value}" for t, v in self.items)


def cf_add(a, b):
    """Exact sum of two closed forms."""
    out = dict(a.items)
    for tag, v in b.items:
        out[tag] = out.get(tag, Fraction(0)) + v
    return ClosedForm(out)


def cf_scale(a, r):
    """Exact rational scaling of a closed form."""
    r = Fraction(r)
    return ClosedForm({tag: v * r for tag, v in a.items})


# Multiplication by ln2 moves coefficients between slots.  Only the three
# listed source slots keep the product inside the basis; anything else is a
# hard error rather than a silent basis extension.
_LN2_SLOT = {
    BasisConstant.ONE: BasisConstant.LN2,
    BasisConstant.LN2: BasisConstant.LN2_SQ,
    BasisConstant.PI: BasisConstant.PI_LN2,
}


def cf_mul_ln2(a):
    """Exact product (closed form) * ln2, when it stays inside the basis."""
    out = {}
    for tag, v in a.items:
        target = _LN2_SLOT.get(tag)
        if target is None:
            raise BasisError(f"ln2 * {tag.value} leaves the seven-constant basis")
        out[target] = out.get(target, Fraction(0)) + v
    return ClosedForm(out)


def eval_closed_form(cf, p):
    """Evaluate a closed form numerically at precision p (guarded internally)."""
    g = p.guarded
    with workprec(g + 8):
        total = mpf(0)
        for tag, coeff in cf.items:
            c = constant_value(tag, g)
            total += mpf(coeff.numerator) / coeff.denominator * c
    return round_to(total, p)
