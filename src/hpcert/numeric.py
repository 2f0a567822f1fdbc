"""Extended-precision values, fundamental constants, and closed forms.

Everything the verifier certifies against lives here: `Precision` (an
explicit mantissa size), the seven-constant basis
{1, ln2, (ln2)^2, pi, pi*ln2, pi^2, G}, and `ClosedForm` -- an exact
rational-coefficient combination over that basis, which refuses a float
coefficient with a `TypeError`.

Internal computation runs at ``bits + GUARD_BITS``.  Every public value is a
plain `mpf` that `round_to` checks for finiteness and rounds once to
``bits`` at the boundary.  pi, ln2 and G are mpmath's correctly rounded
constants, so each public constant is within 1 ulp of the true value.

Each 1D integrand registered in `identities` but eq04's tails is written
once, as a form f = g + h ln x + k ln(b - x) of bounded expressions over the
operation contexts kept here, below it: under `MP` (mpf at the ambient
precision) they give the integrand's evaluator, and under `fixed_context(W)`
(integers scaled by 2^W) the integer kernel that the tanh-sinh ladder sums.
`MP`'s functions are mpmath's own; each `fixed_context(W)` keeps a per-node
memo of the ln(1+x^2)/x^2, arctan(x)/x and ln(1+x)/x of its nodes X, and of
the (cos x, sin x) that the log-sine kernels share.
Importing this module points mpmath's pure-Python bit count at the C
`int.bit_length`, which gives the same count on every int.
"""

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cache, lru_cache
from itertools import accumulate
import math
import sys
from types import SimpleNamespace

from mpmath import atan, catalan, cos, isfinite, libmp, ln2, log, log1p, mp, mpf, pi, sin, workprec
from mpmath.libmp import libintmath, to_fixed
from mpmath.libmp.libelefun import cos_sin_fixed, ln2_fixed, pi_fixed

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


# ---------------------------------------------------------------------------
# Fixed-point elementary functions for the integrands' integer kernels: an
# argument T stands for t = T / 2^W and a result for its value times 2^W.
# Both take mpmath's own fixed-point Taylor step, floor for floor, about the
# points a = k 2^-9 (log) and k 2^-7 (atan) that `mpf_log` and `mpf_atan` use,
# but read a's value from the tables below, not from mpmath's caches.  Each
# series term is floored once, |t - a| < 2^-7 leaves at most W/28 + 1 rounds
# of two terms, and the value at a is floored once, so a result is within
# W/8 + 16 units of 2^-W.  `log1p_fixed` runs at W + s, s <= 2 for t < 3.
#
# The tables, floor(ln(k/512) 2^P) for k = 256 ... 511 and floor(arctan(k/128)
# 2^P) for k = 0 ... 255, are built once per band of 64 precisions P, at
# F = 64 (P // 64 + 2) bits, along k: from -ln 2 by steps 2 atanh(1/(2k + 1)),
# from 0 by steps arctan(128/(16384 + k(k + 1))), each an `_odd_series` in a
# v <= 2^-7 floored once: within F/20 + 10 units of 2^-F, twice that for the
# log's 2 atanh.  The 255 steps and ln 2 leave under 255 (F/10 + 20) + 1 units,
# 2^16 at F = 2240 (the band of the widest kernel precision, 2143), far below
# the 2^64 or more in one unit of 2^-P: an entry is the exact floor unless its
# value lies within 2^-(F - 17) of a multiple of 2^-P, which the tests rule
# out at every P from 189 to 2143.
# ---------------------------------------------------------------------------


def _odd_series(V0, V, W, sign):
    """v0 sum_k (sign v^2)^k/(2k + 1) 2^W for v0 = V0 / 2^W and 0 <= v = V / 2^W <= 2^-7.

    With V0 = V, the floors of `log_taylor_cached` (atanh v) or `atan_taylor` (arctan v), in order.
    """
    V2 = V * V >> W
    V4 = V2 * V2 >> W
    S0, S1, P, k = V0, V0 // 3, V0 * V4 >> W, 5
    while P:
        S0 += P // k
        S1 += P // (k + 2)
        P = P * V4 >> W
        k += 4
    return S0 + sign * (S1 * V2 >> W)


@cache
def _log_band(b):
    """ln(k/512) 2^F for k = 256 ... 511, at F = 64 (b + 2)."""
    F = (b + 2) << 6
    steps = ((1 << F) // (2 * k + 1) for k in range(256, 511))
    return F, list(accumulate((_odd_series(V, V, F, 1) << 1 for V in steps), initial=-ln2_fixed(F)))


@cache
def _atan_band(b):
    """arctan(k/128) 2^F for k = 0 ... 255, at F = 64 (b + 2)."""
    F = (b + 2) << 6
    steps = ((1 << F + 7) // (16384 + k * (k + 1)) for k in range(255))
    return F, list(accumulate((_odd_series(V, V, F, -1) for V in steps), initial=0))


@cache
def _log_points(P):
    """floor(ln(k/512) 2^P) for k = 256 ... 511."""
    F, points = _log_band(P >> 6)
    return tuple(L >> F - P for L in points)


@cache
def _atan_points(P):
    """floor(arctan(k/128) 2^P) for k = 0 ... 255."""
    F, points = _atan_band(P >> 6)
    return tuple(A >> F - P for A in points)


def _log_taylor(Y, P):
    """ln(y) 2^P for y = Y / 2^P in [1/2, 1): `log_taylor_cached`'s step about a = k/512."""
    k = Y >> (P - 9)
    A = k << (P - 9)
    U = ((Y - A) << P) // A
    V = (U << P) // ((2 << P) + U)
    return _log_points(P)[k - 256] + (_odd_series(V, V, P, 1) << 1)


def log1p_fixed(T, W):
    """ln(1 + t) 2^W for t >= 0, as ln(2^-s (1 + t)) + s ln 2 with 2^-s (1 + t) in [1/2, 1).

    That is the reduction `mpf_log` makes, so the two share their points;
    like `mpf_log`, it returns the one exact value, ln 1 = 0, exactly.
    """
    if not T:
        return 0
    Y = (1 << W) + T
    s = Y.bit_length() - W
    return (_log_taylor(Y, W + s) + s * ln2_fixed(W + s)) >> s


def atan_fixed(T, W):
    """arctan(t) 2^W for 0 <= t < 2, the range `mpf_atan` hands `atan_taylor`: its step about a = k/128."""
    k = T >> (W - 7)
    A = k << (W - 7)
    D = T - A
    V = (D << W) // ((A * A >> W) + (A * D >> W) + (1 << W))
    return _atan_points(W)[k] + _odd_series(V, V, W, -1)


# ln(1 + u)/u and arctan(t)/t, for the integrands with a removable 0/0 at 0:
# the two functions above divided by t would lose all accuracy as t -> 0.
# From the first point past 0 on (u >= 2^-9, t >= 2^-7), each quotient
# divides its function taken at W + s, s = 9 + 4 or 7 + 4, by its argument:
# (W + s)/8 + 16 units of 2^-(W + s) over an argument of at least 2^(4 - s)
# give (W + s)/128 + 1 units, plus 1 for the division.  Below that point each
# sums its own `_odd_series` at W + 4 in powers v^2 < 2^-14: every term floored
# once, at most W/28 + 2 rounds, within W/20 + 8 units of 2^-(W + 4) before
# the final shift.  Both branches are within W/128 + 3 units of 2^-W, and
# both give exactly 2^W at 0.

QUOTIENT_GUARD = 4


def log1p_over_fixed(U, W):
    """ln(1 + u)/u 2^W for 0 <= u < 3, and its limit 2^W at u = 0."""
    g = QUOTIENT_GUARD
    if U >> (W - 9):
        s = 9 + g
        return (log1p_fixed(U << s, W + s) << W) // (U << s)
    # 2 atanh(v)/u = 2/(2 + u) sum_k v^2k/(2k + 1), with v = u/(2 + u) < 2^-10
    Wg = W + g
    D = (2 << Wg) + (U << g)
    return (_odd_series(1 << Wg, (U << g + Wg) // D, Wg, 1) << Wg + 1) // D >> g


def atan_over_fixed(T, W):
    """arctan(t)/t 2^W for 0 <= t < 2, and its limit 2^W at t = 0."""
    g = QUOTIENT_GUARD
    if T >> (W - 7):
        s = 7 + g
        return (atan_fixed(T << s, W + s) << W) // (T << s)
    return _odd_series(1 << W + g, T << g, W + g, -1) >> g


# The log-sine kernels' functions.  mpmath's `cos_sin_fixed` gives (cos t,
# sin t) within 32 units; `cos_sin_wide` runs it at W + SIN_GUARD, so that
# sin(t)/t, divided from the first point the quotients divide at, t = 2^-7,
# keeps the same W/128 + 3 units of 2^-W: 32 units of 2^-(W + 11) over t >= 2^-7
# give 2, plus 1 for the division.  Below 2^-7, sin(t)/t sums its own
# series at W + 4 in powers of t^2 < 2^-14, each term floored twice, at most
# W/14 + 2 terms.  `log_fixed` reduces y to 2^s y in [1/2, 1), as `log1p_fixed`
# does, at W + 4: within W/128 + 3 units for 1/4 <= y < 2, where |s| <= 2.

SIN_GUARD = 7 + QUOTIENT_GUARD


def cos_sin_wide(T, W):
    """(cos t, sin t) 2^(W + SIN_GUARD) for t >= 0."""
    return cos_sin_fixed(T << SIN_GUARD, W + SIN_GUARD)


def sin_over_fixed(T, W, cos_sin=cos_sin_wide):
    """sin(t)/t 2^W for 0 <= t < 2, and its limit 2^W at t = 0; from t = 2^-7 on it divides `cos_sin`(T, W)'s sine."""
    if T >> (W - 7):
        return (cos_sin(T, W)[1] << W) // (T << SIN_GUARD)
    g = QUOTIENT_GUARD
    Wg = W + g
    V = T << g
    V2 = V * V >> Wg
    S, P, k = 0, 1 << Wg, 1
    while P:  # (-t^2)^j / (2j + 1)!
        S += P
        k += 2
        P = -(P * V2 >> Wg) // ((k - 1) * k)
    return S >> g


def log_fixed(Y, W):
    """ln(y) 2^W for y > 0, as ln(2^s y) - s ln 2 with 2^s y in [1/2, 1); a `DomainError` for y <= 0."""
    if Y <= 0:
        raise DomainError(f"logarithm of a value that is not positive, {Y} 2^-{W}")
    g = QUOTIENT_GUARD
    s = W - Y.bit_length()
    Z = Y << (g + s) if g + s >= 0 else Y >> -(g + s)
    return (_log_taylor(Z, W + g) - s * ln2_fixed(W + g)) >> g


# ---------------------------------------------------------------------------
# Operation contexts.  A 1D integrand is written once, as a form
# g + h ln x + k ln(b - x) (`quadrature.expression`) of bounded expressions
# g(c, x), h(c, x) and k(c, x) over the operations below; sums and differences
# are Python's own + and -, and a product with a small integer is exact in both
# contexts.  Under `MP` the operations are mpf arithmetic at the ambient
# precision, and the form is the integrand's evaluator.  Under
# `fixed_context(W)` a value v is an integer near v 2^W, and the form is the
# integrand's kernel, which the integer tanh-sinh ladder sums, handed ln x and
# ln(b - x) beside each node.
#
# Each fixed operation adds at most these units of 2^-W to its result:
#   one, and const of a dyadic rational that fits W bits     0
#   ln2, pi, const (floored once per width)                  1
#   mul, sq, div, div2 (one floor each)                      1
#   cos, sin (`cos_sin_wide`, floored to W)                  2
#   log1p, atan (`log1p_fixed`, `atan_fixed`)                W/8 + 16
#   log1p_over, atan_over, sin_over, log (1/4 <= y < 2)      q = W/128 + 3
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
    pi = property(lambda self: constant_value(BasisConstant.PI, mp.prec))
    log = staticmethod(log)
    cos = staticmethod(cos)
    sin = staticmethod(sin)

    def sin_over(self, t):
        return self.sin(t) / t if t else mpf(1)


MP = _MpContext()


@cache
def fixed_context(W):
    """Integers scaled by 2^W, built once per width: expr(fixed_context(W), X) is a kernel.

    Its quotients, and the pair (cos t, sin t) that sin, cos and sin(t)/t read,
    run once per node X of this width's ladders.
    """
    floor = cache(lambda v: to_fixed(v, W))  # an mpf's raw value, floored once per width

    def mul(A, B):
        return A * B >> W

    log1p_sq_over = cache(lambda X: log1p_over_fixed(X * X >> W, W))  # ln(1+x^2)/x^2
    log1p_over = cache(lambda X: log1p_over_fixed(X, W))  # ln(1+x)/x
    atan_over = cache(lambda X: atan_over_fixed(X, W))  # arctan(x)/x
    cos_sin = cache(cos_sin_wide)  # (cos x, sin x) 2^(W + SIN_GUARD); W is this context's alone
    return SimpleNamespace(
        one=1 << W,
        ln2=ln2_fixed(W),
        pi=pi_fixed(W),
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
        # ln sin t on (0, pi) has the same g at a node's x1 and, next, at its x2: the last logarithm is kept
        log=lru_cache(maxsize=1)(lambda Y: log_fixed(Y, W)),
        cos=lambda X: cos_sin(X, W)[0] >> SIN_GUARD,
        sin=lambda X: cos_sin(X, W)[1] >> SIN_GUARD,
        sin_over=lambda X: sin_over_fixed(X, W, cos_sin),
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
# Raw constants.  1 is mpmath's `mp.one`, +1 being mpf(1) at every width.
# pi, ln2 and G are mpmath's constants `pi`, `ln2` and `catalan`: +c at a
# width is a fixed-point series with 20 guard bits rounded once to nearest,
# the correctly rounded value at every width from 64 to 2199 bits, checked
# against independent integer series.  The products in the basis are formed
# from them at bits + 8.
# ---------------------------------------------------------------------------

_MPF_CONSTANTS = {
    BasisConstant.ONE: mp.one, BasisConstant.PI: pi, BasisConstant.LN2: ln2, BasisConstant.CATALAN: catalan
}
_PRODUCTS = {
    BasisConstant.LN2_SQ: (BasisConstant.LN2, BasisConstant.LN2),
    BasisConstant.PI_LN2: (BasisConstant.PI, BasisConstant.LN2),
    BasisConstant.PI_SQ: (BasisConstant.PI, BasisConstant.PI),
}


@cache
def constant_value(tag, bits):
    """Raw basis-constant value at `bits` bits, computed once per process."""
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


def _exact(v):
    """v as a Fraction; a float would make the form silently inexact, so it is a TypeError."""
    if isinstance(v, float):
        raise TypeError(f"closed-form coefficient {v!r} is a float, not an exact rational")
    return Fraction(v)


@dataclass(frozen=True)
class ClosedForm:
    """Immutable map BasisConstant -> Fraction; absent key means zero."""

    items: tuple

    def __init__(self, coefficients=()):
        mapping = dict(coefficients)
        for tag in mapping:
            if not isinstance(tag, BasisConstant):
                raise BasisError(f"{tag!r} is not a basis constant")
        exact = {tag: _exact(v) for tag, v in mapping.items()}
        items = tuple(sorted(((tag, v) for tag, v in exact.items() if v), key=lambda kv: _TAG_ORDER[kv[0]]))
        object.__setattr__(self, "items", items)

    @property
    def coefficients(self):
        return dict(self.items)


def cf_add(a, b):
    """Exact sum of two closed forms."""
    out = dict(a.items)
    for tag, v in b.items:
        out[tag] = out.get(tag, Fraction(0)) + v
    return ClosedForm(out)


def cf_scale(a, r):
    """Exact rational scaling of a closed form."""
    r = _exact(r)
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
