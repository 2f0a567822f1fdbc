"""Deterministic 1D and tensor-2D quadrature with error estimates.

Two rules are provided.  Tanh-sinh (double-exponential) handles integrable
logarithmic endpoint singularities and is the default for every 1D check;
Gauss-Legendre is the building block for smooth integrands and the only
inner rule of the 2D tensor rule.  Both report ``error_estimate =
|T_k - T_{k-1}|`` for the final refinement step and stop early once that
difference falls below ``2^-(bits - STOP_MARGIN)``; reaching the refinement
cap, a function of the ladder's width, first raises `NonconvergenceError`.

All three rules (1D tanh-sinh and Gauss-Legendre, 2D tensor Gauss-Legendre)
run through one refinement driver, `_refine`; a 2D integrand that declares a
product form has its rungs summed in fixed-point integers (`_product_sum`).

Node tables are cached per precision, so repeated integrations share the
(comparatively expensive) table setup.  Tanh-sinh levels are built on
demand, when refinement first reaches them, and appended to the cached
table; a level never changes once built.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

from mpmath import exp, isfinite, ldexp, mp, mpf, pi, workprec

from .errors import DomainError, NonconvergenceError
from .numeric import GUARD_BITS, round_to

MAX_LEVEL = 15
MIN_ORDER, MAX_ORDER = 2, 4096
STOP_MARGIN = 8  # a ladder stops once |T_k - T_{k-1}| <= 2^-(bits - STOP_MARGIN)


@dataclass(frozen=True)
class PiMultiple:
    """An interval endpoint of the form (rational) * pi, e.g. pi/2."""

    coef: Fraction

    def resolve(self):
        c = Fraction(self.coef)
        return pi * c.numerator / c.denominator


def _endpoint_value(e):
    if isinstance(e, PiMultiple):
        return e.resolve()
    f = Fraction(e)
    return mpf(f.numerator) / f.denominator


@dataclass(frozen=True)
class Integrand:
    """A registered integrand over a finite interval or square.

    The evaluator is a pure function defined on the *open* domain; an
    endpoint whose singular flag is False must also evaluate finite at the
    closed endpoint (removable singularities must return their limit).
    """

    id: str
    evaluator: Callable
    domain: tuple  # (a, b) in 1D, ((a, b), (c, d)) in 2D
    singular_left: bool = False
    singular_right: bool = False
    product: Optional[tuple] = None  # 2D only: (g, h) with f = g(x) g(y) h(xy)

    @property
    def dimension(self):
        return 2 if isinstance(self.domain[0], tuple) else 1


@dataclass(frozen=True)
class TanhSinh:
    """Tanh-sinh levels 1, 2, ... up to `ts_level_cap` of the ladder width."""


@dataclass(frozen=True)
class GaussLegendre:
    """Gauss-Legendre orders 8, 16, ... up to `gl_order_cap` of the ladder width."""


@dataclass(frozen=True)
class QuadResult:
    value: mpf
    error_estimate: mpf
    evaluations: int
    level_or_order: int


# Each rule's refinement cap is a function of the ladder width, p.guarded.  A
# catalog report of p bits runs its ladders at p + 64 and reaches at deepest:
#   report bits   109   128   256   512  1024  2048
#   width         173   192   320   576  1088  2112
#   level           6     6     7     8     9    10   (cap 11 11 12 13 14 15)
#   eq05 order     64   128   128   256   512  1024   (cap 256 ... 4096)


def ts_level_cap(bits):
    """The deepest tanh-sinh level a ladder at width `bits` may reach."""
    return min(bits.bit_length() + 3, MAX_LEVEL)


def gl_order_cap(bits):
    """The highest Gauss-Legendre order a ladder at width `bits` may reach."""
    order = 8
    while order < bits and order < MAX_ORDER:
        order *= 2
    return order


def _interval(domain):
    """(a, b, half-width, midpoint) of a 1D domain at the ambient precision."""
    a = _endpoint_value(domain[0])
    b = _endpoint_value(domain[1])
    return a, b, (b - a) / 2, (a + b) / 2


def _eval_checked(f, integrand, *xs):
    y = f(*xs)
    if not isfinite(y):
        at = ", ".join(mp.nstr(x, 12) for x in xs)
        where = f"x={at}" if len(xs) == 1 else f"({at})"
        raise DomainError(f"integrand {integrand.id!r} returned non-finite value at {where}")
    return y


def _refine(ladder, p, rule, cap):
    """The refinement driver shared by every rule.

    `ladder` is a generator of (step, T_k, evaluations so far), run at the
    guarded width of p until |T_k - T_{k-1}| <= 2^-(p.bits - STOP_MARGIN); running
    out of steps first raises `NonconvergenceError`, naming `rule` and `cap`.
    """
    tau = ldexp(1, -(p.bits - STOP_MARGIN))
    prev = est = None
    with workprec(p.guarded):
        for step, T, evals in ladder:
            if prev is not None:
                est = abs(T - prev)
                if est <= tau:
                    break
            prev = T
        else:
            raise NonconvergenceError(
                f"{rule} did not reach 2^-{p.bits - STOP_MARGIN} by {cap}"
                f" (last difference {mp.nstr(est, 8)})",
                value=T,
                error_estimate=est,
                evaluations=evals,
            )
    return QuadResult(
        value=round_to(T, p),
        error_estimate=round_to(est, p),
        evaluations=evals,
        level_or_order=step,
    )


# ---------------------------------------------------------------------------
# Tanh-sinh node tables.
#
# Transformation x = tanh((pi/2) sinh t) on the trapezoid grid t = k*2^-level.
# Each positive-t node is stored as (delta, omega) with delta = 1 - tanh(u)
# computed stably as 2q/(1+q) for q = e^(-2u), and
# omega = (pi/2) cosh(t) / cosh(u)^2.  Keeping delta rather than the abscissa
# is what lets a singular evaluator see the true distance to the endpoint
# instead of a catastrophically rounded one; delta falls strictly with t.
#
# Tables are cumulative: level k holds only the nodes new at step 2^-k, so
# the trapezoid sums refine incrementally.  Levels are built on demand: a
# ladder asks for level k only when it reaches it, and new levels are
# appended to the cached list; a built level never changes.  Each level
# depends only on its own step, so a table built lazily holds the same nodes
# as one built eagerly.  Truncation: nodes are generated until the canonical
# weight h*omega drops below 2^-(bits+32).  Each domain's abscissae at a level
# are computed once and cached beside the table, since most catalog integrals
# share [0, 1].
# ---------------------------------------------------------------------------

_TS_TABLES = {}  # bits -> list per level of tuple[(delta, omega), ...]


def _ts_gen_bits(bits):
    return bits + GUARD_BITS + 16


def _ts_levels(bits, up_to_level):
    # level 0 contributes only the center node
    levels = _TS_TABLES.setdefault(bits, [()])
    if len(levels) > up_to_level:
        return levels
    threshold = ldexp(1, -(bits + 32))
    with workprec(_ts_gen_bits(bits)):
        piq = pi / 2
        while len(levels) <= up_to_level:
            lev = len(levels)
            h = ldexp(1, -lev)
            # level 1 takes every multiple of 1/2; deeper levels add the odd
            # multiples of their step
            k, step = 1, 1 if lev == 1 else 2
            new = []
            while True:
                et = exp(k * h)
                ch = (et + 1 / et) / 2
                sh = (et - 1 / et) / 2
                q = exp(-2 * piq * sh)
                omega = piq * ch * 4 * q / ((1 + q) * (1 + q))
                if h * omega < threshold:
                    break
                new.append((2 * q / (1 + q), omega))
                k += step
            levels.append(tuple(new))
    return levels


def tanh_sinh_nodes(level, p):
    """Abscissa/weight pairs on [-1, 1] for the given refinement level.

    Level 0 is the single center node t = 0; level k in [1, MAX_LEVEL] is the
    full grid of step 2^-k, rounded to p.bits from the table `integrate` uses
    at p (keyed at p.guarded).  The list is symmetric about 0 and all weights
    are positive.
    """
    if not 0 <= level <= MAX_LEVEL:
        raise ValueError(f"level must lie in [0, {MAX_LEVEL}]")
    levels = _ts_levels(p.guarded, level)
    # descending delta is ascending t, a total order even where the rounded
    # abscissae collide at +-1
    nodes = [n for lev in levels[1 : level + 1] for n in lev]
    nodes.sort(key=lambda n: n[0], reverse=True)
    with workprec(_ts_gen_bits(p.guarded)):
        xs = [1 - delta for delta, _ in nodes]
    with workprec(p.bits):
        h = ldexp(1, -level)
        center = (mpf(0), +(h * pi / 2))
        pos = [(+x, +(h * omega)) for x, (_, omega) in zip(xs, nodes)]
        neg = [(-x, w) for x, w in reversed(pos)]
        return neg + [center] + pos


_TS_ABSCISSAE = {}  # (domain, bits, level) -> tuple[(a + halfw delta, b - halfw delta, omega), ...]


def _ts_abscissae(domain, bits, lev):
    nodes = _ts_levels(bits, lev)[lev]  # read first, so the table grows exactly as before
    key = (domain, bits, lev)
    hit = _TS_ABSCISSAE.get(key)
    if hit is None:
        with workprec(bits):  # the width `_refine` runs the ladder at: a hit is its very mpf
            a, b, halfw, _ = _interval(domain)
            hit = _TS_ABSCISSAE[key] = tuple((a + halfw * d, b - halfw * d, w) for d, w in nodes)
    return hit


def _ts_ladder(integrand, cap, bits):
    a, b, halfw, mid = _interval(integrand.domain)
    f = integrand.evaluator
    S = (pi / 2) * _eval_checked(f, integrand, mid)
    evals = 1
    for lev in range(1, cap + 1):
        for xm, xp, omega in _ts_abscissae(integrand.domain, bits, lev):
            if integrand.singular_left and xm == a:
                fm = mpf(0)  # weight already below truncation noise
            else:
                fm = _eval_checked(f, integrand, xm)
                evals += 1
            if integrand.singular_right and xp == b:
                fp = mpf(0)
            else:
                fp = _eval_checked(f, integrand, xp)
                evals += 1
            S += omega * (fm + fp)
        yield lev, ldexp(halfw * S, -lev), evals


# ---------------------------------------------------------------------------
# Gauss-Legendre nodes: each positive root of P_n is seeded in float64 by
# Newton on the three-term recurrence from the asymptotic guess
# cos(pi (k - 1/4) / (n + 1/2)), then polished by Newton on P_n and P_n'
# evaluated in integers scaled by 2^w, doubling w each step up to W.
#
# Error bound: the recurrence is stable on |x| <= 1, so P_n and P_{n-1} carry
# at most ~n^2 units of 2^-W, and so does the Newton correction, as
# |P_n'| >= 1 at every root.  Newton stops once its correction at width W is
# below 4 n^2 units, leaving x good to ~4 n^2 2^-W.  As 1 - x^2 >= ~(2.4/n)^2,
# the weight 2 (1 - x^2) / (n P_{n-1} - n x P_n)^2 from that last evaluation
# is good to ~4 n^4 2^-W = 2^-(gen_bits + 30 - 2 bit_length(n)) relative,
# before the one rounding to gen_bits.
# ---------------------------------------------------------------------------

_GL_TABLES = {}  # (order, bits) -> tuple[(x, w), ...] for x >= 0


def _gl_seed(n, k):
    # dx < 1e-12 leaves an error below float resolution up to MAX_ORDER
    x = math.cos(math.pi * (k - 0.25) / (n + 0.5))
    while True:
        p0, p1 = 1.0, x
        for j in range(2, n + 1):
            p0, p1 = p1, ((2 * j - 1) * x * p1 - (j - 1) * p0) / j
        dx = p1 * (1 - x * x) / (n * (p0 - x * p1))
        x -= dx
        if abs(dx) < 1e-12:
            return x


def _gl_newton(n, X, w):
    """(P_n / P_n', (1 - x^2) P_n', 1 - x^2) at x = X / 2^w, scaled by 2^w."""
    p0, p1 = 1 << w, X
    for k in range(2, n + 1):
        p0, p1 = p1, ((X * p1 >> w) * (2 * k - 1) - (k - 1) * p0) // k
    q = n * (p0 - (X * p1 >> w))
    one_m = (1 << w) - (X * X >> w)
    return p1 * one_m // q, q, one_m


def _gl_halfline(order, bits):
    key = (order, bits)
    cached = _GL_TABLES.get(key)
    if cached is not None:
        return cached
    gen_bits = bits + 16
    W = gen_bits + 32 + 2 * order.bit_length()
    # an odd rule's center seed 0 stays exactly 0: P_n(0) = 0 in integers too
    seeds = [0.0] * (order % 2) + [_gl_seed(order, k) for k in range(order // 2, 0, -1)]
    out = []
    for x in seeds:
        w, X = 53, int(math.ldexp(x, 53))
        while True:
            X <<= min(w, W - w)
            w = min(2 * w, W)
            D, q, one_m = _gl_newton(order, X, w)
            if w == W and abs(D) < 4 * order * order:
                break
            X -= D
        with workprec(gen_bits):
            out.append((ldexp(mpf(X), -W), ldexp(mpf((one_m << 2 * W + 1) // (q * q)), -W)))
    table = tuple(out)
    _GL_TABLES[key] = table
    return table


def gauss_legendre_nodes(order, p):
    """Full symmetric node/weight list of the n-point rule on [-1, 1]."""
    if not MIN_ORDER <= order <= MAX_ORDER:
        raise ValueError(f"order must lie in [{MIN_ORDER}, {MAX_ORDER}]")
    half = _gl_halfline(order, p.guarded)
    with workprec(p.bits):
        pos = [(+x, +w) for x, w in half if x != 0]
        neg = [(-x, w) for x, w in reversed(pos)]
        return neg + [(mpf(0), +w) for x, w in half if x == 0] + pos


def _gl_orders(cap):
    """A ladder's rungs 8, 16, ..., cap: all even, so `_gl_axis` pairs every node."""
    return [8 << i for i in range((cap // 8).bit_length())]


def _gl_axis(domain, half_nodes):
    """An even rule's points mid + halfw x, mid - halfw x, pair by pair, with their weights."""
    _a, _b, halfw, mid = _interval(domain)
    pts = []
    for x, w in half_nodes:
        pts.extend(((mid + halfw * x, w), (mid - halfw * x, w)))
    return pts, halfw


def _gl_ladder(integrand, cap, bits):
    f = integrand.evaluator
    evals = 0
    for order in _gl_orders(cap):
        pts, halfw = _gl_axis(integrand.domain, _gl_halfline(order, bits))
        S = mpf(0)
        for (xp, w), (xm, _) in zip(pts[::2], pts[1::2]):
            S += w * (_eval_checked(f, integrand, xp) + _eval_checked(f, integrand, xm))
        evals += len(pts)
        yield order, halfw * S, evals


def integrate(f, s, p):
    """Integrate a 1D integrand with the given scheme at precision p.

    Arithmetic runs at the guarded width; the refinement loop stops once
    the level/order difference reaches 2^-(p.bits - STOP_MARGIN).
    """
    if f.dimension != 1:
        raise ValueError(f"integrate() needs a 1D integrand, got dimension {f.dimension}")
    if isinstance(s, TanhSinh):
        cap = ts_level_cap(p.guarded)
        return _refine(_ts_ladder(f, cap, p.guarded), p, f"tanh-sinh on {f.id!r}", f"level {cap}")
    if isinstance(s, GaussLegendre):
        if f.singular_left or f.singular_right:
            raise DomainError(f"Gauss-Legendre refuses singular integrand {f.id!r}; use tanh-sinh")
        cap = gl_order_cap(p.guarded)
        ladder = _gl_ladder(f, cap, p.guarded)
        return _refine(ladder, p, f"Gauss-Legendre on {f.id!r}", f"order {cap}")
    raise ValueError(f"scheme {s!r} does not apply to a 1D integrand")


# ---------------------------------------------------------------------------
# 2D tensor Gauss-Legendre rule over a rectangle (in practice: the unit square).
#
# A declared product (g, h) gives h(T, W) = h(T / 2^W) 2^W in integers, and
# `_product_sum` sums a rung at W = prec + 8 + bit_length(n): A_i = w_i g(x_i) 2^W
# and U_i = x_i 2^W are truncated once per node, then sum_i A_i sum_j A_j
# h(U_i U_j >> W) is exact.  For nodes in [-1, 1], |g| <= 1 (sum |A| <= 2) and h
# within 8 units with |h|, |h'| <= 1, each h is within 3 + 8 units and the sum
# within 4n + 44, i.e. (n + 11) 2^-W <= 2^-(prec + 4) after the factor 1/4.
# ---------------------------------------------------------------------------


def _tensor_sum(integrand, ptsx, ptsy):
    """sum_x wx * sum_y wy * f(x, y) over (point, weight) lists, and its evaluations."""
    f = integrand.evaluator
    S = mpf(0)
    for x, wx in ptsx:
        row = mpf(0)
        for y, wy in ptsy:
            row += wy * _eval_checked(f, integrand, x, y)
        S += wx * row
    return S, len(ptsx) * len(ptsy)


def _product_sum(integrand, ptsx, ptsy):
    """`_tensor_sum` of an integrand with a product form, in fixed-point integers."""
    g, h = integrand.product
    W = mp.prec + 8 + max(len(ptsx), len(ptsy)).bit_length()

    def axis(pts):
        return [(int(ldexp(w * _eval_checked(g, integrand, x), W)), int(ldexp(x, W))) for x, w in pts]

    ay = axis(ptsy)
    S = sum(A * sum(B * h(U * V >> W, W) for B, V in ay) for A, U in axis(ptsx))
    return ldexp(mpf(S), -3 * W), len(ptsx) * len(ptsy)


def _tensor_gl_ladder(integrand, cap, bits):
    domx, domy = integrand.domain
    tensor_sum = _product_sum if integrand.product else _tensor_sum
    evals = 0
    for order in _gl_orders(cap):
        half = _gl_halfline(order, bits)
        ptsx, halfx = _gl_axis(domx, half)
        ptsy, halfy = _gl_axis(domy, half)
        S, n = tensor_sum(integrand, ptsx, ptsy)
        evals += n
        yield order, halfx * halfy * S, evals


def integrate_2d(f, s, p):
    """Integrate a 2D integrand with the tensor product of the Gauss-Legendre rule."""
    if f.dimension != 2:
        raise ValueError(f"integrate_2d() needs a 2D integrand, got dimension {f.dimension}")
    if not isinstance(s, GaussLegendre):
        raise ValueError(f"the 2D tensor rule is Gauss-Legendre only, got {s!r}")
    if f.singular_left or f.singular_right:
        raise DomainError(f"2D tensor rule requires a smooth integrand, got flags on {f.id!r}")
    cap = gl_order_cap(p.guarded)
    ladder = _tensor_gl_ladder(f, cap, p.guarded)
    return _refine(ladder, p, f"2D Gauss-Legendre on {f.id!r}", f"order {cap}")
