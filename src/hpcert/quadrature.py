"""Deterministic 1D and tensor-2D quadrature with error estimates.

Two rules are provided.  Tanh-sinh (double-exponential) handles integrable
logarithmic endpoint singularities and is the default for every 1D check;
Gauss-Legendre is the building block for smooth integrands and the only
inner rule of the 2D tensor rule.  Both report ``error_estimate =
|T_k - T_{k-1}|`` for the final refinement step and stop early once that
difference falls below ``2^-(bits - STOP_MARGIN)``; reaching the refinement
cap, a function of the ladder's width, first raises `NonconvergenceError`.

A domain end is a rational or a `ClosedForm`, and a 2D integrand lives on a
square.  Both rules hand over a level or rung as mirrored pairs (x1, x2, w);
all three rules (1D tanh-sinh and Gauss-Legendre, 2D tensor Gauss-Legendre)
run through one refinement driver, `_refine`, and both Gauss-Legendre rules
through one ladder, `_gl_ladder`.  A 1D integrand's declared `form`,
g + h ln x + k ln(b - x), moves its tanh-sinh levels into fixed-point integers,
summed by `_ts_fixed_ladder`; without one they are summed in mpf by
`_ts_ladder`, as 1D Gauss-Legendre rungs are by `_pair_sum`.  A 2D integrand
is always a product form g(x) g(y) h(xy), whose rungs `_product_sum` sums in
integers.

Node tables are cached per precision, so repeated integrations share the
(comparatively expensive) table setup.  Tanh-sinh levels are built on
demand, when refinement first reaches them, and appended to the cached
table; a level never changes once built.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, partial
from itertools import chain, repeat
from typing import Callable, Optional

from mpmath import exp, isfinite, ldexp, log, mp, mpc, mpf, pi, workprec
from mpmath.libmp import to_fixed
from mpmath.libmp.libelefun import pi_fixed

from .errors import DomainError, NonconvergenceError
from .numeric import (
    GUARD_BITS, MP, BasisConstant, ClosedForm, constant_value, fixed_context, log1p_over_fixed, round_to
)

MAX_LEVEL = 15
MIN_ORDER, MAX_ORDER = 2, 4096
STOP_MARGIN = 8  # a ladder stops once |T_k - T_{k-1}| <= 2^-(bits - STOP_MARGIN)


def _rational_end(e):
    """A domain end, a `ClosedForm` of no term but 1 as its rational: one interval, one spelling and one cache key."""
    rational = isinstance(e, ClosedForm) and e.coefficients.keys() <= {BasisConstant.ONE}
    return e.coefficients.get(BasisConstant.ONE, Fraction(0)) if rational else e


def _endpoint_value(e):
    """A domain end, a rational or a `ClosedForm`, at the ambient precision: c pi is pi * n / d."""
    if isinstance(e, ClosedForm):
        return sum(constant_value(tag, mp.prec) * c.numerator / c.denominator for tag, c in e.items)
    f = Fraction(e)
    return mpf(f.numerator) / f.denominator


@dataclass(frozen=True)
class Integrand:
    """A registered integrand over a finite interval (a, b) or a square (a, b)^2.

    Each end is a rational or a `ClosedForm`.  The evaluator is a pure
    function defined on the *open* domain; an endpoint whose singular flag is
    False must also evaluate finite at the closed endpoint (removable
    singularities must return their limit).  A plain evaluator singular at b,
    or at an a other than 0, sees abscissae whose distance to that end is
    rounded to the ulp of the end; a form with k on (0, b) carries it exactly.
    Refused when built: a 2D integrand off a square, with a singular flag or
    without a product form, and a form whose shape is not its domain's, whose
    flags are not those of its logarithms, or with a logarithm on a domain
    whose left end is not 0.
    """

    id: str
    evaluator: Callable
    domain: tuple  # (a, b) in 1D, ((a, b), (a, b)) in 2D
    singular_left: bool = False
    singular_right: bool = False
    # expressions over a `numeric` context: (g, h, k) in 1D, f = g(x) + h(x) ln x + k(x) ln(b - x),
    # an absent h or k no such term (`expression`); (g, h) in 2D, f = g(x) g(y) h(xy) (`product`)
    form: Optional[tuple] = None

    def __post_init__(self):
        ends = tuple(tuple(map(_rational_end, e)) if isinstance(e, tuple) else _rational_end(e) for e in self.domain)
        object.__setattr__(self, "domain", ends)
        if self.dimension == 2 and (self.domain[0] != self.domain[1] or self.singular_left or self.singular_right):
            raise ValueError(f"a 2D integrand is smooth on a square, got {self.domain!r} on {self.id!r}")
        parts = 3 if self.dimension == 1 else 2
        if self.form is not None and len(self.form) != parts:
            raise ValueError(f"a {self.dimension}D form has {parts} parts, got {len(self.form)} on {self.id!r}")
        if self.form is None and parts == 2:
            raise ValueError(f"a 2D integrand is a product form, got none on {self.id!r}")
        if self.form and parts == 3:
            _g, h, k = self.form
            if (self.singular_left, self.singular_right) != (bool(h), bool(k)):
                raise ValueError(f"a form is singular where it has a logarithm, got other flags on {self.id!r}")
            if (h or k) and self.domain[0] != 0:
                raise ValueError(f"a form with a logarithm needs a domain whose left end is 0, got {self.domain!r}")

    @property
    def dimension(self):
        return 2 if isinstance(self.domain[0], tuple) else 1


def expression(id, g, *, h=None, k=None, domain=(0, 1)):
    """g(x) + h(x) ln x + k(x) ln(b - x) on (a, b), g, h and k each a bounded expression over a `numeric` context.

    An absent h or k is no such term; with either, a is 0 and the integrand is
    singular at that end.  Its evaluator is the sum under `MP`, and the integer
    ladder sums it under fixed_context(W).
    """

    def evaluator(x):
        y = g(MP, x)
        if h:
            y += h(MP, x) * log(x)
        if k:
            y += k(MP, x) * log(_endpoint_value(domain[1]) - x)
        return y

    return Integrand(id, evaluator, domain, singular_left=bool(h), singular_right=bool(k), form=(g, h, k))


def product(id, g, h):
    """g(x) g(y) h(xy) on the unit square, g and h each an expression; its evaluator is that product under `MP`."""
    return Integrand(id, lambda x, y: g(MP, x) * g(MP, y) * h(MP, x * y), ((0, 1), (0, 1)), form=(g, h))


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


def _checked(y, integrand, xs):
    """y, the integrand's value at the point xs, if it is real and finite; else a `DomainError`."""
    real = not isinstance(y, (mpc, complex))
    if real and isfinite(y):
        return y
    at = ", ".join(mp.nstr(x, 12) for x in xs)
    where = f"x={at}" if len(xs) == 1 else f"({at})"
    problem = "non-finite" if real else "non-real"
    raise DomainError(f"integrand {integrand.id!r} returned {problem} value at {where}")


def _pair_sum(integrand, pairs, S=0, a=None, b=None):
    """S + sum of w * (f(x1) + f(x2)) over `pairs` of (x1, x2, w), and the evaluations made.

    The sum is ``S += w * (f(x1) + f(x2))`` at the ambient precision.  Each
    pair is tested once: only a pair that is not a finite mpf has its two values
    checked one by one, so a `DomainError` still names the point.  On a singular
    end, x1 == a (x2 == b) contributes zero without an evaluation; a left end at
    0 is never tested, as no abscissa a + halfw*delta reaches it.
    """
    f = integrand.evaluator
    skip_left, skip_right = integrand.singular_left and a != 0, integrand.singular_right
    evals = 0
    for x1, x2, w in pairs:
        if skip_left and x1 == a:
            y1 = mp.zero  # weight already below truncation noise
        else:
            y1 = f(x1)
            evals += 1
        if skip_right and x2 == b:
            y2 = mp.zero
        else:
            y2 = f(x2)
            evals += 1
        pair = y1 + y2
        if not (isinstance(pair, mpf) and isfinite(pair)):  # an int, a float, inf, nan or non-real
            pair = _checked(y1, integrand, (x1,)) + _checked(y2, integrand, (x2,))
        S += w * pair
    return S, evals


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
                f" (last difference {mp.nstr(est, 8)})"
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
# Each positive-t node is stored as (delta, omega, ln q) with delta = 1 - tanh(u)
# computed stably as 2q/(1+q) for q = e^(-2u), u = (pi/2) sinh t, and
# omega = (pi/2) cosh(t) / cosh(u)^2.  Keeping delta rather than the abscissa
# keeps the true distance to an endpoint: an evaluator sees it in an abscissa
# halfw delta next to 0, though an mpf b - halfw delta next to b rounds it to
# ulp(b); delta falls strictly with t.  ln q = -2u, formed on the way to q,
# gives the ln-x column its logarithms of the distance to either end.
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

_TS_TABLES = {}  # bits -> list per level of tuple[(delta, omega, ln q), ...]


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
                inv = 1 / et
                ch = (et + inv) / 2
                sh = (et - inv) / 2
                ln_q = -2 * piq * sh
                q = exp(ln_q)
                q1 = 1 + q
                omega = piq * ch * 4 * q / (q1 * q1)
                if h * omega < threshold:
                    break
                new.append((2 * q / q1, omega, ln_q))
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
    if not isinstance(level, int) or not 0 <= level <= MAX_LEVEL:
        raise ValueError(f"level must be an int in [0, {MAX_LEVEL}]")
    levels = _ts_levels(p.guarded, level)
    # descending delta is ascending t, a total order even where the rounded
    # abscissae collide at +-1
    nodes = [n for lev in levels[1 : level + 1] for n in lev]
    nodes.sort(key=lambda n: n[0], reverse=True)
    with workprec(_ts_gen_bits(p.guarded)):
        xs = [1 - delta for delta, _, _ in nodes]
    with workprec(p.bits):
        h = ldexp(1, -level)
        center = (mpf(0), +(h * pi / 2))
        pos = [(+x, +(h * omega)) for x, (_, omega, _) in zip(xs, nodes)]
        neg = [(-x, w) for x, w in reversed(pos)]
        return neg + [center] + pos


@cache
def _ts_abscissae(domain, bits, lev):
    nodes = _ts_levels(bits, lev)[lev]
    with workprec(bits):  # the width `_refine` runs the ladder at: a hit is its very mpf
        a, b, halfw, _ = _interval(domain)
        return tuple((a + halfw * d, b - halfw * d, w) for d, w, _ in nodes)


def _ts_ladder(integrand, cap, bits):
    a, b, halfw, mid = _interval(integrand.domain)
    S = (pi / 2) * _checked(integrand.evaluator(mid), integrand, (mid,))
    evals = 1
    for lev in range(1, cap + 1):
        S, n = _pair_sum(integrand, _ts_abscissae(integrand.domain, bits, lev), S, a, b)
        evals += n
        yield lev, ldexp(halfw * S, -lev), evals


# ---------------------------------------------------------------------------
# Fixed-point tanh-sinh ladder, for a 1D form (g, h, k).  With no h or k, its
# kernel g(fixed_context(W), X) is within c = W/8 + 20 units of f(X / 2^W) 2^W.
# At ladder width `bits` it runs at W = bits + FIXED_EXTRA_BITS: each node's
# abscissae (within 3 units) and weight (within 1) are floored to W bits once
# and cached, every level is summed exactly in integers, and each T_k is
# rounded to mpf once.  With |f| <= 1 and |f'| <= L on the domain, an
# evaluation is within c + 3L units, a floored weight moves a term by at most
# 2 units, the level-k weights of one side sum to 2^k and there are fewer than
# 2^(k+3) nodes a side: T_k is within halfw (2c + 6L + 18) 2^-W of the
# trapezoid sum on its exact nodes.  The bound covers the bounded kernels;
# those of the integrands with a logarithmic end are below.  Every catalog
# kernel has |f| <= 1, and its L, sup |f'| (401 sample points, pinned in the
# tests), is: middle_t 3/2, at 0; H(a) a, at most 1 + h; i3, eq16 and
# middle_alpha 1; eq06 0.66; eq17 0.55; x ln(1 + x^2)/(1 + x^2) 0.55; i1 0.51;
# ln(1 + t)/t 1/2; i2 and F(a) 0.44; F'(a) 0.39; a 0.36; c 0.33; b 0.31;
# H'(a) 0.12.  So with L <= 3/2 and halfw <= 1/2 the bound is below
# 2^-(bits + 7) at any W up to 2500.  The steps, the stop test and the
# evaluation count are those of `_ts_ladder`.
#
# A form with h or k, f = g + h ln x + k ln(b - x) on (0, b), sums the kernel
# g(X) + h(X) L + k(X) M, where L and M are ln x 2^W and ln(b - x) 2^W, cached
# beside each abscissa by `_ts_ln_x_nodes`.
# A node's abscissae are x2 = b/(1 + q) and x1 = q x2 = b - x2, so
# L2 = ln b - ln(1 + q), L1 = L2 + ln q, and each abscissa's M is its mirror's
# L: the distance to either end is carried, not formed (Mori & Sugihara,
# J. Comput. Appl. Math. 127, 2001), and no logarithm comes from X1, which
# floors to 0 on the innermost nodes (delta reaches 2^-351 at W = 336).
# q = delta/(2 - delta) is floored to Q within 2 units, ln(1 + q) is
# Q `log1p_over_fixed`(Q) within q + 3 (q = W/128 + 3, as in `numeric`), and
# ln b and ln q are floored once, so L and M are within q + 7 units.  ln q and
# ln(1 + q) are the level's alone (`_ts_ln_q_column`): each domain adds its ln b.
# On a singular right end the ladder skips each node whose mpf abscissa
# b - halfw delta, at the ladder's width, is b (`_ts_right_skips`), as
# `_pair_sum` does: its x2 adds 0 and is not counted.  A node kept has
# b - x2 >= 2^-bits, 2^16 units.
#
# The ln-x pair on [0, 1] has no k.  With |g|, |h| <= 1, kernels within cg and
# ch units, |g'| <= Lg and |h'| <= Lh, an evaluation is within
# cg + 3Lg + 1 + (q + 7) + (ch + 3Lh) |ln x| units (the 1 is the floor of h L).
# The catalog's h is -1/(1 + x^2): ch = 2, Lh = 0.65; its g is i1's kernel
# (cg = q + 5, Lg = 0.51) or 0.  So an evaluation is within E + 4 |ln x|,
# E = 2q + 15, and as |ln x| <= l = (W + 20) ln 2 on every node, |f| <= 1 + l:
# a floored weight moves a term by at most 2 + 2l units, and T_k is within
# halfw (2E + 24 l + 18) 2^-W, below 2^-(bits + 1) at any W up to 2500.
#
# The log-sine three have each h and k 1 or absent, and g = ln y, y in [1/pi, 1]:
# ln(sin t / t); ln(sin t / (t (pi - t))), from sin(u)/u at the nearer end u;
# and ln(cos t / (pi/2 - t)), from the cosine of X itself, never the sine of its
# distance to pi/2, so that `app1_logsine_funceq` compares two sums and not one
# sum with itself.  With |g| <= 1.15 and |g'| <= 0.64 (pinned in the tests),
# an evaluation is within E = 5q + 20 units, L and M included; ln cos t's
# quotient divides a cosine within 2 units by pi - 2X, and adds 4/(b - x).
# A node's weight is at most (b - x) h pi cosh t / halfw, and a node's t at
# most asinh(l/pi), so that term adds at most 8l units to T_k.  As
# |ln x1| + |ln x2| <= l + 1.15, a floored weight moves a node's two terms by
# at most 2l + 5 units: T_k is within halfw (2E + 16l + 40) + 8l units of the
# trapezoid sum on its exact nodes, before its one rounding to mpf, and below
# 2^-bits at any W up to 2500.
# ---------------------------------------------------------------------------

FIXED_EXTRA_BITS = 16


def _fixed_interval(domain, W):
    """(a, b, halfw) of a 1D domain, floored to W-bit fixed point."""
    with workprec(W + 8):
        return tuple(to_fixed(v._mpf_, W) for v in _interval(domain)[:3])


@cache
def _ts_fixed_nodes(domain, bits, lev):
    """Level lev's (X1, X2, Omega), scaled by 2^(bits + FIXED_EXTRA_BITS)."""
    W = bits + FIXED_EXTRA_BITS
    A, B, H = _fixed_interval(domain, W)
    fixed = []
    for d, w, _ in _ts_levels(bits, lev)[lev]:  # the table is wider than W, so each is floored once
        HD = H * to_fixed(d._mpf_, W) >> W
        fixed.append((A + HD, B - HD, to_fixed(w._mpf_, W)))
    return tuple(fixed)


@cache
def _ts_ln_q_column(bits, lev):
    """Level lev's (ln q, ln(1 + q)) 2^W: the part of the ln x column that no domain changes."""
    W = bits + FIXED_EXTRA_BITS
    table = _ts_levels(bits, lev)[lev]
    with workprec(W + 8):  # q = delta/(2 - delta)
        Qs = [to_fixed((d / (2 - d))._mpf_, W) for d, _, _ in table]
    return tuple((to_fixed(ln_q._mpf_, W), Q * log1p_over_fixed(Q, W) >> W) for Q, (_, _, ln_q) in zip(Qs, table))


@cache
def _ts_ln_x_nodes(domain, bits, lev):
    """Level lev's ((X1, L1, L2), (X2, L2, L1), Omega) on (0, b): `_ts_fixed_nodes`, each X with ln x and ln(b - x)."""
    W = bits + FIXED_EXTRA_BITS
    with workprec(W + 8):  # x2 = b/(1 + q) and x1 = q x2 = b - x2
        ln_b = to_fixed(log(_interval(domain)[1])._mpf_, W)
    nodes = []
    for (X1, X2, w), (ln_q, ln_1pq) in zip(_ts_fixed_nodes(domain, bits, lev), _ts_ln_q_column(bits, lev)):
        L2 = ln_b - ln_1pq
        L1 = L2 + ln_q
        nodes.append(((X1, L1, L2), (X2, L2, L1), w))
    return tuple(nodes)


def _ts_right_skips(domain, bits, lev):
    """How many of level lev's last nodes `_pair_sum` skips on a singular right end: b - halfw delta is b there."""
    table = _ts_levels(bits, lev)[lev]
    with workprec(bits):  # x2 as `_ts_abscissae` forms it, which grows towards b as delta falls
        _, b, halfw, _ = _interval(domain)
        n = 0
        while n < len(table) and b - halfw * table[-1 - n][0] == b:
            n += 1
    return n


def _ln_x_kernel(g, h, k, c):
    """The kernel of a form (g, h, k) under context c: g(X) + h(X) L + k(X) M at a node (X, L, M)."""

    def f(node):
        X, L, M = node
        y = g(c, X)
        if h:
            y += c.mul(h(c, X), L)
        if k:
            y += c.mul(k(c, X), M)
        return y

    return f


def _ts_fixed_ladder(integrand, cap, bits):
    W = bits + FIXED_EXTRA_BITS
    c = fixed_context(W)
    A, B, _ = _fixed_interval(integrand.domain, W)
    sign, hman, hexp, _bc = _interval(integrand.domain)[2]._mpf_  # halfw, as `_ts_ladder` reads it
    hman = -hman if sign else hman  # halfw < 0 on a domain (a, b) with b < a
    g, h, k = integrand.form
    if h or k:  # each abscissa comes with its ln x and ln(b - x); the centre is x = halfw
        f = _ln_x_kernel(g, h, k, c)
        with workprec(W + 8):
            ln_halfw = to_fixed(log(_interval(integrand.domain)[2])._mpf_, W)
        center = ((A + B) >> 1, ln_halfw, ln_halfw)
        level_nodes = _ts_ln_x_nodes
    else:
        f, level_nodes, center = partial(g, c), _ts_fixed_nodes, (A + B) >> 1
    S = (pi_fixed(W) >> 1) * f(center)
    evals = 1
    for lev in range(1, cap + 1):
        nodes = level_nodes(integrand.domain, bits, lev)
        kept = len(nodes) - (_ts_right_skips(integrand.domain, bits, lev) if integrand.singular_right else 0)
        S += sum(w * (f(x1) + f(x2)) for x1, x2, w in nodes[:kept]) + sum(w * f(x1) for x1, _, w in nodes[kept:])
        evals += len(nodes) + kept
        yield lev, ldexp(mpf(S * hman), hexp - 2 * W - lev), evals


# ---------------------------------------------------------------------------
# Gauss-Legendre nodes: each positive root of P_n starts from the asymptotic
# guess cos(pi (k - 1/4) / (n + 1/2)), taken at 53 bits, and takes Halley steps
# on P_n and P_n' in integers scaled by 2^w, (1 - x^2) P_n'' = 2x P_n' - n(n + 1)
# P_n, at widths W, W // 3 + 16, ..., lowest first, as a step about triples the
# good bits.  The lowest, the floor, is 2 bit_length(n) + 16 bits and at least
# 32: one step from the guess reaches about that many, its unit stays far below
# 1 - x_1 ~ 2.9 / n^2 so the largest root cannot round onto its neighbour, and
# 32 keeps the widths above the fixed point 24 of w -> w // 3 + 16.  The floor
# is dropped if the next width is within 8 bits; the widths set only the cost.
#
# Error bound: the recurrence is stable on |x| <= 1, so P_n and P_{n-1} carry
# at most ~n^2 units of 2^-W, and so does the Newton correction P_n / P_n', as
# |P_n'| >= 1 at every root.  The steps at W stop once that correction is below
# 4 n^2 units, leaving x good to ~4 n^2 2^-W.  As 1 - x^2 >= ~(2.4/n)^2, the
# weight 2 (1 - x^2) / (n P_{n-1} - n x P_n)^2 from that last evaluation is
# good to ~4 n^4 2^-W = 2^-(gen_bits + 30 - 2 bit_length(n)) relative, before
# the one rounding to gen_bits.
# ---------------------------------------------------------------------------

def _gl_newton(n, X, w):
    """(P_n / P_n', (1 - x^2) P_n', 1 - x^2) at x = X / 2^w, scaled by 2^w."""
    p0, p1 = 1 << w, X
    for k in range(2, n + 1):
        p0, p1 = p1, ((X * p1 >> w) * (2 * k - 1) - (k - 1) * p0) // k
    q = n * (p0 - (X * p1 >> w))
    one_m = (1 << w) - (X * X >> w)
    return p1 * one_m // q, q, one_m


@cache
def _gl_halfline(order, bits):
    """The n-point rule's (x, w) for x >= 0."""
    gen_bits = bits + 16
    W = gen_bits + 32 + 2 * order.bit_length()
    floor = max(32, 2 * order.bit_length() + 16)
    widths = [W]
    while widths[-1] > floor:
        widths.append(max(widths[-1] // 3 + 16, floor))
    if widths[-2] - floor <= 8:
        widths.pop()
    # an odd rule's center guess 0 stays exactly 0: P_n(0) = 0 in integers too
    guesses = [0.0] * (order % 2) + [math.cos(math.pi * (k - 0.25) / (order + 0.5)) for k in range(order // 2, 0, -1)]
    out = []
    for x in guesses:
        w, X = 53, int(math.ldexp(x, 53))
        for v in chain(reversed(widths), repeat(W)):  # x - u / (1 - u P_n'' / 2 P_n'), u = P_n / P_n'
            X, w = X << v >> w, v
            D, q, one_m = _gl_newton(order, X, w)
            if w == W and abs(D) < 4 * order * order:
                break
            X -= (D << w) // ((1 << w) - D * (2 * X - order * (order + 1) * D) // (2 * one_m))
        with workprec(gen_bits):
            out.append((ldexp(mpf(X), -W), ldexp(mpf((one_m << 2 * W + 1) // (q * q)), -W)))
    return tuple(out)


def gauss_legendre_nodes(order, p):
    """Full symmetric node/weight list of the n-point rule on [-1, 1]."""
    if not isinstance(order, int) or not MIN_ORDER <= order <= MAX_ORDER:
        raise ValueError(f"order must be an int in [{MIN_ORDER}, {MAX_ORDER}]")
    half = _gl_halfline(order, p.guarded)
    with workprec(p.bits):
        pos = [(+x, +w) for x, w in half if x != 0]
        neg = [(-x, w) for x, w in reversed(pos)]
        return neg + [(mpf(0), +w) for x, w in half if x == 0] + pos


def _gl_orders(cap):
    """A ladder's rungs 8, 16, ..., cap: all even, so `_gl_axis` pairs every node."""
    return [8 << i for i in range((cap // 8).bit_length())]


def _gl_axis(domain, half_nodes):
    """An even rule's mirrored pairs (mid + halfw x, mid - halfw x, w) on a 1D domain."""
    _a, _b, halfw, mid = _interval(domain)
    return [(mid + halfw * x, mid - halfw * x, w) for x, w in half_nodes]


def _gl_ladder(integrand, cap, bits):
    """Gauss-Legendre rungs 8, 16, ..., cap on a 1D interval, or on the one axis of a square, built once per rung."""
    if integrand.dimension == 1:
        domain, gl_sum = integrand.domain, _pair_sum
    else:
        domain, gl_sum = integrand.domain[0], _product_sum
    scale = math.prod([_interval(domain)[2]] * integrand.dimension)  # halfw once per dimension
    evals = 0
    for order in _gl_orders(cap):
        S, n = gl_sum(integrand, _gl_axis(domain, _gl_halfline(order, bits)))
        evals += n
        yield order, scale * S, evals


def integrate(f, s, p):
    """Integrate a 1D integrand with the given scheme at precision p.

    Arithmetic runs at the guarded width; the refinement loop stops once
    the level/order difference reaches 2^-(p.bits - STOP_MARGIN).
    """
    if f.dimension != 1:
        raise ValueError(f"integrate() needs a 1D integrand, got dimension {f.dimension}")
    if isinstance(s, TanhSinh):
        cap = ts_level_cap(p.guarded)
        ladder = (_ts_fixed_ladder if f.form else _ts_ladder)(f, cap, p.guarded)
        return _refine(ladder, p, f"tanh-sinh on {f.id!r}", f"level {cap}")
    if isinstance(s, GaussLegendre):
        if f.singular_left or f.singular_right:
            raise DomainError(f"Gauss-Legendre refuses singular integrand {f.id!r}; use tanh-sinh")
        cap = gl_order_cap(p.guarded)
        ladder = _gl_ladder(f, cap, p.guarded)
        return _refine(ladder, p, f"Gauss-Legendre on {f.id!r}", f"order {cap}")
    raise ValueError(f"scheme {s!r} does not apply to a 1D integrand")


# ---------------------------------------------------------------------------
# 2D tensor Gauss-Legendre rule on a square: `_gl_ladder` builds its one axis
# per rung, and `_product_sum` sums the rung's cells, every point x1, x2 of each
# pair against every other, in integers.
#
# A 2D integrand is a form (g, h) of two expressions: g runs under `MP`, and h
# under fixed_context(W), bound once per rung, as h(T) = h(T / 2^W) 2^W in
# integers.
# `_product_sum` sums a rung of n points at W = prec + 8 + bit_length(n):
# A_i = w_i g(x_i) 2^W and U_i = x_i 2^W are truncated once per node, so g runs
# once per node, then S = sum_i A_i sum_j A_j h(U_i U_j >> W) is exact.  As
# h_ij = h_ji bit for bit, S is summed sum_i A_i (2 sum_{j<i} A_j h_ij + A_i h_ii)
# over one triangle, n(n + 1)/2 calls of h, though the evaluations counted are
# the rule's n^2 cells, its size.  For nodes in [-1, 1], |g| <= 1
# (sum |A| <= 2) and h within 8 units with |h|, |h'| <= 1, each h is within
# 3 + 8 units and the sum within 4n + 44, i.e. (n + 11) 2^-W <= 2^-(prec + 4)
# after the factor 1/4.
# ---------------------------------------------------------------------------


def _product_sum(integrand, pairs):
    """sum_x wx sum_y wy g(x) g(y) h(xy) on one axis's points, in integers on one triangle, and its n^2 evaluations."""
    g, h = integrand.form
    pts = [(x, w) for x1, x2, w in pairs for x in (x1, x2)]
    W = mp.prec + 8 + len(pts).bit_length()
    h = partial(h, fixed_context(W))
    axis = [(int(ldexp(w * _checked(g(MP, x), integrand, (x,)), W)), int(ldexp(x, W))) for x, w in pts]
    S = 0
    for i, (A, U) in enumerate(axis):  # twice the cells left of the diagonal, then the diagonal's
        S += A * (2 * sum(B * h(U * V >> W) for B, V in axis[:i]) + A * h(U * U >> W))
    return ldexp(mpf(S), -3 * W), len(pts) ** 2


def integrate_2d(f, s, p):
    """Integrate a 2D integrand with the tensor product of the Gauss-Legendre rule."""
    if f.dimension != 2:
        raise ValueError(f"integrate_2d() needs a 2D integrand, got dimension {f.dimension}")
    if not isinstance(s, GaussLegendre):
        raise ValueError(f"the 2D tensor rule is Gauss-Legendre only, got {s!r}")
    cap = gl_order_cap(p.guarded)
    ladder = _gl_ladder(f, cap, p.guarded)
    return _refine(ladder, p, f"2D Gauss-Legendre on {f.id!r}", f"order {cap}")
