import dataclasses
import hashlib
import itertools
import math
import re
from fractions import Fraction
from functools import partial

import pytest
from mpmath import diff, exp, ldexp, log, mp, mpf, pi, sin, workprec
from mpmath.calculus.quadrature import GaussLegendre as MpmathGaussLegendre

from hpcert import (
    BasisConstant,
    ClosedForm,
    DomainError,
    GaussLegendre,
    Integrand,
    NonconvergenceError,
    Precision,
    TanhSinh,
    gauss_legendre_nodes,
    integrate,
    integrate_2d,
    numeric,
    quadrature,
    tanh_sinh_nodes,
)
from hpcert.identities import _REGISTRY, _fd_step, _param_integrand, get_integrand
from oracle_values import A1, LOGSINE, assert_close, reference_integrate, reference_ts_ladder, ulp

HALF_PI = ClosedForm({BasisConstant.PI: Fraction(1, 2)})


def const_one():
    return Integrand(id="one", evaluator=lambda x: mpf(1), domain=(0, 1))


def xy(id="xy"):
    """x y on the unit square: the product form g(x) g(y) h(xy) with g(x) = x and h = 1."""
    return quadrature.product(id, lambda c, x: x, lambda c, t: c.one)


def test_node_functions_refuse_out_of_range_input(cold_caches, p64):
    # a refused level or order builds nothing: level 30 would mean about 2^30 nodes,
    # a float one would build its levels before failing on a slice, and True would be level 1
    for level in (-1, quadrature.MAX_LEVEL + 1, 30, 2.0, True):
        with pytest.raises(ValueError):
            tanh_sinh_nodes(level, p64)
    for order in (quadrature.MIN_ORDER - 1, quadrature.MAX_ORDER + 1, 8.0):
        with pytest.raises(ValueError):
            gauss_legendre_nodes(order, p64)
    assert quadrature._TS_TABLES == {}
    assert quadrature._gl_halfline.cache_info().currsize == 0


# --- refinement caps ----------------------------------------------------------


# ladder width -> (deepest tanh-sinh level, deepest eq05 Gauss-Legendre order)
# the catalog reaches at reports of 109, 128, 256, 512, 1024 and 2048 bits
DEEPEST_RUNGS = {
    173: (6, 64),
    192: (6, 128),
    320: (7, 128),
    576: (8, 256),
    1088: (9, 512),
    2112: (10, 1024),
}


@pytest.mark.parametrize("width", sorted(DEEPEST_RUNGS))
def test_derived_caps_sit_above_the_deepest_rung(width):
    level, order = DEEPEST_RUNGS[width]
    assert level < quadrature.ts_level_cap(width) <= quadrature.MAX_LEVEL
    cap = quadrature.gl_order_cap(width)
    assert order < cap <= quadrature.MAX_ORDER
    assert order in quadrature._gl_orders(cap) and quadrature._gl_orders(cap)[-1] == cap


# --- tanh-sinh nodes --------------------------------------------------------


def test_nodes_level0_single_center(p64):
    nodes = tanh_sinh_nodes(0, p64)
    assert len(nodes) == 1
    x, w = nodes[0]
    assert x == 0
    assert w > 0


def test_nodes_symmetric_and_positive(p64):
    nodes = tanh_sinh_nodes(4, p64)
    assert all(w > 0 for _, w in nodes)
    n = len(nodes)
    assert n % 2 == 1
    with workprec(96):  # arithmetic (incl. negation) rounds to ambient prec
        xs = [x for x, _ in nodes]
        assert all(a <= b for a, b in zip(xs, xs[1:]))
        for i in range(n // 2):
            xl, wl = nodes[i]
            xr, wr = nodes[n - 1 - i]
            assert xl == -xr
            assert wl == wr


@pytest.mark.parametrize("level", [6, 8])
def test_nodes_weight_sum_is_interval_length(level, p64):
    nodes = tanh_sinh_nodes(level, p64)
    with workprec(128):
        total = sum(w for _, w in nodes)
        assert abs(total - 2) < ldexp(1, -(64 - 8))


def test_nodes_grow_with_level(p64):
    assert len(tanh_sinh_nodes(5, p64)) < len(tanh_sinh_nodes(6, p64))


def test_ts_table_built_only_to_the_converged_level(cold_caches, p128):
    f = Integrand(id="lazy", evaluator=lambda x: 1 / (1 + x), domain=(0, 1))
    r = integrate(f, TanhSinh(), p128)
    assert r.level_or_order < quadrature.ts_level_cap(p128.guarded)
    assert len(quadrature._TS_TABLES[p128.guarded]) == r.level_or_order + 1


def test_tanh_sinh_nodes_share_the_integrate_table(cold_caches, p128):
    tanh_sinh_nodes(6, p128)
    integrate(const_one(), TanhSinh(), p128)
    assert list(quadrature._TS_TABLES) == [p128.guarded]


def test_ts_table_extended_lazily_matches_eager_build(cold_caches):
    bits = 96
    gen = quadrature._ts_gen_bits(bits)
    with workprec(53):  # levels are generated at their own width, not the caller's
        for lev in range(2, 8):
            quadrature._ts_levels(bits, lev)
    lazy = quadrature._TS_TABLES.pop(bits)
    with workprec(gen + 64):
        eager = quadrature._ts_levels(bits, 7)
    assert len(lazy) == len(eager) == 8
    assert lazy == eager
    # every entry is rounded to gen bits: neither cut to a narrower ambient width nor left wider
    for level in eager[1:]:
        assert max(v._mpf_[3] for node in level for v in node) == gen
        assert all(v._mpf_[3] <= gen for node in level for v in node)


# SHA-256 of the exact sign, mantissa and exponent of every node and weight at
# levels 0-8 and 64/128/256 bits: a change to the table or to how the nodes
# are assembled that moves a single bit shows here.
TS_NODES_SHA256 = "98244a325e18e580f1c82548ab2ecf77e6e13c160e8b391e0349105ab0a74f08"


def test_tanh_sinh_nodes_are_pinned():
    h = hashlib.sha256()
    for bits in (64, 128, 256):
        for level in range(9):
            for x, w in tanh_sinh_nodes(level, Precision(bits)):
                for v in (x, w):
                    sign, man, e, _bc = v._mpf_
                    h.update(f"{sign},{int(man)},{e};".encode())
    assert h.hexdigest() == TS_NODES_SHA256


# SHA-256 of every integer each fixed-point kernel returns on the level 1-3
# nodes of its domain, plus X = 0 and X = 2^W, at W = 189 and 336: the
# registered kernels, and the F/H families at a = 3/10, 7/10, 1 plus and minus
# the finite-difference step.  Recorded from the hand-written kernels, so a
# rewrite of how kernels are declared that moves a single integer shows here.
KERNELS_SHA256 = "3655a8d369e11b1e360388747dedb6d6f826d2f921c99e3ebafd4a70d294db6f"


def bounded_forms():
    """The registered 1D forms (g, None, None): each g a bounded kernel, in registration order."""
    return [f for f in _REGISTRY.values() if f.dimension == 1 and f.form and not any(f.form[1:])]


def log_forms():
    """The registered 1D forms with an h or a k: g + h ln x + k ln(b - x)."""
    return [f for f in _REGISTRY.values() if f.dimension == 1 and f.form and any(f.form[1:])]


def test_kernel_integers_are_pinned():
    h = hashlib.sha256()
    for width in (173, 320):
        W = width + quadrature.FIXED_EXTRA_BITS
        step = _fd_step(Precision(width - 2 * numeric.GUARD_BITS))
        with workprec(width):
            alphas = [mpf(a) / 10 + s * step for a in (3, 7, 10) for s in (1, -1)]
        registered = sorted(bounded_forms(), key=lambda f: f.id)
        for f in registered + [_param_integrand(n, a, "pin") for a in alphas for n in "FH"]:
            nodes = [n for lev in (1, 2, 3) for n in quadrature._ts_fixed_nodes(f.domain, width, lev)]
            Xs = [X for X1, X2, _ in nodes for X in (X1, X2)] + [0, 1 << W]
            kernel = partial(f.form[0], numeric.fixed_context(W))
            h.update(f"{f.id}@{W}:{','.join(str(kernel(X)) for X in Xs)};".encode())
    assert h.hexdigest() == KERNELS_SHA256


LN_X_PAIR = ("i1_minus_ln_x", "neg_ln_x_over_1px2")


def ln_x_kernel(f, W):
    """The kernel g(X) + h(X) L + k(X) M at an abscissa with its ln x and ln(b - x), (X, L, M), as summed."""
    return quadrature._ln_x_kernel(*f.form, numeric.fixed_context(W))


# SHA-256 of the ln-x column and of every integer the pair's kernels return on
# it, at each (X, L) of the level 1-3 nodes of [0, 1] at W = 189 and 336.
# Recorded when the pair moved onto the integer ladder.
LN_X_KERNELS_SHA256 = "3f8350464e5615ff2bc8323d0e1916f64fb3e4654fe55a0da5a2ad3a3650788e"


def test_ln_x_kernel_integers_are_pinned():
    h = hashlib.sha256()
    for width in (173, 320):
        W = width + quadrature.FIXED_EXTRA_BITS
        nodes = [n for lev in (1, 2, 3) for n in quadrature._ts_ln_x_nodes((0, 1), width, lev)]
        column = [XL for XL1, XL2, _ in nodes for XL in (XL1, XL2)]
        h.update(f"column@{W}:{','.join(f'{X}:{L}' for X, L, _ in column)};".encode())
        for name in LN_X_PAIR:
            kernel = ln_x_kernel(get_integrand(name), W)
            h.update(f"{name}@{W}:{','.join(str(kernel(XL)) for XL in column)};".encode())
    assert h.hexdigest() == LN_X_KERNELS_SHA256


# SHA-256 of the ln x and ln(b - x) column on (0, pi/2) and (0, pi), and of every
# integer the log-sine kernels return on their domain's column, at each (X, L, M)
# of the level 1-3 nodes that the ladder evaluates (no x2 its right-end skip
# leaves out) at W = 189 and 336.  Recorded when the three moved onto the integer ladder.
LOG_SINE_KERNELS_SHA256 = "39175bfddbb73f9b71a0fe72796cabb9230f87d425f56a3351cb1eef33097ea2"


def test_log_sine_kernel_integers_are_pinned():
    h = hashlib.sha256()
    for width in (173, 320):
        W = width + quadrature.FIXED_EXTRA_BITS
        for name in LOG_SINE:
            f = get_integrand(name)
            column = []
            for lev in (1, 2, 3):
                nodes = quadrature._ts_ln_x_nodes(f.domain, width, lev)
                kept = len(nodes) - (quadrature._ts_right_skips(f.domain, width, lev) if f.singular_right else 0)
                column += [XLM for n, (XLM1, XLM2, _) in enumerate(nodes) for XLM in (XLM1, XLM2)[: 1 + (n < kept)]]
            kernel = ln_x_kernel(f, W)
            h.update(f"column@{W}:{','.join(f'{X}:{L}:{M}' for X, L, M in column)};".encode())
            h.update(f"{name}@{W}:{','.join(str(kernel(XLM)) for XLM in column)};".encode())
    assert h.hexdigest() == LOG_SINE_KERNELS_SHA256


# SHA-256 of every integer sigma_double's product kernel h returns at the
# arguments T = U_i U_j >> W that `_product_sum` forms on the Gauss-Legendre
# rungs of orders 8, 16 and 32, at ladder widths 192 and 320.  Recorded from
# the hand-written kernel h(T, W) = floor(-T^2 2^W / (2^W + T^2)), T^2 floored,
# which the expression h under fixed_context(W) replaced.
PRODUCT_KERNEL_SHA256 = "3aff67473bb57c3ad38904c006e7b0b981de65c819a38541dcf8af346c1ae040"


def test_product_kernel_integers_are_pinned():
    g, h = get_integrand("sigma_double").form
    digest = hashlib.sha256()
    for width in (192, 320):
        for order in (8, 16, 32):
            W = width + 8 + order.bit_length()  # as `_product_sum` sets it for this rung
            with workprec(width):
                pairs = quadrature._gl_axis((0, 1), quadrature._gl_halfline(order, width))
                pts = [(x, w) for x1, x2, w in pairs for x in (x1, x2)]
                for x, _w in pts:
                    assert g(numeric.MP, x)._mpf_ == (1 / (1 + x))._mpf_
            Us = [int(ldexp(x, W)) for x, _w in pts]
            values = [h(numeric.fixed_context(W), U * V >> W) for U in Us for V in Us]
            digest.update(f"{order}@{W}:{','.join(map(str, values))};".encode())
    assert digest.hexdigest() == PRODUCT_KERNEL_SHA256


DOMAINS_1D = sorted({f.domain for f in _REGISTRY.values() if f.dimension == 1}, key=repr)


@pytest.mark.parametrize("bits", [128, 256])
def test_cached_abscissae_equal_a_fresh_computation(bits):
    # every registered 1D domain (the two that end at a multiple of pi and
    # eq06's (0, x0) among them) at the table key and width the catalog integrates at
    key = Precision(bits).guarded
    assert {(0, HALF_PI), (0, Fraction(1, 4))} <= set(DOMAINS_1D)
    with workprec(key):
        for domain in DOMAINS_1D:
            a, b, halfw, _ = quadrature._interval(domain)
            for lev in range(1, 9):
                cached = quadrature._ts_abscissae(domain, key, lev)
                fresh = [(a + halfw * d, b - halfw * d, w) for d, w, _ in quadrature._TS_TABLES[key][lev]]
                assert [[v._mpf_ for v in n] for n in cached] == [[v._mpf_ for v in n] for n in fresh]


def reference_ts_levels(bits, up_to_level, prec=None):
    """Levels 0 to up_to_level of the tanh-sinh table at width `bits`, formed in mpf at `prec` bits.

    The mpf construction `_ts_levels` replaced, kept as the reference: at the default
    `prec`, `_ts_gen_bits`(bits), each entry is within about 2^-(gen - 12) of
    the truth, relative; 64 bits wider, within about 2^-(gen + 48).
    """
    levels = [()]
    threshold = ldexp(1, -(bits + 32))
    with workprec(prec or quadrature._ts_gen_bits(bits)):
        piq = pi / 2
        while len(levels) <= up_to_level:
            lev = len(levels)
            h = ldexp(1, -lev)
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


def ts_table_consumers(width, top):
    """What each reader of the table at `width` makes of levels 1 to top: an entry moved for any of them shows here."""
    q = quadrature
    for fn in (q._ts_abscissae, q._ts_fixed_nodes, q._ts_ln_q_column, q._ts_ln_x_nodes):
        fn.cache_clear()
    log_domains = {f.domain for f in log_forms()}
    seen = [[(x._mpf_, w._mpf_) for x, w in tanh_sinh_nodes(top, Precision(width - numeric.GUARD_BITS))]]
    for lev in range(1, top + 1):
        with workprec(width):  # a weight is the table's own entry, which `_pair_sum` multiplies at this width
            seen.append([(x1._mpf_, x2._mpf_, (+w)._mpf_) for x1, x2, w in q._ts_abscissae((0, 1), width, lev)])
        seen.append(q._ts_ln_q_column(width, lev))
        for domain in DOMAINS_1D:  # [0, 1], [0, pi/2], [0, pi] and eq06's [0, x0] among them
            seen.append((q._ts_fixed_nodes(domain, width, lev), q._ts_right_skips(domain, width, lev)))
            if domain in log_domains:
                seen.append(q._ts_ln_x_nodes(domain, width, lev))
    return seen


TS_REFERENCE_WIDTHS = [173, 192, 320, *(pytest.param(w, marks=pytest.mark.slow) for w in (576, 1088, 2112))]


@pytest.mark.parametrize("width", TS_REFERENCE_WIDTHS)
def test_ts_table_matches_the_mpf_reference(cold_caches, width):
    # to one level past the deepest the catalog reaches at this width
    top = DEEPEST_RUNGS[width][0] + 1
    gen = quadrature._ts_gen_bits(width)
    built = quadrature._ts_levels(width, top)
    reference, wide = reference_ts_levels(width, top), reference_ts_levels(width, top, gen + 64)
    with workprec(gen + 64):
        for lev in range(1, top + 1):
            assert len(built[lev]) == len(reference[lev]), lev
            for n, (node, exact) in enumerate(zip(built[lev], wide[lev])):
                for v, x in zip(node, exact):
                    # within 2^-(gen+8) before the rounding, and half a unit of v's last of gen bits
                    _sign, _man, e, bc = v._mpf_
                    assert abs(v - x) <= abs(x) * ldexp(1, -(gen + 8)) + ldexp(1, e + bc - gen - 1), (lev, n)
    got = ts_table_consumers(width, top)
    quadrature._TS_TABLES[width] = reference
    assert ts_table_consumers(width, top) == got


# --- 1D integration ---------------------------------------------------------


@pytest.mark.parametrize("scheme", [TanhSinh(), GaussLegendre()])
def test_constant_integrand(scheme, p128):
    r = integrate(const_one(), scheme, p128)
    assert abs(r.value - 1) < ldexp(1, -120)
    assert r.error_estimate < ldexp(1, -(128 - 8))
    assert r.evaluations > 0


def test_x2_over_1px_value(p256):
    # equals ln2 - 1/2; the antiderivative x^2/2 - x + ln(1+x) is the oracle
    f = Integrand(id="x2_over_1px", evaluator=lambda x: x * x / (1 + x), domain=(0, 1))
    r = integrate(f, TanhSinh(), p256)
    assert_close(r.value, A1, mpf(10) ** -60)


def test_logsine_left_singular(p256):
    # a plain evaluator: its singular left end is 0, which no abscissa reaches
    f = Integrand(id="logsine_test", evaluator=lambda t: log(sin(t)), domain=(0, HALF_PI))
    r = integrate(f, TanhSinh(), p256)
    assert_close(r.value, LOGSINE, mpf(10) ** -40)
    assert r.level_or_order <= 12


@pytest.mark.parametrize("width", [173, 320, 1088, 2112])
def test_a_pi_multiple_end_is_pi_times_its_rational(width):
    with workprec(width):
        assert quadrature._endpoint_value(HALF_PI)._mpf_ == (pi / 2)._mpf_


def test_an_end_may_be_any_closed_form(p128):
    # int_0^{ln 2} e^x dx = 1
    f = Integrand(id="exp", evaluator=exp, domain=(0, ClosedForm({BasisConstant.LN2: Fraction(1)})))
    assert abs(integrate(f, TanhSinh(), p128).value - 1) <= ldexp(1, -(p128.bits - 8))


def test_determinism(p128):
    f = Integrand(id="det", evaluator=lambda x: 1 / (1 + x), domain=(0, 1))
    r1 = integrate(f, TanhSinh(), p128)
    r2 = integrate(f, TanhSinh(), p128)
    assert r1.value == r2.value
    assert r1.error_estimate == r2.error_estimate
    assert r1.evaluations == r2.evaluations


def test_tanh_sinh_error_decays_quadratically(p256):
    # per-level trapezoid sums computed from the public node tables
    f = lambda x: x * x / ((1 + x * x) * (1 + x))
    from oracle_values import A_VALUE, oracle

    truth = oracle(A_VALUE)
    errs = []
    with workprec(320):
        # levels 3-5 sit inside the squaring regime; level 6 already reaches
        # the 256-bit representation floor of the node abscissae
        for level in (3, 4, 5):
            total = mpf(0)
            for x, w in tanh_sinh_nodes(level, p256):
                total += w * f((x + 1) / 2)
            errs.append(abs(total / 2 - truth))
        assert errs[1] < errs[0] ** mpf("1.5")
        assert errs[2] < errs[1] ** mpf("1.5")


def test_gl_refuses_singular(p64):
    # ln x, declared as a form with h, which makes its left end singular
    f = quadrature.expression("sing", lambda c, x: 0, h=lambda c, x: c.one)
    with pytest.raises(DomainError, match="refuses singular integrand 'sing'"):
        integrate(f, GaussLegendre(), p64)


def test_dimension_mismatch(p64):
    f2 = xy("2d")
    with pytest.raises(ValueError):
        integrate(f2, TanhSinh(), p64)
    with pytest.raises(ValueError):
        integrate_2d(const_one(), GaussLegendre(), p64)


def test_dimension_follows_the_domain():
    for f in _REGISTRY.values():
        if f.id == "sigma_double":
            assert f.dimension == 2
            assert all(len(axis) == 2 for axis in f.domain)
        else:
            assert f.dimension == 1
            assert len(f.domain) == 2 and not any(isinstance(e, tuple) for e in f.domain)
    assert get_integrand("log_sin_full").domain[1] == ClosedForm({BasisConstant.PI: 1})
    assert get_integrand("log_sin_full").dimension == 1


def test_nonconvergence_on_nonintegrable(p64):
    # a plain evaluator: 0, where 1/x has its pole, is never an abscissa
    f = Integrand(id="one_over_x", evaluator=lambda x: 1 / x, domain=(0, 1))
    with pytest.raises(NonconvergenceError, match=f"by level {quadrature.ts_level_cap(p64.guarded)} "):
        integrate(f, TanhSinh(), p64)


def test_domain_error_on_nonfinite(p64):
    f = Integrand(id="inf", evaluator=lambda x: mpf("inf"), domain=(0, 1))
    with pytest.raises(DomainError):
        integrate(f, TanhSinh(), p64)


@pytest.mark.parametrize("value", [lambda x: log(x - 2), lambda x: complex(1, 1)])
def test_non_real_values_are_a_domain_error_in_every_rule(value, p64):
    # log(x - 2) is complex on [0, 1]: tanh-sinh used to die on an AttributeError,
    # and both Gauss-Legendre rules returned the complex sum as the value
    f = Integrand(id="cx", evaluator=value, domain=(0, 1))
    f2 = quadrature.product("cx2", lambda c, x: value(x), lambda c, t: c.one)
    for run in (
        lambda: integrate(f, TanhSinh(), p64),
        lambda: integrate(f, GaussLegendre(), p64),
        lambda: integrate_2d(f2, GaussLegendre(), p64),
    ):
        with pytest.raises(DomainError, match="integrand 'cx2?' returned non-real value at "):
            run()


@pytest.mark.parametrize("left, right, named", [(0, "nan", "right"), ("inf", "-inf", "left")])
def test_non_finite_value_names_its_point(left, right, named, p64):
    # the raw ladder tests each pair's sum; a nan or inf in it is still traced to its point
    first = {}

    def f(x):
        if x == 0.5:
            return x
        side = "left" if x < 0.5 else "right"
        first.setdefault(side, x)
        return mpf(left if side == "left" else right)

    with pytest.raises(DomainError, match="'pole' returned non-finite value at x=") as exc:
        integrate(Integrand(id="pole", evaluator=f, domain=(0, 1)), TanhSinh(), p64)
    assert str(exc.value).endswith(f"x={mp.nstr(first[named], 12)}")


LADDER_CASES = {
    "regular": get_integrand("i2_integrand").evaluator,
    "int": lambda x: (int(8 * x) - 3) * 3**300 + 1,  # wider than the ladder: converted exactly
    "float": lambda x: math.sqrt(float(x)) + 1e-17,  # float + float rounds to 53 bits
    "mixed": lambda x: 1 if x < 0.5 else x * x,
}


@pytest.mark.parametrize("bits", [128, 320])
@pytest.mark.parametrize("case", ["regular", "neg_ln_x_over_1px2", "int", "float", "mixed"])
def test_ts_ladder_matches_the_mpf_operator_loop(case, bits):
    # -ln x/(1 + x^2) as a plain evaluator: singular at 0, which no abscissa reaches
    evaluator = LADDER_CASES[case] if case in LADDER_CASES else get_integrand(case).evaluator
    f = Integrand(id=case, evaluator=evaluator, domain=(0, 1))
    cap = 6
    with workprec(bits):
        got = [(lev, T._mpf_, evals) for lev, T, evals in quadrature._ts_ladder(f, cap, bits)]
        assert got == [(lev, T._mpf_, evals) for lev, T, evals in reference_ts_ladder(f, cap, bits)]


@pytest.mark.parametrize("evaluator, domain", [(lambda x: log(1 - x), (0, 1)), (lambda x: log(x - 1), (1, 2))])
def test_a_plain_evaluator_non_finite_at_an_end_the_ladder_reaches_is_a_domain_error(evaluator, domain, p64):
    # the mpf abscissae next to b, or to an a other than 0, round to that end itself;
    # a plain evaluator is bounded on its closed domain, so ln 0 there names the point
    f = Integrand(id="end", evaluator=evaluator, domain=domain)
    with pytest.raises(DomainError, match="integrand 'end' returned non-finite value at ") as exc:
        integrate(f, TanhSinh(), p64)
    assert str(exc.value).endswith("x=1.0")


# --- Gauss-Legendre degree exactness ----------------------------------------


@pytest.mark.parametrize("order", [2, 5, 8, 13, 20, 64])
def test_gl_degree_exactness(order, p128):
    nodes = gauss_legendre_nodes(order, p128)
    with workprec(200):
        for k in range(2 * order):
            total = sum(w * x**k for x, w in nodes)
            exact = mpf(0) if k % 2 else mpf(2) / (k + 1)
            assert abs(total - exact) <= (order + k + 1) * ldexp(1, -120)


def test_gl_nodes_symmetric(p128):
    nodes = gauss_legendre_nodes(12, p128)
    assert len(nodes) == 12
    assert all(w > 0 for _, w in nodes)
    with workprec(160):
        for i in range(6):
            assert nodes[i][0] == -nodes[11 - i][0]
            assert nodes[i][1] == nodes[11 - i][1]


@pytest.mark.parametrize("bits", [128, 256])
@pytest.mark.parametrize("degree", [2, 3, 4, 5, 6])
def test_gl_nodes_match_mpmath(bits, degree):
    # mpmath's own Gauss-Legendre rule of degree d has 3 * 2^(d-1) nodes
    p = Precision(bits)
    order = 3 * 2 ** (degree - 1)
    nodes = gauss_legendre_nodes(order, p)
    with workprec(bits + 40):
        ref = sorted(MpmathGaussLegendre(mp).calc_nodes(degree, bits + 40))
        assert len(nodes) == len(ref) == order
        for (x, w), (rx, rw) in zip(nodes, ref):
            assert abs(x - rx) <= ldexp(1, -bits)
            assert abs(w - rw) <= ldexp(1, -bits)


def legendre_fixed(n, X, V):
    """P_n(X / 2^V) 2^V by the three-term recurrence in integers, each step floored."""
    p0, p1 = 1 << V, X
    for k in range(2, n + 1):
        p0, p1 = p1, ((X * p1 >> V) * (2 * k - 1) - (k - 1) * p0) // k
    return p1


GL_BRACKETS = [(order, bits) for bits in (192, 320) for order in quadrature._gl_orders(128)] + [
    (256, 576),
    pytest.param(512, 1088, marks=pytest.mark.slow),
    pytest.param(1024, 2112, marks=pytest.mark.slow),
    pytest.param(4096, 64, marks=pytest.mark.slow),
]


@pytest.mark.parametrize("order, bits", GL_BRACKETS)
def test_gl_nodes_bracket_a_root_of_p_n(order, bits):
    # P_n changes sign across [x - 2^-gen_bits, x + 2^-gen_bits] about every stored
    # positive node x, so a root of P_n lies within 2^-gen_bits of x.  P_n runs
    # 64 bits past the builder's width W, where the recurrence carries ~n^2 units
    # of 2^-(W + 64), and both ends must exceed n^2 units of 2^-W: each sign is
    # then P_n's own with 2^64 to spare.
    gen_bits = bits + 16
    W = gen_bits + 32 + 2 * order.bit_length()
    V = W + 64
    half = quadrature._gl_halfline(order, bits)
    assert len(half) == order // 2
    for x, _ in half:
        _sign, man, exp, _bc = x._mpf_
        assert 0 < x < 1 and exp + V >= 0
        X, step = man << (exp + V), 1 << (V - gen_bits)
        lo, hi = (legendre_fixed(order, X + e, V) for e in (-step, step))
        assert (lo < 0) != (hi < 0), x
        assert min(abs(lo), abs(hi)) > order * order << 64, x


def gl_weight(n, x):
    """2 (1 - x^2) / (n (P_{n-1}(x) - x P_n(x)))^2, the n-point weight at a root x, at the ambient precision."""
    p0, p1 = mpf(1), x
    for k in range(2, n + 1):
        p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
    return 2 * (1 - x * x) / (n * (p0 - x * p1)) ** 2


GL_WEIGHTS = [
    ((*range(2, 65), 128), 320),
    pytest.param((*range(2, 65), 128), 96, marks=pytest.mark.slow),
    pytest.param((*range(2, 65), 128), 173, marks=pytest.mark.slow),
    pytest.param((256,), 576, marks=pytest.mark.slow),
    pytest.param((512,), 1088, marks=pytest.mark.slow),
    pytest.param((1024,), 2112, marks=pytest.mark.slow),
]


@pytest.mark.parametrize("orders, bits", GL_WEIGHTS)
def test_gl_weights_bracket_the_weight_at_a_root(orders, bits):
    # a root of P_n lies within 2^-gen_bits of each stored node x (the test above),
    # so its weight lies between the weights at x - 2^-gen_bits and x + 2^-gen_bits
    # wherever the weight is monotone, and within far below a unit of them at the
    # even weight's peak, x = 0.  Evaluated at 2 gen_bits + 64, where both ends are
    # exact, the stored weight, rounded once to gen_bits, is within one unit at
    # gen_bits of that interval: the rounding's half unit, and the rest to spare.
    gen_bits = bits + 16
    for order in orders:
        for x, w in quadrature._gl_halfline(order, bits):
            with workprec(2 * gen_bits + 64):
                ends = [gl_weight(order, x + e) for e in (-ldexp(1, -gen_bits), ldexp(1, -gen_bits))]
                unit = ulp(w, gen_bits)
                assert min(ends) - unit <= w <= max(ends) + unit, (order, x)


# SHA-256 of the exact sign, mantissa and exponent of every Gauss-Legendre node
# and weight `_gl_halfline` builds, at each width for each order.  Recorded from
# the Newton builder that doubled its width each step, before the Halley steps,
# except orders 2048 and 4096, recorded from the Halley builder with a float64
# seed: a change to how the roots are polished that moves a single bit shows here.
GL_TABLES = [
    ((*range(2, 65), 128, 256), (96, 173, 192, 320), "95c0c89afcc001293a4f44251f8114ec0969573ec54ae0c845b916b770230625"),
    pytest.param(
        (512, 1024), (576, 1088, 2112), "4d643896dc3fc8f4978898db1bd2625a6f6aab0d066887eee5bdaa9238a3a041",
        marks=pytest.mark.slow,
    ),
    pytest.param(
        (2048, 4096), (64,), "9a99b734ac4456e022b1d27a533b323210f1071619961d75de8e9d50c044ece7",
        marks=pytest.mark.slow,
    ),
]


@pytest.mark.parametrize("orders, widths, sha256", GL_TABLES)
def test_gl_tables_are_pinned(orders, widths, sha256):
    h = hashlib.sha256()
    for width in widths:
        for order in orders:
            for x, w in quadrature._gl_halfline(order, width):
                for v in (x, w):
                    sign, man, e, _bc = v._mpf_
                    h.update(f"{sign},{int(man)},{e};".encode())
    assert h.hexdigest() == sha256


@pytest.mark.parametrize("width", (96, 173, 192, 320))
def test_gl_roots_take_at_most_two_evaluations_at_full_width(monkeypatch, width):
    # each root ends at the builder's width W: one Halley step, then the evaluation
    # that confirms it and gives the weight.  A root's evaluations at W follow its
    # last one at a lower width, so each run of W in the call log is one root's.
    widths = []
    newton = quadrature._gl_newton
    monkeypatch.setattr(quadrature, "_gl_newton", lambda n, X, w: widths.append(w) or newton(n, X, w))
    for order in (*range(2, 65), 128, 256):
        W = width + 16 + 32 + 2 * order.bit_length()
        widths.clear()
        quadrature._gl_halfline.__wrapped__(order, width)
        runs = [len(list(run)) for at_w, run in itertools.groupby(widths, key=lambda w: w == W) if at_w]
        assert len(runs) == (order + 1) // 2 and max(runs) <= 2, order


def test_gl_order_1_is_the_center_node():
    assert quadrature._gl_halfline(1, 160) == ((0, 2),)


def test_gl_order_3_rule(p128):
    # the odd rule keeps its center node, exactly 0 with weight 8/9
    nodes = gauss_legendre_nodes(3, p128)
    assert len(nodes) == 3
    with workprec(128):
        assert nodes[1] == (0, mpf(8) / 9)


def test_gl_order_3_integrates_x2(p128):
    # int_0^1 x^2 = 1/3 by the 3-point rule mapped from [-1, 1]
    nodes = gauss_legendre_nodes(3, p128)
    with workprec(200):
        assert abs(sum(w * x * x for x, w in nodes) - mpf(2) / 3) <= ldexp(1, -126)
        total = sum(w * ((1 + x) / 2) ** 2 for x, w in nodes) / 2
        assert abs(total - mpf(1) / 3) <= ldexp(1, -(p128.bits - 8))


def test_gl_order_2_integrates_x(p128):
    # int_0^1 x = 1/2 by the 2-point rule mapped from [-1, 1]
    nodes = gauss_legendre_nodes(2, p128)
    with workprec(200):
        total = sum(w * (1 + x) / 2 for x, w in nodes) / 2
        assert abs(total - mpf(1) / 2) <= ldexp(1, -(p128.bits - 8))


# --- 2D tensor rule ---------------------------------------------------------


def tensor_sum(integrand, pairs):
    """`_product_sum`'s reference: sum_x wx * sum_y wy * f(x, y) in mpf, cell by cell; and its evaluations."""
    f = integrand.evaluator
    pts = [(x, w) for x1, x2, w in pairs for x in (x1, x2)]
    S = mpf(0)
    for x, wx in pts:
        row = mpf(0)
        for y, wy in pts:
            row += wy * f(x, y)
        S += wx * row
    return S, len(pts) ** 2


def test_2d_constant(p64):
    f = quadrature.product("c2", lambda c, x: c.one, lambda c, t: c.one)
    r = integrate_2d(f, GaussLegendre(), p64)
    assert abs(r.value - 1) < ldexp(1, -50)


def test_2d_xy_quarter(p64):
    r = integrate_2d(xy(), GaussLegendre(), p64)
    assert abs(r.value - mpf(1) / 4) < ldexp(1, -50)


def test_2d_gl_order_2_xy_quarter(p128):
    # one rung of the tensor rule: the 2-point rule on each axis is exact on xy
    with workprec(p128.guarded):
        pairs = quadrature._gl_axis((0, 1), quadrature._gl_halfline(2, p128.guarded))
        halfw = quadrature._interval((0, 1))[2]
        for S, n in (tensor_sum(xy(), pairs), quadrature._product_sum(xy(), pairs)):
            assert n == 4
            assert abs(halfw * halfw * S - mpf(1) / 4) <= ldexp(1, -(p128.bits - 8))


def test_2d_separable_matches_1d_product(p64):
    # g(x) g(y) with h = 1 is the square of g's 1D integral
    fx = Integrand(id="fx", evaluator=lambda x: x * x / (1 + x), domain=(0, 1))
    f2 = quadrature.product("fxy", lambda c, x: c.div(c.sq(x), c.one + x), lambda c, t: c.one)
    rx = integrate(fx, GaussLegendre(), p64)
    r2 = integrate_2d(f2, GaussLegendre(), p64)
    with workprec(128):
        assert abs(r2.value - rx.value**2) <= ldexp(1, -56)


def test_a_2d_integrand_is_a_product_form():
    # refused where it is declared, by `dataclasses.replace` too, not when it is integrated
    with pytest.raises(ValueError, match="a 2D integrand is a product form, got none on 'xy'"):
        Integrand(id="xy", evaluator=lambda x, y: x * y, domain=((0, 1), (0, 1)))
    with pytest.raises(ValueError, match="a 2D integrand is a product form, got none on 'sigma_double'"):
        dataclasses.replace(get_integrand("sigma_double"), form=None)


def test_a_2d_integrand_is_smooth_on_a_square():
    # refused where it is declared, by `dataclasses.replace` too, not when it is integrated
    with pytest.raises(ValueError, match="a 2D integrand is smooth on a square, got .* on 'xy'"):
        dataclasses.replace(xy(), domain=((0, 1), (0, 2)))
    with pytest.raises(ValueError, match="a 2D integrand is smooth on a square"):
        dataclasses.replace(get_integrand("sigma_double"), domain=((0, 1), (0, 2)))


@pytest.mark.parametrize("end", [0.1, "1/3"])
def test_a_domain_end_is_a_rational_or_a_closed_form(end):
    # a float would stand for its binary value, not the decimal written, and a
    # string would be parsed: each is refused when built, in 1D and in 2D
    with pytest.raises(TypeError, match=f"a domain end is a rational or a ClosedForm, got {end!r}"):
        Integrand(id="x", evaluator=lambda x: x, domain=(0, end))
    with pytest.raises(TypeError, match=f"a domain end is a rational or a ClosedForm, got {end!r}"):
        dataclasses.replace(xy(), domain=((0, end), (0, end)))


def test_a_closed_form_end_of_no_term_but_1_is_its_rational(cold_caches, p128):
    # one interval, one spelling: (0, 1) and (0, ClosedForm({ONE: 1})) make one
    # square, and their integrals share each level's floored nodes
    one = ClosedForm({BasisConstant.ONE: Fraction(1)})
    xy_square = dataclasses.replace(xy(), domain=((0, 1), (0, one)))
    assert xy_square.domain == ((0, 1), (0, 1))
    sigma_square = dataclasses.replace(get_integrand("sigma_double"), domain=((0, one), (ClosedForm(), 1)))
    assert sigma_square.domain == xy_square.domain
    f = quadrature.expression("x_sq", lambda c, x: c.sq(x))
    results = [integrate(dataclasses.replace(f, domain=d), TanhSinh(), p128) for d in ((0, 1), (0, one))]
    assert results[0] == results[1]
    assert quadrature._ts_fixed_nodes.cache_info().currsize == results[0].level_or_order
    assert dataclasses.replace(f, domain=(0, HALF_PI)).domain == (0, HALF_PI)  # a multiple of pi stays a form


def test_2d_tanh_sinh_inner_is_refused(p64):
    with pytest.raises(ValueError, match="Gauss-Legendre only"):
        integrate_2d(xy(), TanhSinh(), p64)


# --- the fixed-point kernel of a declared product form -----------------------


SIGMA = get_integrand("sigma_double")


@pytest.mark.parametrize("bits", [128, 320, 1088])
def test_sigma_evaluator_matches_its_written_out_integrand(bits):
    # eq05's integrand as the paper writes it; g(x) g(y) h(xy) and this form round
    # 10 and 12 times, and differ by at most 5 ulps on this grid at these widths
    with workprec(bits):
        pairs = quadrature._gl_axis((0, 1), quadrature._gl_halfline(32, bits))
        xs = [mpf(0), mpf(1)] + [x for x1, x2, _w in pairs for x in (x1, x2)]
        for x in xs:
            for y in xs:
                form = -(x * x * y * y) / ((1 + x * x * y * y) * (1 + x) * (1 + y))
                assert abs(SIGMA.evaluator(x, y) - form) <= 8 * ulp(form, bits), (x, y)


@pytest.mark.parametrize("bits", [64, 320])
def test_sigma_product_form_matches_evaluator(bits):
    # f(x, y) = g(x) g(y) h(xy), with g in mpf and h in integers scaled by 2^W
    g, h = SIGMA.form
    W = bits + 8
    with workprec(bits):
        pts = [mpf(0), mpf(1) / 7, mpf(1) / 3, mpf(1) / 2, mpf("0.9"), mpf(1)]
        for x in pts:
            for y in pts:
                H = ldexp(h(numeric.fixed_context(W), int(ldexp(x * y, W))), -W)
                G = g(numeric.MP, x) * g(numeric.MP, y)
                assert abs(G * H - SIGMA.evaluator(x, y)) <= ldexp(1, -(bits - 2))


def test_product_sum_evaluates_g_once_per_node():
    g, h = SIGMA.form
    calls = []

    def counted(c, x):
        calls.append(x)
        return g(c, x)

    f = dataclasses.replace(SIGMA, form=(counted, h))
    with workprec(320):
        quadrature._product_sum(f, quadrature._gl_axis((0, 1), quadrature._gl_halfline(32, 320)))
    assert len(calls) == len(set(calls)) == 32
    calls.clear()
    r = integrate_2d(f, GaussLegendre(), Precision(224))  # a ladder at width 288 reaches order 128
    assert r.level_or_order == 128
    assert len(calls) == sum(quadrature._gl_orders(128)) == 248


@pytest.mark.parametrize("bits, order", [(320, 8), (320, 16), (320, 64), (320, 128), (576, 256)])
def test_product_sum_matches_the_cell_by_cell_sum(bits, order):
    # the integer rung is within 2^-(bits + 4) of the exact sum of its rounded
    # inputs; the mpf reference drifts by about 2^-(bits + 2) at these orders
    with workprec(bits):
        pairs = quadrature._gl_axis((0, 1), quadrature._gl_halfline(order, bits))
        ref, n_ref = tensor_sum(SIGMA, pairs)
        got, n_got = quadrature._product_sum(SIGMA, pairs)
        assert n_got == n_ref == order * order
        assert abs(got - ref) <= ldexp(1, -bits)


def square_sum(integrand, pairs):
    """`_product_sum`'s integer S, summed here cell by cell over the whole square of its axis."""
    g, h = integrand.form
    pts = [(x, w) for x1, x2, w in pairs for x in (x1, x2)]
    W = mp.prec + 8 + len(pts).bit_length()
    h = partial(h, numeric.fixed_context(W))
    axis = [(int(ldexp(w * g(numeric.MP, x), W)), int(ldexp(x, W))) for x, w in pts]
    return sum(A * B * h(U * V >> W) for A, U in axis for B, V in axis)


TRIANGLES = [(order, 320) for order in (8, 16, 32, 64, 128, 256)] + [pytest.param(512, 1088, marks=pytest.mark.slow)]


@pytest.mark.parametrize("order, bits", TRIANGLES)
def test_product_sum_over_one_triangle_is_the_square_sum(monkeypatch, order, bits):
    # h(U_i U_j >> W) = h(U_j U_i >> W), so the triangle's integer is the square's
    # exactly, not merely within a bound; the rule's size stays n^2 evaluations
    with workprec(bits):
        pairs = quadrature._gl_axis((0, 1), quadrature._gl_halfline(order, bits))
        sums = []  # the integer S, read as `_product_sum` hands it to mpf
        monkeypatch.setattr(quadrature, "mpf", lambda S: sums.append(S) or mpf(S))
        _value, n = quadrature._product_sum(SIGMA, pairs)
        monkeypatch.undo()
        assert sums == [square_sum(SIGMA, pairs)]
        assert n == order * order


# --- the fixed-point tanh-sinh ladder of a declared kernel ---------------------


def kernel_integrands(bits):
    """Every registered kernel, the ln-x pair's among them, and the F/H families at the widest arguments they meet."""
    with workprec(bits):
        above_one = 1 + ldexp(1, -(bits // 3))  # a x > 1 near x = 1: ln(1 + a^2 x^2) reduces by 2 ln2
        return [
            _param_integrand("F", above_one, "1+h"),
            _param_integrand("H", above_one, "1+h"),
            _param_integrand("F", mpf(3) / 10 - ldexp(1, -(bits // 3)), "0.3-h"),
        ] + [f for f in _REGISTRY.values() if f.dimension == 1 and f.form]


# ladder width -> the last level compared: the deepest the catalog reaches at
# 128 and 320 bits, and at 1088 bits two short of it (level 9), to keep the test short
KERNEL_LADDER_CAPS = {128: 6, 320: 7, 1088: 7}


@pytest.mark.parametrize("bits", sorted(KERNEL_LADDER_CAPS))
def test_fixed_ladder_matches_the_mpf_ladder(bits):
    # the integer sum is within 2^-(bits + 7) of the exact trapezoid sum; the mpf
    # ladder, with the form's right-end skip, rounds each of its additions to `bits`,
    # and drifts by up to ~2^-(bits - 4)
    cap = KERNEL_LADDER_CAPS[bits]
    for f in kernel_integrands(bits):
        assert f.form
        # next to a singular right end the mpf evaluator reads b - x off an abscissa
        # rounded to `bits`, up to ulp(b) from the node, and its weight ~ (b - x) h pi cosh t
        # carries ulp(b)/(b - x) into T_k: up to 335 units of 2^-bits at 1088 bits (level 1),
        # where the integer ladder, reading b - x from the table, is within 4 (the test below)
        bound = ldexp(1, -(bits - (12 if f.singular_right else 8)))
        with workprec(bits):
            got = list(quadrature._ts_fixed_ladder(f, cap, bits))
            want = list(reference_ts_ladder(f, cap, bits))
            assert [(lev, n) for lev, _, n in got] == [(lev, n) for lev, _, n in want], f.id
            for (lev, T, _), (_, T_mpf, _) in zip(got, want):
                assert abs(T - T_mpf) <= bound, (f.id, lev)


# sup |f'| over the domain, as the bound comment of `_ts_fixed_ladder` states it
KERNEL_LIPSCHITZ = {
    "middle_t": 1.5,
    "i3_integrand": 1,
    "eq16_integrand": 1,
    "middle_alpha": 1,
    "eq06_inner": 0.66,
    "eq17_integrand": 0.55,
    "x_ln_1px2_over_1px2": 0.55,
    "i1_integrand": 0.51,
    "ln1p_t_over_t": 0.5,
    "i2_integrand": 0.44,
    "F_at": 0.44,
    "f_prime_closed": 0.39,
    "a_integrand": 0.36,
    "c_integrand": 0.33,
    "b_integrand": 0.31,
    "h_prime_closed": 0.12,
}


def test_kernel_integrands_have_the_lipschitz_constants_the_ladder_bound_states(cold_caches):
    with workprec(80):
        h = ldexp(1, -36)  # the widest finite-difference step, at 109 bits
        params = [
            (_param_integrand(n, a + s * h, "lip"), a + s * h if n == "H" else KERNEL_LIPSCHITZ["F_at"])
            for a in (mpf(3) / 10, mpf(7) / 10, mpf(1))
            for s in (1, -1)
            for n in "FH"
        ]
        registered = bounded_forms()
        family = {f.id: "eq06_inner" if f.id.startswith("eq06_inner") else f.id for f in registered}
        for f, L in params + [(f, KERNEL_LIPSCHITZ[family[f.id]]) for f in registered]:
            lo, hi, _, _ = quadrature._interval(f.domain)
            xs = [lo + (hi - lo) * k / 400 for k in range(401)]
            assert max(abs(f.evaluator(x)) for x in xs) <= 1, f.id
            slopes = [diff(f.evaluator, x, direction=1 if x == lo else -1 if x == hi else 0) for x in xs]
            assert max(map(abs, slopes)) <= L, f.id


# the ln-x pair's g and h: sup |g'| and sup |h'|, as the bound comment of `_ts_fixed_ladder` states them
LN_X_LIPSCHITZ = {"i1_minus_ln_x": (0.51, 0.65), "neg_ln_x_over_1px2": (0, 0.65)}


def test_ln_x_pair_has_the_g_and_h_constants_the_ladder_bound_states():
    assert set(LN_X_LIPSCHITZ) == {f.id for f in log_forms() if f.domain == (0, 1)}
    with workprec(80):
        xs = [mpf(k) / 400 for k in range(401)]
        for name, constants in LN_X_LIPSCHITZ.items():
            assert get_integrand(name).form[2] is None
            for part, L in zip(get_integrand(name).form, constants):
                fn = partial(part, numeric.MP)
                assert max(abs(fn(x)) for x in xs) <= 1, name
                slopes = [diff(fn, x, direction=1 if x == 0 else -1 if x == 1 else 0) for x in xs]
                assert max(map(abs, slopes)) <= L, name


@pytest.mark.parametrize("width, deepest", [(320, 7), (1088, 9)])
def test_ln_x_column_and_kernels_are_within_their_bounds(width, deepest):
    # every node of levels 1-3, and the innermost nodes of the deepest level the
    # catalog reaches at this width, where X1 floors to 0 and ln x1 comes from the table's ln q
    W = width + quadrature.FIXED_EXTRA_BITS
    q = W / 128 + 3
    kernels = {name: ln_x_kernel(get_integrand(name), W) for name in LN_X_PAIR}
    nodes = [(lev, n) for lev in (1, 2, 3) for n in range(len(quadrature._ts_ln_x_nodes((0, 1), width, lev)))]
    nodes += [(deepest, n) for n in range(len(quadrature._ts_ln_x_nodes((0, 1), width, deepest)))][-8:]
    floored_to_0 = 0
    with workprec(W + 128):
        for lev, n in nodes:
            XL1, XL2, _ = quadrature._ts_ln_x_nodes((0, 1), width, lev)[n]
            d, _, _ = quadrature._ts_levels(width, lev)[lev][n]
            floored_to_0 += XL1[0] == 0
            for (X, L, M), x, r in ((XL1, d / 2, 1 - d / 2), (XL2, 1 - d / 2, d / 2)):  # r = 1 - x, not rounded
                ln_x = log(x)
                assert abs(ln_x) <= (W + 20) * mp.ln2, (lev, n)
                assert abs(L - ln_x * 2**W) <= q + 7, (lev, n, x)
                assert abs(M - log(r) * 2**W) <= q + 7, (lev, n, x)  # ln(b - x), which the pair has no k for
                for name, kernel in kernels.items():
                    exact = get_integrand(name).evaluator(x) * 2**W
                    assert abs(kernel((X, L, M)) - exact) <= 2 * q + 15 + 4 * abs(ln_x), (name, lev, n)
    assert floored_to_0 >= 4


@pytest.mark.parametrize(
    "bits", [109, 128, 256, 512, pytest.param(1024, marks=pytest.mark.slow), pytest.param(2048, marks=pytest.mark.slow)]
)
def test_ln_x_pair_integer_ladder_gives_the_mpf_ladders_result(bits):
    assert_integer_ladders_give_the_mpf_ladders_results(LN_X_PAIR, bits)


def assert_integer_ladders_give_the_mpf_ladders_results(names, bits):
    # at the width the catalog integrates at: the same value, evaluations and level
    pg = Precision(Precision(bits).guarded)
    for name in names:
        f = get_integrand(name)
        got = integrate(f, TanhSinh(), pg)
        want = reference_integrate(f, pg)
        assert (got.value._mpf_, got.evaluations, got.level_or_order) == (
            want.value._mpf_,
            want.evaluations,
            want.level_or_order,
        ), name


LOG_SINE = ("log_sin_half", "log_sin_full", "log_cos_half")


@pytest.mark.parametrize(
    "bits", [109, 128, 256, 512, pytest.param(1024, marks=pytest.mark.slow), pytest.param(2048, marks=pytest.mark.slow)]
)
def test_log_sine_integer_ladder_gives_the_mpf_ladders_result(bits):
    # the right-end skip included: `log_sin_full` and `log_cos_half` make 640
    # evaluations each at 256 bits, `log_sin_half` 647
    assert_integer_ladders_give_the_mpf_ladders_results(LOG_SINE, bits)


# ln sin x and ln cos x from x and the distance r = b - x, which an abscissa
# next to b, rounded even 128 bits wider, would lose
LOG_SINE_EXACT = {
    "log_sin_half": lambda x, r: log(sin(x)),
    "log_sin_full": lambda x, r: log(sin(min(x, r))),
    "log_cos_half": lambda x, r: log(sin(r)),
}


# sup |g| and sup |g'| of each log-sine integrand's g, as the bound comment of
# `_ts_fixed_ladder` states them; each h and k is 1
LOG_SINE_G = {"log_sin_half": (0.46, 0.64), "log_sin_full": (1.15, 0.32), "log_cos_half": (0.46, 0.64)}


def test_log_sine_g_has_the_constants_the_ladder_bound_states():
    assert set(LOG_SINE_G) == {f.id for f in log_forms() if f.domain != (0, 1)}
    W = 336
    for name, (M, L) in LOG_SINE_G.items():
        f = get_integrand(name)
        g, h, k = f.form
        for part in (h, k):
            assert part is None or (part(numeric.MP, 0), part(numeric.fixed_context(W), 0)) == (1, 1 << W)
        with workprec(80):
            lo, hi, _, _ = quadrature._interval(f.domain)
            # ln cos t's g is 0/0 at pi/2 itself, where the ladder never evaluates it
            xs = [lo + (hi - lo) * k / 400 for k in range(400)] + [hi - (hi - lo) / 10**6]
            fn = partial(g, numeric.MP)
            assert max(abs(fn(x)) for x in xs) <= M, name
            assert max(abs(diff(fn, x, direction=1 if x == lo else 0)) for x in xs) <= L, name


def log_sine_nodes(f, width, deepest):
    """(level, index) of each node of levels 1-3, and the deepest level's 8 innermost and 4 next to its skip."""
    nodes = [(lev, n) for lev in (1, 2, 3) for n in range(len(quadrature._ts_ln_x_nodes(f.domain, width, lev)))]
    count = len(quadrature._ts_ln_x_nodes(f.domain, width, deepest))
    kept = count - quadrature._ts_right_skips(f.domain, width, deepest)
    return nodes + [(deepest, n) for n in sorted({*range(count - 8, count), *range(kept - 4, kept)})]


@pytest.mark.parametrize("width, deepest", [(320, 7), (1088, 9)])
def test_log_sine_kernels_are_within_their_bounds(width, deepest):
    # each log-sine kernel against its integrand 128 bits wider, on each abscissa
    # the ladder evaluates: not an x2 that the right-end skip leaves out
    W = width + quadrature.FIXED_EXTRA_BITS
    q = W / 128 + 3
    floored_to_0 = skipped = 0
    for name in LOG_SINE:
        f = get_integrand(name)
        kernel, exact = ln_x_kernel(f, W), LOG_SINE_EXACT[name]
        with workprec(W + 128):
            _, b, halfw, _ = quadrature._interval(f.domain)
            for lev, n in log_sine_nodes(f, width, deepest):
                nodes = quadrature._ts_ln_x_nodes(f.domain, width, lev)
                kept = len(nodes) - (quadrature._ts_right_skips(f.domain, width, lev) if f.singular_right else 0)
                node1, node2, _ = nodes[n]
                d, _, _ = quadrature._ts_levels(width, lev)[lev][n]
                evaluated = [(node1, halfw * d, b - halfw * d), (node2, b - halfw * d, halfw * d)][: 1 + (n < kept)]
                skipped += n >= kept
                floored_to_0 += node1[0] == 0
                for (X, L, M), x, r in evaluated:
                    assert abs(L - log(x) * 2**W) <= q + 7, (name, lev, n)
                    assert abs(M - log(r) * 2**W) <= q + 7, (name, lev, n)
                    # ln cos t's quotient divides by pi/2 - x: 4/(b - x) units more
                    bound = 5 * q + 20 + (4 / r if name == "log_cos_half" else 0)
                    assert abs(kernel((X, L, M)) - exact(x, r) * 2**W) <= bound, (name, lev, n)
    assert floored_to_0 >= 8 and skipped >= 8


@pytest.mark.parametrize("width, cap", [(320, 7), (1088, 3)])
def test_log_sine_integer_ladder_is_within_its_bound_of_the_exact_trapezoid_sums(width, cap):
    # T_k before its one rounding to mpf, against the trapezoid sum on the table's
    # nodes with the same right-end skip, summed 128 bits wider
    W = width + quadrature.FIXED_EXTRA_BITS
    q, l = W / 128 + 3, (W + 20) * math.log(2)
    for name in LOG_SINE:
        f, exact = get_integrand(name), LOG_SINE_EXACT[name]
        with workprec(W + 128):
            _, b, halfw, mid = quadrature._interval(f.domain)
            bound = ldexp(halfw * (2 * (5 * q + 20) + 16 * l + 40) + 8 * l, -W)
            got = [T for _, T, _ in quadrature._ts_fixed_ladder(f, cap, width)]
            S = pi / 2 * exact(mid, mid)
            for lev in range(1, cap + 1):
                table = quadrature._ts_levels(width, lev)[lev]
                kept = len(table) - (quadrature._ts_right_skips(f.domain, width, lev) if f.singular_right else 0)
                for n, (d, w, _) in enumerate(table):
                    x1, x2 = halfw * d, b - halfw * d
                    S += w * (exact(x1, x2) + (exact(x2, x1) if n < kept else 0))
                assert abs(got[lev - 1] - ldexp(halfw * S, -lev)) <= bound, (name, lev)


def test_integrate_sums_a_declared_kernel_on_the_same_steps(p256):
    def never(x):
        raise AssertionError("the mpf evaluator ran")

    for f in kernel_integrands(p256.guarded):
        got = integrate(dataclasses.replace(f, evaluator=never), TanhSinh(), p256)
        want = reference_integrate(f, p256)
        assert (got.evaluations, got.level_or_order) == (want.evaluations, want.level_or_order)
        assert abs(got.value - want.value) <= ldexp(1, -(p256.bits - 1))


def test_integrate_sums_a_declared_kernel_over_a_reversed_domain(p128):
    # halfw < 0: the integer ladder keeps its sign, as the mpf ladder does
    f = quadrature.expression("x_sq_from_1_to_0", lambda c, x: c.sq(x), domain=(1, 0))
    got = integrate(f, TanhSinh(), p128)
    want = integrate(dataclasses.replace(f, form=None), TanhSinh(), p128)
    assert want.value < 0
    assert abs(got.value - want.value) <= ldexp(1, -(p128.bits - 1))


def test_each_integer_ladder_looks_up_its_context_once(monkeypatch, p128):
    # a 1D ladder binds its kernel once, and eq05 its h once per rung: no lookup per evaluation
    calls = []
    monkeypatch.setattr(quadrature, "fixed_context", lambda W: calls.append(W) or numeric.fixed_context(W))
    r = integrate(get_integrand("i2_integrand"), TanhSinh(), p128)
    assert r.evaluations > 100
    assert calls == [p128.guarded + quadrature.FIXED_EXTRA_BITS]
    calls.clear()
    r = integrate_2d(get_integrand("sigma_double"), GaussLegendre(), p128)
    assert calls == [p128.guarded + 8 + n.bit_length() for n in quadrature._gl_orders(r.level_or_order)]
    assert len(calls) == 4  # orders 8, 16, 32 and 64


def test_fixed_kernel_needs_a_bounded_1d_integrand(p64):
    # an expression is bounded and takes no singular flag; a logarithmic end is
    # declared through its h or k, which marks that end singular, so that
    # Gauss-Legendre refuses it while tanh-sinh sums it on the integer ladder
    with pytest.raises(TypeError, match="singular_left"):
        quadrature.expression("k", lambda c, x: x, singular_left=True)
    # h, k and the domain are keyword-only: a third positional argument, as in an
    # old call expression(id, g, domain), is refused, not read as h
    with pytest.raises(TypeError, match="positional"):
        quadrature.expression("k", lambda c, x: x, (0, 2))

    def minus_one(c, x):
        return -c.one

    for logs, flag in (({"h": minus_one}, "singular_left"), ({"k": minus_one}, "singular_right")):
        f = quadrature.expression("k", lambda c, x: 0, **logs)
        assert f.form and getattr(f, flag) and f.singular_left + f.singular_right == 1
        assert abs(integrate(f, TanhSinh(), p64).value - 1) <= ldexp(1, -56)  # -int_0^1 ln x = 1
        with pytest.raises(DomainError, match="refuses singular integrand 'k'"):
            integrate(f, GaussLegendre(), p64)

    def never(*args):
        raise AssertionError("evaluated")

    f2 = quadrature.product("k2", never, never)
    with pytest.raises(ValueError, match="needs a 1D integrand"):
        integrate(f2, TanhSinh(), p64)


def test_a_bad_form_is_refused_where_it_is_declared():
    # a logarithm needs a domain (0, b) with b > 0, and a form has its domain's
    # shape: both are refused when the integrand is built, by `dataclasses.replace` too
    def minus_one(c, x):
        return -c.one

    with pytest.raises(ValueError, match="a domain \\(0, b\\) with b > 0, got \\(1, 2\\)"):
        quadrature.expression("k", lambda c, x: 0, h=minus_one, domain=(1, 2))
    with pytest.raises(ValueError, match="a domain \\(0, b\\) with b > 0, got \\(1, 2\\)"):
        dataclasses.replace(get_integrand("neg_ln_x_over_1px2"), id="shifted", domain=(1, 2))
    # ln x of a negative x: the ladder took ln b of a complex mpc
    pi_minus = [ClosedForm({BasisConstant.ONE: -n, BasisConstant.PI: 1}) for n in (4, 3)]  # pi - 4 and pi - 3
    for b in (-1, Fraction(0), ClosedForm({BasisConstant.PI: Fraction(-1, 2)}), pi_minus[0]):
        with pytest.raises(ValueError, match=f"a domain \\(0, b\\) with b > 0, got \\(0, {re.escape(repr(b))}\\)"):
            quadrature.expression("neg", lambda c, x: 0, h=minus_one, domain=(0, b))
    with pytest.raises(ValueError, match="with b > 0, got \\(0, -1\\)"):
        dataclasses.replace(get_integrand("log_cos_half"), domain=(0, -1))
    assert quadrature.expression("k", minus_one, k=minus_one, domain=(0, pi_minus[1])).singular_right
    with pytest.raises(ValueError, match="a 2D form has 2 parts, got 3 on 'k2'"):
        Integrand(id="k2", evaluator=lambda x, y: x * y, domain=((0, 1), (0, 1)), form=(minus_one,) * 3)
    with pytest.raises(ValueError, match="a 1D form has 3 parts, got 2 on 'k1'"):
        Integrand(id="k1", evaluator=lambda x: x, domain=(0, 1), form=(minus_one,) * 2)
    assert quadrature.expression("k", minus_one, domain=(1, 2)).domain == (1, 2)  # a bounded form may sit anywhere


def test_a_form_is_singular_exactly_where_it_has_a_logarithm():
    # the flags are read off the form, and set nowhere: a flag that disagreed with
    # k would stop the integer ladder skipping the right-end nodes, and one that
    # disagreed with h would build every Gauss-Legendre rung before a `NonconvergenceError`
    for f in _REGISTRY.values():
        logs = (bool(f.form[1]), bool(f.form[2])) if f.dimension == 1 and f.form else (False, False)
        assert (f.singular_left, f.singular_right) == logs, f.id
    assert {f.id for f in _REGISTRY.values() if f.singular_left or f.singular_right} == {f.id for f in log_forms()}
    with pytest.raises(TypeError, match="singular_left"):
        Integrand(id="ln", evaluator=log, domain=(0, 1), singular_left=True)
    for fid, flag in (("log_sin_full", "singular_right"), ("neg_ln_x_over_1px2", "singular_left")):
        with pytest.raises(TypeError, match=flag):
            dataclasses.replace(get_integrand(fid), **{flag: False})


# --- golden results, one integrand per refinement path ------------------------
#
# Mantissa/exponent pairs of the value and error estimate, evaluation counts
# and the step reached, pinned so that a change to the refinement loop or to
# the node tables that moves a single bit shows here.

GOLDEN = {
    "ts1d": (
        lambda x: x * x / (1 + x),
        TanhSinh(),
        (262898319060176249625027356193081514685, -130),
        (5, -160),
        285,
        5,
    ),
    "gl1d": (
        lambda x: 1 / (1 + x),
        GaussLegendre(),
        (235865763225513294137944142764154484399, -128),
        (1, -160),
        120,
        64,
    ),
    "gl2d": (  # 1/(1 + xy) as a product form: g = 1, h(t) = 1/(1 + t)
        (lambda c, x: c.one, lambda c, t: c.div(c.one, c.one + t)),
        GaussLegendre(),
        (1896479859329717027, -61),
        (2267, -96),
        1344,
        32,
    ),
}


@pytest.mark.parametrize("path", sorted(GOLDEN))
def test_golden_results(path, p64, p128):
    fn, scheme, value, est, evals, step = GOLDEN[path]
    if path.endswith("2d"):
        r = integrate_2d(quadrature.product(path, *fn), scheme, p64)
    else:
        f = Integrand(id=path, evaluator=fn, domain=(0, 1))
        r = integrate(f, scheme, p128)
    assert r.value.man_exp == value
    assert r.error_estimate.man_exp == est
    assert r.evaluations == evals
    assert r.level_or_order == step


@pytest.mark.parametrize("case", sorted(LADDER_CASES))
def test_gl_ladder_matches_the_mpf_operator_loop(case):
    f = Integrand(id=case, evaluator=LADDER_CASES[case], domain=(0, 1))
    bits, cap = 128, 64
    with workprec(bits):
        got = [(order, T._mpf_, evals) for order, T, evals in quadrature._gl_ladder(f, cap, bits)]
        want, evals = [], 0
        halfw = quadrature._interval(f.domain)[2]
        for order in quadrature._gl_orders(cap):
            pairs = quadrature._gl_axis(f.domain, quadrature._gl_halfline(order, bits))
            S = mpf(0)
            for xp, xm, w in pairs:
                S += w * (f.evaluator(xp) + f.evaluator(xm))
            evals += 2 * len(pairs)
            want.append((order, (halfw * S)._mpf_, evals))
    assert got == want
