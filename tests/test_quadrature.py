import hashlib
from fractions import Fraction

import pytest
from mpmath import ldexp, log, mp, mpf, sin, workprec
from mpmath.calculus.quadrature import GaussLegendre as MpmathGaussLegendre

from hpcert import (
    DomainError,
    GaussLegendre,
    Integrand,
    NonconvergenceError,
    PiMultiple,
    Precision,
    TanhSinh,
    gauss_legendre_nodes,
    integrate,
    integrate_2d,
    quadrature,
    tanh_sinh_nodes,
)
from hpcert.identities import _REGISTRY, get_integrand
from oracle_values import A1, LOGSINE, assert_close


def const_one():
    return Integrand(id="one", evaluator=lambda x: mpf(1), domain=(0, 1))


def test_node_functions_refuse_out_of_range_input(monkeypatch, p64):
    # a refused level builds nothing: level 30 would mean about 2^30 nodes
    monkeypatch.setattr(quadrature, "_TS_TABLES", {})
    for level in (-1, quadrature.MAX_LEVEL + 1, 30):
        with pytest.raises(ValueError):
            tanh_sinh_nodes(level, p64)
    for order in (quadrature.MIN_ORDER - 1, quadrature.MAX_ORDER + 1):
        with pytest.raises(ValueError):
            gauss_legendre_nodes(order, p64)
    assert quadrature._TS_TABLES == {}


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


def test_ts_table_built_only_to_the_converged_level(monkeypatch, p128):
    monkeypatch.setattr(quadrature, "_TS_TABLES", {})
    f = Integrand(id="lazy", evaluator=lambda x: 1 / (1 + x), domain=(0, 1))
    r = integrate(f, TanhSinh(), p128)
    assert r.level_or_order < quadrature.ts_level_cap(p128.guarded)
    assert len(quadrature._TS_TABLES[p128.guarded]) == r.level_or_order + 1


def test_tanh_sinh_nodes_share_the_integrate_table(monkeypatch, p128):
    monkeypatch.setattr(quadrature, "_TS_TABLES", {})
    tanh_sinh_nodes(6, p128)
    integrate(const_one(), TanhSinh(), p128)
    assert list(quadrature._TS_TABLES) == [p128.guarded]


def test_ts_table_extended_lazily_matches_eager_build(monkeypatch):
    monkeypatch.setattr(quadrature, "_TS_TABLES", {})
    bits = 96
    quadrature._ts_levels(bits, 2)
    with workprec(53):  # levels are generated at their own width, not the caller's
        for lev in range(3, 8):
            quadrature._ts_levels(bits, lev)
    lazy = quadrature._TS_TABLES.pop(bits)
    eager = quadrature._ts_levels(bits, 7)
    assert len(lazy) == len(eager) == 8
    assert lazy == eager


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


DOMAINS_1D = sorted({f.domain for f in _REGISTRY.values() if f.dimension == 1}, key=repr)


@pytest.mark.parametrize("bits", [128, 256])
def test_cached_abscissae_equal_a_fresh_computation(bits):
    # every registered 1D domain (the PiMultiple ones and eq06's (0, x0)
    # among them) at the table key and width the catalog integrates at
    key = Precision(bits).guarded
    assert {(0, PiMultiple(Fraction(1, 2))), (0, Fraction(1, 4))} <= set(DOMAINS_1D)
    with workprec(key):
        for domain in DOMAINS_1D:
            a, b, halfw, _ = quadrature._interval(domain)
            for lev in range(1, 9):
                cached = quadrature._ts_abscissae(domain, key, lev)
                fresh = [(a + halfw * d, b - halfw * d, w) for d, w in quadrature._TS_TABLES[key][lev]]
                assert [[v._mpf_ for v in n] for n in cached] == [[v._mpf_ for v in n] for n in fresh]


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
    f = Integrand(
        id="logsine_test",
        evaluator=lambda t: log(sin(t)),
        domain=(0, PiMultiple(Fraction(1, 2))),
        singular_left=True,
    )
    r = integrate(f, TanhSinh(), p256)
    assert_close(r.value, LOGSINE, mpf(10) ** -40)
    assert r.level_or_order <= 12


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
    f = Integrand(id="sing", evaluator=lambda x: log(x), domain=(0, 1), singular_left=True)
    with pytest.raises(DomainError):
        integrate(f, GaussLegendre(), p64)


def test_dimension_mismatch(p64):
    f2 = Integrand(id="2d", evaluator=lambda x, y: x * y, domain=((0, 1), (0, 1)))
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
    assert isinstance(get_integrand("log_sin_full").domain[1], PiMultiple)
    assert get_integrand("log_sin_full").dimension == 1


def test_nonconvergence_on_nonintegrable(p64):
    f = Integrand(
        id="one_over_x",
        evaluator=lambda x: 1 / x,
        domain=(0, 1),
        singular_left=True,
    )
    with pytest.raises(NonconvergenceError, match=f"by level {quadrature.ts_level_cap(p64.guarded)} "):
        integrate(f, TanhSinh(), p64)


def test_domain_error_on_nonfinite(p64):
    f = Integrand(id="inf", evaluator=lambda x: mpf("inf"), domain=(0, 1))
    with pytest.raises(DomainError):
        integrate(f, TanhSinh(), p64)


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


def test_2d_constant(p64):
    f = Integrand(id="c2", evaluator=lambda x, y: mpf(1), domain=((0, 1), (0, 1)))
    r = integrate_2d(f, GaussLegendre(), p64)
    assert abs(r.value - 1) < ldexp(1, -50)


def test_2d_xy_quarter(p64):
    f = Integrand(id="xy", evaluator=lambda x, y: x * y, domain=((0, 1), (0, 1)))
    r = integrate_2d(f, GaussLegendre(), p64)
    assert abs(r.value - mpf(1) / 4) < ldexp(1, -50)


def test_2d_gl_order_2_xy_quarter(p128):
    # one rung of the tensor rule: the 2-point rule on each axis is exact on xy
    f = Integrand(id="xy", evaluator=lambda x, y: x * y, domain=((0, 1), (0, 1)))
    with workprec(p128.guarded):
        pts, halfw = quadrature._gl_axis((0, 1), quadrature._gl_halfline(2, p128.guarded))
        S, n = quadrature._tensor_sum(f, pts, pts)
        assert n == 4
        assert abs(halfw * halfw * S - mpf(1) / 4) <= ldexp(1, -(p128.bits - 8))


def test_2d_separable_matches_1d_product(p64):
    fx = Integrand(id="fx", evaluator=lambda x: x * x / (1 + x), domain=(0, 1))
    fy = Integrand(id="fy", evaluator=lambda y: 1 / (1 + y * y), domain=(0, 1))
    f2 = Integrand(
        id="fxy",
        evaluator=lambda x, y: (x * x / (1 + x)) * (1 / (1 + y * y)),
        domain=((0, 1), (0, 1)),
    )
    rx = integrate(fx, GaussLegendre(), p64)
    ry = integrate(fy, GaussLegendre(), p64)
    r2 = integrate_2d(f2, GaussLegendre(), p64)
    with workprec(128):
        prod = rx.value * ry.value
        assert abs(r2.value - prod) <= ldexp(1, -56)


def test_2d_tanh_sinh_inner_is_refused(p64):
    f = Integrand(id="xpy", evaluator=lambda x, y: x + y, domain=((0, 1), (0, 1)))
    with pytest.raises(ValueError, match="Gauss-Legendre only"):
        integrate_2d(f, TanhSinh(), p64)


# --- the fixed-point kernel of a declared product form -----------------------


SIGMA = get_integrand("sigma_double")


@pytest.mark.parametrize("bits", [64, 320])
def test_sigma_product_form_matches_evaluator(bits):
    # f(x, y) = g(x) g(y) h(xy), with h in integers scaled by 2^W
    g, h = SIGMA.product
    W = bits + 8
    with workprec(bits):
        pts = [mpf(0), mpf(1) / 7, mpf(1) / 3, mpf(1) / 2, mpf("0.9"), mpf(1)]
        for x in pts:
            for y in pts:
                H = ldexp(h(int(ldexp(x * y, W)), W), -W)
                assert abs(g(x) * g(y) * H - SIGMA.evaluator(x, y)) <= ldexp(1, -(bits - 2))


@pytest.mark.parametrize("bits, order", [(320, 8), (320, 16), (320, 64), (320, 128), (576, 256)])
def test_product_sum_matches_the_cell_by_cell_sum(bits, order):
    # the integer rung is within 2^-(bits + 4) of the exact sum of its rounded
    # inputs; the mpf reference drifts by about 2^-(bits + 2) at these orders
    with workprec(bits):
        pts, _ = quadrature._gl_axis((0, 1), quadrature._gl_halfline(order, bits))
        ref, n_ref = quadrature._tensor_sum(SIGMA, pts, pts)
        got, n_got = quadrature._product_sum(SIGMA, pts, pts)
        assert n_got == n_ref == order * order
        assert abs(got - ref) <= ldexp(1, -bits)


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
    "gl2d": (
        lambda x, y: 1 / (1 + x * y),
        GaussLegendre(),
        (1896479859329717027, -61),
        (567, -94),
        1344,
        32,
    ),
}


@pytest.mark.parametrize("path", sorted(GOLDEN))
def test_golden_results(path, p64, p128):
    fn, scheme, value, est, evals, step = GOLDEN[path]
    if path.endswith("2d"):
        f = Integrand(id=path, evaluator=fn, domain=((0, 1), (0, 1)))
        r = integrate_2d(f, scheme, p64)
    else:
        f = Integrand(id=path, evaluator=fn, domain=(0, 1))
        r = integrate(f, scheme, p128)
    assert r.value.man_exp == value
    assert r.error_estimate.man_exp == est
    assert r.evaluations == evals
    assert r.level_or_order == step
