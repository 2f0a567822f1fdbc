import concurrent.futures
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import atan, ldexp, log, log1p, mpf, workprec

from hpcert import (
    BasisConstant,
    CatalogError,
    ClosedForm,
    Precision,
    catalog,
    cf_add,
    eval_closed_form,
    run_catalog,
    run_check,
)
from hpcert import identities
from hpcert.identities import (
    DEFAULT_TENSOR,
    DEFAULT_TS,
    SIGMA_CF,
    CheckContext,
    IdentityCheck,
    Tol,
    TolExact,
    _f_prime_closed,
    _fd_step,
    _h_prime_closed,
    _param_integrand,
    _quad_pipe,
    get_integrand,
)
from hpcert.quadrature import TanhSinh, integrate, integrate_2d
from oracle_values import (
    A_VALUE,
    B_VALUE,
    C_VALUE,
    EQ16,
    F_PRIME_1,
    H_PRIME_1,
    I2,
    I3,
    SIGMA,
    assert_close,
)

SPEC_IDS = {
    "eq01_sigma_series",
    "eq03_ln2",
    "eq04_tail_routes",
    "eq05_sigma_2d",
    "eq06_inner",
    "eq07_assembly",
    "eq08_A",
    "eq09_B_split",
    "eq10",
    "app1_I1",
    "app1_I1_substitution",
    "app1_logsine",
    "app1_logsine_funceq",
    "app2_I2",
    "app2_middle",
    "app2_li2",
    "eq13_B",
    "eq14_C_split",
    "app3_I3",
    "eq16",
    "eq17",
    "eq18_C",
}


def by_id(cid):
    return {c.id: c for c in catalog()}[cid]


def test_catalog_contents():
    checks = catalog()
    ids = [c.id for c in checks]
    assert len(ids) == len(set(ids))
    assert len(checks) >= 21
    assert SPEC_IDS <= set(ids)


def test_catalog_rhs_stays_in_basis():
    for c in catalog():
        for side in (c.lhs, c.rhs):
            if isinstance(side, ClosedForm):
                assert all(coeff != 0 for _, coeff in side.items)
                # constructing the form already rejects foreign tags; spot-check
                assert len(side.items) <= 7


def test_run_check_eq08(p128):
    r = run_check(by_id("eq08_A"), p128)
    assert r.passed
    assert_close(r.lhs_value, A_VALUE, mpf(10) ** -35)
    assert r.abs_error <= mpf(10) ** -40
    assert r.evaluations > 0
    assert r.elapsed_ms >= 0


def test_run_check_app1_I1_and_eq16(p128):
    ctx = CheckContext(p128)
    i1 = run_check(by_id("app1_I1"), p128, ctx=ctx)
    e16 = run_check(by_id("eq16"), p128, ctx=ctx)
    assert i1.passed and e16.passed
    assert_close(i1.lhs_value, "0.17282745097458205019574093418642286289514247590297", mpf(10) ** -35)
    assert_close(e16.lhs_value, EQ16, mpf(10) ** -35)


def test_run_check_eq13_eq18_frozen(p128):
    ctx = CheckContext(p128)
    b = run_check(by_id("eq13_B"), p128, ctx=ctx)
    c = run_check(by_id("eq18_C"), p128, ctx=ctx)
    assert b.passed and c.passed
    assert_close(b.lhs_value, B_VALUE, mpf(10) ** -35)
    assert_close(c.lhs_value, C_VALUE, mpf(10) ** -35)


def test_eq05_rhs_is_the_series_value(p128):
    ctx = CheckContext(p128)
    series_r = run_check(by_id("eq01_sigma_series"), p128, ctx=ctx)
    r = run_check(by_id("eq05_sigma_2d"), p128, ctx=ctx)
    assert r.passed
    assert_close(r.lhs_value, SIGMA, mpf(10) ** -25)
    assert abs(r.lhs_value - r.rhs_value) <= mpf(10) ** -20
    # the right side is eq01's 30-term accelerated series, recomputed
    assert r.rhs_value == series_r.lhs_value
    assert r.evaluations == ctx.integrate(get_integrand("sigma_double")).evaluations + 30


def test_eq05_double_integral_at_1024_bits():
    # certifies the 2D integral itself far beyond eq05's 30-term series check
    p = Precision(1024)
    r = integrate_2d(get_integrand("sigma_double"), DEFAULT_TENSOR, p)
    with workprec(1024):
        assert abs(r.value - eval_closed_form(SIGMA_CF, p)) <= ldexp(1, -1000)


def test_ctx_integrate_memoises_on_the_integrand(monkeypatch, p64):
    calls = []

    def counting(f, scheme, p):
        calls.append((f.id, scheme))
        return integrate(f, scheme, p)

    monkeypatch.setattr(identities, "integrate", counting)
    ctx = CheckContext(p64)
    f = get_integrand("a_integrand")
    first = ctx.integrate(f)
    assert ctx.integrate(f) is first
    assert calls == [("a_integrand", DEFAULT_TS)]


def test_eq07_exact_assembly(p64):
    r = run_check(by_id("eq07_assembly"), p64)
    assert r.passed
    assert r.abs_error == 0
    assert r.tolerance == 0


def test_eq07_tolerance_override_keeps_zero_error(p64):
    r = run_check(by_id("eq07_assembly"), p64, tolerance_exponent_override=-10)
    assert r.passed
    assert r.abs_error == 0


def test_exact_tolerance_rejects_unequal_closed_forms(p64):
    nudged = cf_add(SIGMA_CF, ClosedForm({BasisConstant.ONE: Fraction(1, 10**15)}))
    check = IdentityCheck(
        id="unequal",
        description="two closed forms that differ by 1e-15",
        ref="-",
        lhs=SIGMA_CF,
        rhs=nudged,
        tolerance_policy=TolExact(Fraction(0)),
    )
    r = run_check(check, p64)
    assert not r.passed
    assert r.abs_error > 0
    assert r.tolerance == 0
    assert r.evaluations == 0


def test_sigma_triple_route(p128):
    ctx = CheckContext(p128)
    series_r = run_check(by_id("eq01_sigma_series"), p128, ctx=ctx)
    double_r = run_check(by_id("eq05_sigma_2d"), p128, ctx=ctx)
    closed = series_r.rhs_value
    assert abs(series_r.lhs_value - closed) <= mpf(10) ** -20
    assert abs(double_r.lhs_value - closed) <= mpf(10) ** -20
    assert abs(series_r.lhs_value - double_r.lhs_value) <= mpf(10) ** -20


def test_catalog_error_on_unregistered():
    with pytest.raises(CatalogError):
        get_integrand("no_such_integrand")
    bogus = IdentityCheck(
        id="bogus",
        description="refers to a missing integrand",
        ref="-",
        lhs=_quad_pipe("no_such_integrand"),
        rhs=ClosedForm.zero(),
        tolerance_policy=Tol(-10),
    )
    with pytest.raises(CatalogError):
        run_check(bogus, Precision(64))


def test_run_catalog_selection_and_order(p128):
    rs = run_catalog(p128, ids=["eq10", "eq08_A"])
    assert [r.id for r in rs] == ["eq08_A", "eq10"]  # catalog order, not request order
    with pytest.raises(CatalogError):
        run_catalog(p128, ids=["nope"])


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: records max_workers, runs inline, forks nothing."""

    sizes = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        future = concurrent.futures.Future()
        future.set_result(fn(*args))
        return future


def test_run_catalog_pool_has_no_more_workers_than_checks(monkeypatch, p64):
    monkeypatch.setattr(_RecordingPool, "sizes", [])
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingPool)
    ids = ["eq01_sigma_series", "eq07_assembly"]
    pooled = run_catalog(p64, ids=ids, jobs=64)
    assert _RecordingPool.sizes == [2]
    assert [r.id for r in pooled] == ids
    run_catalog(p64, ids=ids, jobs=1)
    assert _RecordingPool.sizes == [2]


def test_run_check_refuses_a_context_at_another_precision(p64, p128):
    with pytest.raises(ValueError, match="precision"):
        run_check(by_id("eq07_assembly"), p128, ctx=CheckContext(p64))


def test_tolerance_override(p128):
    r = run_check(by_id("eq03_ln2"), p128, tolerance_exponent_override=-10)
    assert not r.passed
    with workprec(200):
        assert abs(r.tolerance - mpf(10) ** -10) <= ldexp(1, -150)


def test_monotone_refinement_under_level_raise(p128):
    # once converged, a higher level cap must not change the result at all
    rs = []
    for cap in (11, 12):
        q = integrate(get_integrand("a_integrand"), TanhSinh(cap), Precision(p128.guarded))
        rs.append(q)
    assert rs[0].value == rs[1].value
    assert rs[0].level_or_order == rs[1].level_or_order


# --- parameter families F(a), H(a) -----------------------------------------


def param_value(name, alpha, p):
    """F(alpha) or H(alpha) by the catalog's tanh-sinh rule at precision p."""
    with workprec(p.guarded):
        a = mpf(alpha.numerator) / alpha.denominator
    return integrate(_param_integrand(name, a, str(alpha)), DEFAULT_TS, p).value


def test_param_endpoints_zero(p128):
    assert param_value("F", Fraction(0), p128) == 0
    assert param_value("H", Fraction(0), p128) == 0


def test_param_f1_h1_frozen(p256):
    assert_close(param_value("F", Fraction(1), p256), I2, mpf(10) ** -40)
    assert_close(param_value("H", Fraction(1), p256), I3, mpf(10) ** -40)


def test_closed_derivative_at_one(p128):
    with workprec(p128.guarded):
        assert_close(_f_prime_closed(mpf(1)), F_PRIME_1, mpf(10) ** -30)
        assert_close(_h_prime_closed(mpf(1)), H_PRIME_1, mpf(10) ** -30)


def test_h_prime_midpoint_matches_finite_difference(p128):
    # a = 1/2 lies off the catalog's grid {0.3, 0.7, 1}
    pg = Precision(p128.guarded)
    h = _fd_step(p128)
    with workprec(pg.guarded):
        a = mpf(1) / 2
        up = integrate(_param_integrand("H", a + h, "1/2+h"), DEFAULT_TS, pg).value
        dn = integrate(_param_integrand("H", a - h, "1/2-h"), DEFAULT_TS, pg).value
        dev = abs(_h_prime_closed(a) - (up - dn) / (2 * h))
    assert dev <= ldexp(1, -(128 // 2))
    assert run_check(by_id("app3_H_reconstruct"), p128).passed


def test_param_monotone_on_grid(p128):
    for name in ("F", "H"):
        values = [param_value(name, Fraction(k, 10), p128) for k in range(11)]
        assert all(b >= a for a, b in zip(values, values[1:]))


# --- the shared ln(1+x^2) / arctan x / ln x memo ------------------------------

SHARED_DIRECT = [
    (identities._log1p_sq, lambda x: log1p(x * x)),
    (atan, atan),
    (log, log),
]


@settings(max_examples=60, deadline=None)
@given(
    mantissa=st.integers(min_value=1, max_value=2**400),
    exponent=st.integers(min_value=-520, max_value=8),
    bits=st.sampled_from([64, 192, 320, 576]),
)
def test_shared_memo_is_bit_identical_to_direct_calls(mantissa, exponent, bits):
    with workprec(bits):
        x = ldexp(mpf(mantissa), exponent)
        for fn, direct in SHARED_DIRECT:
            want = direct(x)._mpf_
            assert identities._shared(fn, x)._mpf_ == want  # a miss
            assert identities._shared(fn, x)._mpf_ == want  # a hit


def test_shared_memo_never_crosses_precisions(monkeypatch):
    monkeypatch.setattr(identities, "_SHARED", {})
    x = mpf(3) / 8  # exact at every width, so only the width tells the calls apart
    for fn, direct in SHARED_DIRECT:
        for bits in (128, 256, 128):
            with workprec(bits):
                assert identities._shared(fn, x)._mpf_ == direct(x)._mpf_
