import concurrent.futures
import dataclasses
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import atan, cos, iv, ldexp, log, log1p, mp, mpc, mpf, sin, workprec
from mpmath.libmp import to_fixed

from hpcert import (
    BasisConstant,
    CatalogError,
    ClosedForm,
    NonconvergenceError,
    Precision,
    catalog,
    cf_add,
    eval_closed_form,
    run_catalog,
    run_check,
)
from hpcert import identities, numeric, quadrature, series
from hpcert.identities import (
    LN2_DIRECT_TERMS,
    SIGMA_CF,
    CheckContext,
    Combo,
    FiniteDifference,
    IdentityCheck,
    MaxGap,
    Tol,
    TolExact,
    Value,
    _f_prime_closed,
    _fd_step,
    _h_prime_closed,
    _param_integrand,
    get_integrand,
    precision_floor,
)
from hpcert.numeric import constant_value, round_to
from hpcert.quadrature import GaussLegendre, Integrand, TanhSinh, integrate, integrate_2d
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


def _leaves(side):
    """The sides under `side`, with every nested `Combo` and `MaxGap` opened."""
    if isinstance(side, Combo):
        return [leaf for _, s in side.terms for leaf in _leaves(s)]
    if isinstance(side, MaxGap):
        return [leaf for pair in side.pairs for s in pair for leaf in _leaves(s)]
    return [side]


def test_catalog_rhs_stays_in_basis():
    forms = set()
    for c in catalog():
        for leaf in _leaves(c.lhs) + _leaves(c.rhs):
            # every leaf is data: no bare callable stands in for a side
            assert isinstance(leaf, (ClosedForm, str, Integrand, Value, FiniteDifference)), (c.id, leaf)
            if isinstance(leaf, str):
                get_integrand(leaf)
            if isinstance(leaf, ClosedForm):
                forms.add(leaf)
                assert all(coeff != 0 for _, coeff in leaf.items)
                # constructing the form already rejects foreign tags; spot-check
                assert len(leaf.items) <= 7
    assert identities.LI2_CF in forms  # nested in app2_li2's MaxGap


def test_only_checks_that_integrate_nothing_have_no_precision_floor():
    # a side that is neither a closed form nor a `Value` may integrate, so it has a floor
    assert [c.id for c in catalog() if precision_floor([c], -40) < 64] == [
        "eq01_sigma_series",
        "eq03_ln2",
        "eq07_assembly",
    ]
    assert precision_floor(catalog()) == 109


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


# the series terms each check sums through a `Value` that returns a `SeriesResult`
SERIES_TERMS = {"eq01_sigma_series": 30, "eq03_ln2": LN2_DIRECT_TERMS, "eq05_sigma_2d": 30}


class _ReadLog(CheckContext):
    """A context that also lists every integral it hands out, in call order."""

    def __init__(self, p):
        super().__init__(p)
        self.log = []

    def integrate(self, f):
        q = super().integrate(f)
        self.log.append((f, q))
        return q


def test_evaluations_are_series_terms_plus_each_distinct_integral_read(p128):
    ctx = _ReadLog(p128)
    for check in catalog():
        start = len(ctx.log)
        r = run_check(check, p128, ctx=ctx)
        distinct = dict(ctx.log[start:])
        assert r.evaluations == SERIES_TERMS.get(check.id, 0) + sum(q.evaluations for q in distinct.values()), check.id


def test_evaluations_count_each_integral_once_and_only_the_counted_series(p128):
    ctx = _ReadLog(p128)

    def evals(integrand_id):
        return ctx.integrate(get_integrand(integrand_id)).evaluations

    funceq = run_check(by_id("app1_logsine_funceq"), p128, ctx=ctx)
    assert [f.id for f, _ in ctx.log].count("log_sin_half") == 2
    assert funceq.evaluations == evals("log_sin_full") + evals("log_sin_half") + evals("log_cos_half")
    # app2_li2 sums its CRZ series directly: only the quadrature is counted
    assert run_check(by_id("app2_li2"), p128, ctx=ctx).evaluations == evals("ln1p_t_over_t")
    # a memo hit counts the integral it reads, as a fresh context would
    run_check(by_id("eq09_B_split"), p128, ctx=ctx)
    assert run_check(by_id("eq13_B"), p128, ctx=ctx).evaluations == run_check(by_id("eq13_B"), p128).evaluations


@pytest.mark.parametrize("bits", [128, 256])
def test_eq04_tolerance_is_eight_times_the_largest_tail_estimate(bits):
    p = Precision(bits)
    tails = [integrate(series.tail_integrand(n), TanhSinh(), Precision(p.guarded)) for n in (1, 2, 3, 5, 10, 20)]
    est = max(q.error_estimate for q in tails)
    assert est > 0
    with workprec(p.guarded):
        expected = 8 * est
    assert run_check(by_id("eq04_tail_routes"), p).tolerance == round_to(expected, p)


def test_eq05_double_integral_at_1024_bits():
    # certifies the 2D integral itself far beyond eq05's 30-term series check
    p = Precision(1024)
    r = integrate_2d(get_integrand("sigma_double"), GaussLegendre(), p)
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
    assert calls == [("a_integrand", TanhSinh())]


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
        lhs="no_such_integrand",
        rhs=ClosedForm(),
        tolerance_policy=Tol(-10),
    )
    with pytest.raises(CatalogError):
        run_check(bogus, Precision(64))


def test_a_finite_difference_of_an_unknown_family_is_a_catalog_error():
    assert FiniteDifference("F").family == "F"
    with pytest.raises(CatalogError, match="'G' is not a parameter family"):
        FiniteDifference("G")


def stuck(*args):  # an expression (c, x) or an evaluator (x)
    raise NonconvergenceError("injected")


@pytest.mark.parametrize(
    "integrand_id, check_id, read_first",
    [
        ("neg_ln_x_over_1px2", "app1_catalan_integral", ()),
        # the funceq check reads both log-sine integrals before ln cos
        ("log_cos_half", "app1_logsine_funceq", ("log_sin_full", "log_sin_half")),
    ],
)
def test_a_check_that_cannot_be_computed_errors_alone(integrand_id, check_id, read_first, p128, monkeypatch):
    clean = run_catalog(p128)
    f = get_integrand(integrand_id)
    monkeypatch.setitem(identities._REGISTRY, integrand_id, dataclasses.replace(f, expr=stuck, evaluator=stuck))
    results = run_catalog(p128)
    ctx = CheckContext(p128)
    read = sum(ctx.integrate(get_integrand(i)).evaluations for i in read_first)
    errored = dict(lhs_value=None, rhs_value=None, abs_error=None, tolerance=None, passed=False, evaluations=read)
    errored["error"] = "NonconvergenceError: injected"
    assert [r.id for r in results] == [c.id for c in clean]
    for r, c in zip(results, clean):
        want = dataclasses.replace(c, elapsed_ms=r.elapsed_ms, **(errored if c.id == check_id else {}))
        assert r == want, c.id
    assert clean[[c.id for c in clean].index(check_id)].error is None


def test_run_catalog_selection_and_order(p128):
    rs = run_catalog(p128, ids=["eq10", "eq08_A"])
    assert [r.id for r in rs] == ["eq08_A", "eq10"]  # catalog order, not request order
    with pytest.raises(CatalogError):
        run_catalog(p128, ids=["nope"])
    # a bare string would otherwise be read as a list of one-character ids
    with pytest.raises(TypeError, match="list of check ids"):
        run_catalog(p128, ids="eq01_sigma_series")


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: records max_workers, runs inline, forks nothing."""

    sizes = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        return map(fn, *iterables)


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
    # once converged, a higher level cap must not change the result at all;
    # 11 is the cap `integrate` derives at this width
    f = get_integrand("a_integrand")
    pg = Precision(p128.guarded)
    assert quadrature.ts_level_cap(pg.guarded) == 11
    rs = []
    for cap in (11, 12):
        ladder = quadrature._ts_ladder(f, cap, pg.guarded)
        rs.append(quadrature._refine(ladder, pg, f.id, f"level {cap}"))
    assert rs[0].value == rs[1].value
    assert rs[0].level_or_order == rs[1].level_or_order


# --- parameter families F(a), H(a) -----------------------------------------


def param_value(name, alpha, p):
    """F(alpha) or H(alpha) by the catalog's tanh-sinh rule at precision p."""
    with workprec(p.guarded):
        a = mpf(alpha.numerator) / alpha.denominator
    return integrate(_param_integrand(name, a, str(alpha)), TanhSinh(), p).value


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
        up = integrate(_param_integrand("H", a + h, "1/2+h"), TanhSinh(), pg).value
        dn = integrate(_param_integrand("H", a - h, "1/2-h"), TanhSinh(), pg).value
        dev = abs(_h_prime_closed(a) - (up - dn) / (2 * h))
    assert dev <= ldexp(1, -(128 // 2))
    assert run_check(by_id("app3_H_reconstruct"), p128).passed


def test_param_monotone_on_grid(p128):
    for name in ("F", "H"):
        values = [param_value(name, Fraction(k, 10), p128) for k in range(11)]
        assert all(b >= a for a, b in zip(values, values[1:]))


# --- the per-abscissa memo ----------------------------------------------------

SHARED_DIRECT = [
    (numeric.MP.log_x, log),
    (numeric.MP.cos, cos),
    (numeric.MP.sin, sin),
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
        for memo, direct in SHARED_DIRECT:
            want = direct(x)._mpf_
            assert memo(x)._mpf_ == want  # a miss
            assert memo(x)._mpf_ == want  # a hit


def test_shared_memo_never_crosses_precisions(cold_caches):
    x = mpf(3) / 8  # exact at every width, so only the width tells the calls apart
    for memo, direct in SHARED_DIRECT:
        for bits in (128, 256, 128):
            with workprec(bits):
                assert memo(x)._mpf_ == direct(x)._mpf_
    # ln x, and one (cos x, sin x) for both memos, once per width
    assert numeric._shared.cache_info().misses == 4


def test_shared_memo_evaluates_an_interval_as_written(cold_caches):
    # only mpf arguments are shared, so the rational integrands still run on intervals
    x = iv.mpf([0.25, 0.75])
    for got, want in [
        (get_integrand("a_integrand").evaluator(x), x * x / ((1 + x * x) * (1 + x))),
        (series.tail_integrand(2).evaluator(x), x**4 / (1 + x)),
    ]:
        assert (got.a, got.b) == (want.a, want.b)
    # and a memo handed a value that is not an mpf computes it as written, storing nothing
    z = mpc(3, 1)
    for memo, direct in SHARED_DIRECT:
        assert memo(z) == direct(z)
    assert numeric._shared.cache_info().currsize == 0


# --- each evaluator keeps its operation order -------------------------------


def _pinned_nodes(bits):
    """Both abscissae of every tanh-sinh node on [0, 1] at levels 1-3."""
    nodes = [n for lev in (1, 2, 3) for n in quadrature._ts_abscissae((0, 1), bits, lev)]
    return [x for xm, xp, _ in nodes for x in (xm, xp)]


def _pinned_forms():
    """Every registered evaluator against the expression it stands for, written out."""
    ln2 = constant_value(BasisConstant.LN2, mp.prec)  # what the closed forms read at this width
    forms = {
        "a_integrand": lambda x: x * x / ((1 + x * x) * (1 + x)),
        "b_integrand": lambda x: log1p(x * x) / ((1 + x * x) * (1 + x)),
        "c_integrand": lambda x: -x * atan(x) / ((1 + x * x) * (1 + x)),
        "x_ln_1px2_over_1px2": lambda x: x * log1p(x * x) / (1 + x * x),
        "i1_integrand": lambda x: log1p(x * x) / (1 + x * x),
        "i1_minus_ln_x": lambda x: (log1p(x * x) - log(x)) / (1 + x * x),
        "neg_ln_x_over_1px2": lambda x: -log(x) / (1 + x * x),
        "log_sin_half": lambda t: log(sin(t)),
        "log_sin_full": lambda t: log(sin(t)),
        "log_cos_half": lambda t: log(cos(t)),
        "i2_integrand": lambda x: log1p(x * x) / (1 + x),
        "i3_integrand": lambda x: atan(x) / (1 + x),
        "eq16_integrand": lambda x: atan(x) / (1 + x * x),
        "eq17_integrand": lambda x: x * atan(x) / (1 + x * x),
        "middle_alpha": lambda a: a * (log1p(a * a) / (a * a)) / (1 + a * a),
        "middle_t": lambda t: log1p(t) / t / (1 + t),
        "ln1p_t_over_t": lambda t: log1p(t) / t,
        "f_prime_closed": lambda a: (a * (2 * ln2 + log1p(a * a) / (a * a)) - 2 * atan(a)) / (1 + a * a),
        "h_prime_closed": lambda a: (log1p(a * a) / 2 - ln2 + atan(a) / a) / (1 + a * a),
    }
    for x0 in identities.EQ06_GRID:
        x0n = mpf(x0.numerator) / x0.denominator
        forms[f"eq06_inner_{x0.numerator}_{x0.denominator}"] = (
            lambda x0n: lambda u: u * u / ((1 + u * u) * (u + x0n))
        )(x0n)
    evaluators = {i: f.evaluator for i, f in identities._REGISTRY.items() if f.dimension == 1}
    assert forms.keys() == evaluators.keys()  # every registered 1D integrand is pinned
    for n in (1, 2, 3, 5, 10, 20):
        forms[f"tail_{n}"] = (lambda e: lambda x: x**e / (1 + x))(2 * n)
        evaluators[f"tail_{n}"] = series.tail_integrand(n).evaluator
    for a in (mpf(3) / 10, mpf(7) / 10, mpf(1)):
        for side in (a + mpf(2) ** -40, a - mpf(2) ** -40):
            forms[f"F_at_{side}"] = (lambda s: lambda x: log1p((s * x) * (s * x)) / (1 + x))(side)
            forms[f"H_at_{side}"] = (lambda s: lambda x: atan(s * x) / (1 + x))(side)
            for name in ("F", "H"):
                evaluators[f"{name}_at_{side}"] = _param_integrand(name, side, "pin").evaluator
    return [(i, evaluators[i], forms[i]) for i in forms]


@pytest.mark.parametrize("bits", [320, 1088])
def test_evaluators_match_their_written_out_expressions(bits, cold_caches):
    with workprec(bits):
        xs = _pinned_nodes(bits)
        pinned = _pinned_forms()
        for pass_ in ("cold", "warm"):
            for i, evaluator, form in pinned:
                for x in xs:
                    assert evaluator(x)._mpf_ == form(x)._mpf_, (pass_, i, x)


def _forms_before_one_expression():
    """The forms re-pinned when each bounded integrand became one expression, as written before."""
    ln2 = constant_value(BasisConstant.LN2, mp.prec)
    forms = {
        "middle_alpha": lambda a: log1p(a * a) / (a * (1 + a * a)),
        "middle_t": lambda t: log1p(t) / (t * (1 + t)),
        "f_prime_closed": lambda a: (
            2 * a * ln2 / (1 + a * a) + log1p(a * a) / (a * (1 + a * a)) - 2 * atan(a) / (1 + a * a)
        ),
        "h_prime_closed": lambda a: (
            -ln2 / (1 + a * a) + log1p(a * a) / (2 * (1 + a * a)) + atan(a) / (a * (1 + a * a))
        ),
    }
    for a in (mpf(3) / 10, mpf(7) / 10, mpf(1)):
        for side in (a + mpf(2) ** -40, a - mpf(2) ** -40):
            forms[f"F_at_{side}"] = (lambda a2: lambda x: log1p(a2 * x * x) / (1 + x))(side * side)
    return forms


@pytest.mark.parametrize("bits", [320, 1088])
def test_repinned_forms_are_within_4_ulps_of_their_old_forms(bits):
    with workprec(bits):
        xs = _pinned_nodes(bits)
        new = {i: form for i, _, form in _pinned_forms()}
        old = _forms_before_one_expression()
        for i, form in old.items():
            for x in xs:
                # F'(a)'s terms 2a ln2, a and -2a cancel to 0.39a near 0: ulps of its largest term
                scale = 2 * x if i == "f_prime_closed" else form(x)
                assert abs(new[i](x) - form(x)) <= 4 * numeric.ulp(scale, bits), (i, x)


@pytest.mark.parametrize("bits", [128, 320, 1088])
def test_closed_derivatives_match_their_integrand_expressions(bits):
    # `_f_prime_closed` and `_h_prime_closed`, compared with the finite differences,
    # against the registered integrands' arrangement of the same derivatives
    with workprec(bits):
        for closed, integrand in ((_f_prime_closed, "f_prime_closed"), (_h_prime_closed, "h_prime_closed")):
            expr = get_integrand(integrand).evaluator
            for a in (ldexp(1, -40), mpf(3) / 10, mpf(7) / 10, mpf(1)):
                want = closed(a)
                assert abs(expr(a) - want) <= ldexp(abs(want), -(bits - 4)), (integrand, a)


# --- the fixed-point kernels ------------------------------------------------


def kernel_cases(width):
    """(integrand, exact reference) for every kernel a ladder at `width` bits sums.

    The F/H integrands take a = 0.3, 0.7, 1 plus and minus the step, rounded
    at `width` as `FiniteDifference` rounds them; the references are the same
    families built and evaluated far wider, so they are exact to well below a
    unit.  Every registered kernel is checked against its own evaluator, run wider.
    """
    h = _fd_step(Precision(width - 2 * numeric.GUARD_BITS))
    grid = (Fraction(3, 10), Fraction(7, 10), Fraction(1))
    with workprec(width):
        alphas = [mpf(a.numerator) / a.denominator + s * h for a in grid for s in (1, -1)]
    with workprec(width + 128):
        cases = [(_param_integrand(n, a, "k"), _param_integrand(n, a, "ref")) for a in alphas for n in "FH"]
    return cases + [(f, f) for f in identities._REGISTRY.values() if f.integer_ladder]


def test_every_bounded_registered_integrand_declares_a_kernel():
    # every 1D integrand is an expression, and only the log-singular five stay on the mpf ladder
    registered = identities._REGISTRY.values()
    assert all(f.expr is not None for f in registered if f.dimension == 1)
    mpf_ladder = [f.id for f in registered if f.dimension == 1 and not f.integer_ladder]
    assert mpf_ladder == [
        "i1_minus_ln_x",
        "neg_ln_x_over_1px2",
        "log_sin_half",
        "log_sin_full",
        "log_cos_half",
    ]
    assert all(f.singular_left or f.singular_right for f in map(get_integrand, mpf_ladder))
    assert get_integrand("sigma_double").expr is None


@pytest.mark.parametrize("width", [173, 320, 1088, 2112])
def test_kernels_are_within_their_bound_of_the_evaluators(width):
    W = width + quadrature.FIXED_EXTRA_BITS
    bound = W / 8 + 20
    for f, ref in kernel_cases(width):
        nodes = [n for lev in (1, 2, 3) for n in quadrature._ts_fixed_nodes(f.domain, width, lev)]
        # X = 0 is the removable 0/0 of middle_alpha, middle_t, ln(1+t)/t, F' and H'
        Xs = [X for X1, X2, _ in nodes for X in (X1, X2)] + [0, 1 << W]
        with workprec(W + 64):
            for X in Xs:
                exact = ref.evaluator(ldexp(mpf(X), -W)) * 2**W
                assert abs(f.expr(numeric.fixed_context(W), X) - exact) <= bound, (f.id, X)


def test_f_and_h_kernels_floor_a_once_per_width(monkeypatch):
    with workprec(320):
        a = mpf(7) / 10

    def written_out(name, X, W):  # a floored on every call: the integers the kernels must keep
        AX = to_fixed(a._mpf_, W) * X >> W
        v = numeric.log1p_fixed(AX * AX >> W, W) if name == "F" else numeric.atan_fixed(AX, W)
        return (v << W) // ((1 << W) + X)

    points = [(X, W) for W in (189, 336) for X in (0, 1 << (W - 3), 3 << (W - 2), 1 << W)]
    calls = []
    monkeypatch.setattr(numeric, "to_fixed", lambda *args: calls.append(args[1]) or to_fixed(*args))
    for name in "FH":
        numeric.fixed_context.cache_clear()  # new contexts, whose `const` has floored nothing yet
        expr = _param_integrand(name, a, "once").expr
        got = [expr(numeric.fixed_context(W), X) for X, W in points]
        assert got == [written_out(name, X, W) for X, W in points]
        assert calls == [189, 336]
        calls.clear()


# catalog order: every check that integrates a kernel
KERNEL_CHECKS = [
    "eq06_inner",
    "eq08_A",
    "eq09_B_split",
    "eq10",
    "app1_I1",
    "app2_I2",
    "app2_middle",
    "app2_li2",
    "eq13_B",
    "eq14_C_split",
    "app3_I3",
    "eq16",
    "eq17",
    "eq18_C",
    "app2_F_derivative",
    "app2_F_reconstruct",
    "app3_H_derivative",
    "app3_H_reconstruct",
]


def result_fields(results):
    return [
        tuple(v._mpf_ if isinstance(v, mpf) else v for k, v in vars(r).items() if k != "elapsed_ms")
        for r in results
    ]


def run_kernel_checks_on_and_off(bits, monkeypatch):
    def mpf_only(f, scheme, p):
        return quadrature.integrate(dataclasses.replace(f, expr=None), scheme, p)

    p = Precision(bits)
    on = result_fields(run_catalog(p, ids=KERNEL_CHECKS))
    with monkeypatch.context() as m:
        m.setattr(identities, "integrate", mpf_only)
        off = result_fields(run_catalog(p, ids=KERNEL_CHECKS))
    assert [r[0] for r in on] == KERNEL_CHECKS
    assert on == off


@pytest.mark.parametrize("bits", [128, 256, 512])
def test_kernel_checks_are_field_for_field_the_mpf_results(bits, monkeypatch):
    run_kernel_checks_on_and_off(bits, monkeypatch)


@pytest.mark.slow
@pytest.mark.parametrize("bits", [1024, 2048])
def test_kernel_checks_are_field_for_field_the_mpf_results_wide(bits, monkeypatch):
    run_kernel_checks_on_and_off(bits, monkeypatch)


# --- the log-sine pair's shared cos/sin ---------------------------------------


@settings(max_examples=60, deadline=None)
@given(
    mantissa=st.integers(min_value=1, max_value=2**400),
    exponent=st.integers(min_value=-900, max_value=2),
    bits=st.sampled_from([64, 192, 320, 1088]),
)
def test_cos_sin_memo_is_cos_and_sin_bit_for_bit(mantissa, exponent, bits):
    with workprec(bits):
        t = ldexp(mpf(mantissa), exponent - mantissa.bit_length())  # below 4, down to the tiny-t branch
        c, s = numeric.MP.cos(t), numeric.MP.sin(t)
        assert (c._mpf_, s._mpf_) == (cos(t)._mpf_, sin(t)._mpf_)
