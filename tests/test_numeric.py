import random
import sys
from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import exp, ldexp, mpf, sin, workprec
from mpmath.libmp import BACKEND, from_man_exp, libintmath, to_fixed

from hpcert import (
    BasisConstant,
    BasisError,
    ClosedForm,
    DomainError,
    Precision,
    cf_add,
    cf_mul_ln2,
    cf_scale,
    const_catalan,
    const_ln2,
    const_pi,
    eval_closed_form,
)
from hpcert import identities, numeric, quadrature
from hpcert.numeric import round_to
from oracle_values import CATALAN, LN2, PI, SIGMA, I3, assert_close, euler_sum, oracle, ulp

ONE = BasisConstant.ONE
LN2_T = BasisConstant.LN2
LN2_SQ = BasisConstant.LN2_SQ
PI_T = BasisConstant.PI
PI_LN2 = BasisConstant.PI_LN2
PI_SQ = BasisConstant.PI_SQ
CATALAN_T = BasisConstant.CATALAN


def test_precision_validation():
    assert Precision(64).bits == 64
    with pytest.raises(ValueError):
        Precision(63)
    with pytest.raises(ValueError):
        Precision(-10)


def test_round_to_rejects_nonfinite(p64):
    with pytest.raises(DomainError):
        round_to(mpf("inf"), p64)
    with pytest.raises(DomainError):
        round_to(mpf("nan"), p64)


def test_rounding_monotone_in_error(p64, p128, p256):
    x = const_pi(p256)
    e128 = abs(round_to(x, p128) - x)
    e64 = abs(round_to(x, p64) - x)
    assert e64 >= e128


# --- constants -------------------------------------------------------------


@pytest.mark.parametrize("bits", [64, 128, 256])
def test_const_pi_within_4ulp(bits):
    p = Precision(bits)
    v = const_pi(p)
    assert abs(v - oracle(PI)) <= 4 * ulp(v, bits)


def test_const_pi_two_independent_formulas(p128):
    # Euler's arctangent split and mpmath's own constant as the two oracles
    v = const_pi(p128)
    with workprec(256):
        euler_pi = 4 * (mpmath.atan(mpf(1) / 2) + mpmath.atan(mpf(1) / 3))
        assert abs(v - euler_pi) <= 8 * ulp(v, 128)
        assert abs(v - mpmath.pi) <= 8 * ulp(v, 128)


def test_const_pi_sine_is_tiny(p256):
    v = const_pi(p256)
    with workprec(300):
        assert abs(sin(v)) < ldexp(1, -250)


@pytest.mark.parametrize("bits", [64, 128, 256])
def test_const_ln2_within_4ulp(bits):
    p = Precision(bits)
    v = const_ln2(p)
    assert abs(v - oracle(LN2)) <= 4 * ulp(v, bits)


def test_const_ln2_euler_transform_oracle(p64):
    # the defining alternating harmonic series, Euler-accelerated in-test
    with workprec(200):
        accelerated = euler_sum(lambda k: mpf(1) / (k + 1), 90)
    v = const_ln2(p64)
    assert abs(v - accelerated) <= 8 * ulp(v, 64)


def test_const_ln2_exponentiates_to_two(p128):
    v = const_ln2(p128)
    with workprec(160):
        assert abs(exp(v) - 2) <= ldexp(1, -(128 - 6))


def test_const_ln2_precision_doubling():
    v128 = const_ln2(Precision(128))
    v256 = const_ln2(Precision(256))
    assert abs(v128 - v256) <= ldexp(1, -124)


@pytest.mark.parametrize("bits", [64, 128, 256])
def test_const_catalan_within_4ulp(bits):
    p = Precision(bits)
    v = const_catalan(p)
    assert abs(v - oracle(CATALAN)) <= 4 * ulp(v, bits)


def test_const_catalan_direct_summation_bracket():
    # 10^6 terms of sum (-1)^k/(2k+1)^2 plus the alternating remainder bound.
    # Each +/- pair folds to 4(a+1)/(a^2 (a+2)^2) for a = 1, 5, ..., 2m-3, summed
    # as floors scaled by 2^100: 500,000 floors, each below 2^-100, lose < 2^-81
    m = 10**6
    S = sum((4 * (a + 1) << 100) // (a * a * (a + 2) ** 2) for a in range(1, 2 * m - 2, 4))
    with workprec(80):
        s = ldexp(mpf(S), -100)
        bound = mpf(1) / (2 * m + 1) ** 2
    v = const_catalan(Precision(64))
    assert abs(v - s) <= bound + ldexp(1, -60)


@pytest.mark.parametrize("tag", list(BasisConstant))
def test_constant_precision_doubling(tag):
    from hpcert.numeric import constant_value

    p = 96
    lo = constant_value(tag, p)
    hi = constant_value(tag, 2 * p)
    assert abs(lo - hi) <= ldexp(1, -(p - 4))


# Integer oracles for 2^F x, each within 4F units of it and read from no mpmath
# constant: Machin's formula, 2 atanh(1/3), and the Cohen-Rodriguez Villegas-
# Zagier sum of sum_k (-1)^k/(2k+1)^2 with n >= F/2.5 + 4 terms, whose error
# 2/(3 + sqrt 8)^n < 2^-F.


def _inv_odd_powers(m, F, s):
    """2^F sum_k s^k / ((2k+1) m^(2k+1)): arccot m for s = -1, atanh(1/m) for s = 1."""
    power, total, sign, n = (1 << F) // m, 0, 1, 1
    while power:
        total += sign * (power // n)
        power //= m * m
        sign *= s
        n += 2
    return total


def _catalan_crz(F):
    n = 2 * F // 5 + 4
    d_prev, d = 1, 3  # T_k(3), the Chebyshev polynomial at 3: d = T_n(3) on exit
    for _ in range(n - 1):
        d_prev, d = d, 6 * d - d_prev
    b, c, total = -1, -d, 0
    for k in range(n):
        c = b - c
        total += (c << F) // (2 * k + 1) ** 2
        b, rem = divmod((k + n) * (k - n) * 2 * b, (2 * k + 1) * (k + 1))
        assert rem == 0
    return total // d


CONSTANT_ORACLES = {
    PI_T: lambda F: 4 * (4 * _inv_odd_powers(5, F, -1) - _inv_odd_powers(239, F, -1)),
    LN2_T: lambda F: 2 * _inv_odd_powers(3, F, 1),
    CATALAN_T: _catalan_crz,
}

CORRECTLY_ROUNDED_WIDTHS = [
    # where 2 atanh(1/3), summed in fixed point with 16 guard bits, rounds ln2 one ulp low
    *(1253, 1656, 1662, 1686, 1740, 1898),
    # where a 256-, 512-, 1024- and 2048-bit run reads its constants
    *(288, 320, 328, 544, 576, 584, 1056, 1088, 1096, 2080, 2112, 2120),
    *(64, 65, 109, 141, 777, 1500, 2199),
]


@pytest.mark.parametrize("tag", list(CONSTANT_ORACLES))
def test_constants_are_correctly_rounded(tag):
    from hpcert.numeric import constant_value

    wrong = []
    for bits in CORRECTLY_ROUNDED_WIDTHS:
        F = bits + 64
        X = CONSTANT_ORACLES[tag](F)
        shift = X.bit_length() - bits
        half = 1 << (shift - 1)
        # the oracle's error, under 4F units, must not reach across a tie
        assert abs((X & (2 * half - 1)) - half) > 4 * F
        want = from_man_exp((X + half) >> shift, shift - F)
        if constant_value(tag, bits)._mpf_ != want:
            wrong.append(bits)
    assert wrong == []


def test_basis_tags_distinct():
    assert len({t.value for t in BasisConstant}) == 7


def test_ulp_scaling():
    # the tests' own unit, by which they bound the constants and closed forms
    assert ulp(mpf(1), 64) == ldexp(1, -63)
    assert ulp(mpf(0), 64) == ldexp(1, -64)
    assert ulp(mpf(8), 64) == 8 * ulp(mpf(1), 64)


# --- closed forms ----------------------------------------------------------


def test_closed_form_normalization():
    cf = ClosedForm({LN2_T: Fraction(2, 4), PI_T: 0})
    assert cf.coefficients[LN2_T] == Fraction(1, 2)
    assert PI_T not in cf.coefficients


def test_closed_form_rejects_non_basis_keys():
    with pytest.raises(BasisError):
        ClosedForm({"pi": 1})


def test_closed_form_and_cf_scale_refuse_a_float_coefficient():
    # 0.1 as a Fraction is 3602879701896397/2^55: a silently inexact closed form
    for make in (lambda: ClosedForm({PI_T: 0.1}), lambda: cf_scale(ClosedForm({PI_T: 1}), 0.1)):
        with pytest.raises(TypeError, match="float"):
            make()
    # ints and Fractions are exact, and stay accepted
    assert cf_scale(ClosedForm({PI_T: 1}), Fraction(1, 10)) == ClosedForm({PI_T: Fraction(1, 10)})


def test_eval_closed_form_identity(p128):
    assert eval_closed_form(ClosedForm({ONE: 1}), p128) == 1
    assert eval_closed_form(ClosedForm(), p128) == 0


def test_eval_closed_form_sigma(p256):
    cf = ClosedForm(
        {CATALAN_T: Fraction(1, 2), PI_SQ: Fraction(1, 48),
         LN2_SQ: Fraction(-7, 8), PI_LN2: Fraction(-1, 8)}
    )
    v = eval_closed_form(cf, p256)
    assert_close(v, SIGMA, ldexp(1, -250))


def test_eval_closed_form_i3(p256):
    v = eval_closed_form(ClosedForm({PI_LN2: Fraction(1, 8)}), p256)
    assert_close(v, I3, ldexp(1, -250))


def test_cf_add_zero_and_scale_zero():
    x = ClosedForm({LN2_T: Fraction(3, 4), PI_T: Fraction(-1, 8)})
    assert cf_add(x, ClosedForm()) == x
    assert cf_scale(x, 0) == ClosedForm()
    assert cf_scale(x, 1) == x


def test_cf_algebra_properties_random():
    rng = random.Random(20240917)
    tags = list(BasisConstant)

    def rand_cf():
        return ClosedForm(
            {t: Fraction(rng.randint(-9, 9), rng.randint(1, 12)) for t in rng.sample(tags, 3)}
        )

    for _ in range(25):
        a, b, c = rand_cf(), rand_cf(), rand_cf()
        r = Fraction(rng.randint(-7, 7), rng.randint(1, 9))
        assert cf_add(a, b) == cf_add(b, a)
        assert cf_add(cf_add(a, b), c) == cf_add(a, cf_add(b, c))
        assert cf_scale(cf_add(a, b), r) == cf_add(cf_scale(a, r), cf_scale(b, r))


def test_eval_closed_form_additive(p64):
    rng = random.Random(7)
    tags = list(BasisConstant)
    for _ in range(15):
        a = ClosedForm({t: Fraction(rng.randint(-5, 5), rng.randint(1, 7)) for t in tags[:4]})
        b = ClosedForm({t: Fraction(rng.randint(-5, 5), rng.randint(1, 7)) for t in tags[3:]})
        with workprec(128):  # compose sides without re-rounding them at 53 bits
            lhs = eval_closed_form(cf_add(a, b), p64)
            ea = eval_closed_form(a, p64)
            eb = eval_closed_form(b, p64)
            rhs = ea + eb
            scale = max(abs(lhs), abs(ea), abs(eb), mpf(1))
            assert abs(lhs - rhs) <= 8 * ulp(scale, 64)


def test_ln2_slot_composition():
    a = ClosedForm({ONE: Fraction(2), LN2_T: Fraction(3, 4), PI_T: Fraction(-1, 8)})
    out = cf_mul_ln2(a)
    assert out == ClosedForm(
        {LN2_T: Fraction(2), LN2_SQ: Fraction(3, 4), PI_LN2: Fraction(-1, 8)}
    )


@pytest.mark.parametrize("tag", [LN2_SQ, PI_LN2, PI_SQ, CATALAN_T])
def test_ln2_slot_composition_leaves_basis(tag):
    with pytest.raises(BasisError):
        cf_mul_ln2(ClosedForm({tag: 1}))


def test_assembly_identity_exact_rational():
    # A*ln2 + B/2 + C must equal the negated series closed form, slot by slot
    a_cf = ClosedForm({LN2_T: Fraction(3, 4), PI_T: Fraction(-1, 8)})
    b_cf = ClosedForm(
        {LN2_SQ: Fraction(1, 4), PI_SQ: Fraction(-1, 96),
         PI_LN2: Fraction(1, 4), CATALAN_T: Fraction(-1, 2)}
    )
    c_cf = ClosedForm(
        {PI_LN2: Fraction(1, 8), PI_SQ: Fraction(-1, 64), CATALAN_T: Fraction(-1, 4)}
    )
    sigma_cf = ClosedForm(
        {CATALAN_T: Fraction(1, 2), PI_SQ: Fraction(1, 48),
         LN2_SQ: Fraction(-7, 8), PI_LN2: Fraction(-1, 8)}
    )
    lhs = cf_add(cf_add(cf_mul_ln2(a_cf), cf_scale(b_cf, Fraction(1, 2))), c_cf)
    assert lhs == cf_scale(sigma_cf, -1)


# --- mpmath's bit count -----------------------------------------------------

python_backend = pytest.mark.skipif(BACKEND != "python", reason="mpmath runs on another backend")


def mpmath_modules_holding(fn):
    modules = list(sys.modules.items())
    return [m for name, m in modules if name.startswith("mpmath") and getattr(m, "bitcount", None) is fn]


@settings(max_examples=400, deadline=None)
@given(
    st.integers(-(2**64), 2**50000)
    | st.builds(lambda k, d: 2**k + d, st.integers(0, 5000), st.sampled_from([-1, 0, 1]))
)
@example(0)
def test_installed_bitcount_equals_python_bitcount(n):
    assert libintmath.bitcount(n) == libintmath.python_bitcount(n)


@python_backend
def test_no_mpmath_module_keeps_python_bitcount():
    assert mpmath_modules_holding(libintmath.python_bitcount) == []
    assert {"mpmath.libmp.libmpf", "mpmath.libmp.libintmath"} <= {
        m.__name__ for m in mpmath_modules_holding(numeric._bit_length)
    }
    assert mpmath.libmp.BACKEND == "python"


DIFFERENTIAL_CHECKS = ["app2_I2", "app1_logsine_funceq", "eq05_sigma_2d", "app3_H_derivative"]


def result_fields(results):
    return [
        tuple(v._mpf_ if isinstance(v, mpf) else v for k, v in vars(r).items() if k != "elapsed_ms")
        for r in results
    ]


@python_backend
def test_catalog_is_bit_identical_with_python_bitcount_and_cold_caches(request, monkeypatch):
    p = Precision(128)
    checks = [c for c in identities.CATALOG if c.id in DIFFERENTIAL_CHECKS]
    default = result_fields(identities.run_catalog(p, checks))
    for module in mpmath_modules_holding(numeric._bit_length):
        monkeypatch.setattr(module, "bitcount", libintmath.python_bitcount)
    request.getfixturevalue("cold_caches")  # every node table, constant and memo rebuilt
    assert mpmath_modules_holding(numeric._bit_length) == []
    assert result_fields(identities.run_catalog(p, checks)) == default


# --- fixed-point log1p and arctan ---------------------------------------------

# W = ladder width + 16 at reports of 109, 256, 1024 and 2048 bits
FIXED_WIDTHS = [189, 336, 1104, 2128]


def fixed_error(got, exact_fn, T, W):
    """|got - exact_fn(T / 2^W) 2^W|, in units of 2^-W."""
    with workprec(W + 64):
        return abs(got - exact_fn(ldexp(mpf(T), -W)) * 2**W)


@settings(max_examples=80, deadline=None)
@given(data=st.data(), W=st.sampled_from(FIXED_WIDTHS))
def test_fixed_log1p_and_atan_are_within_their_bound(data, W):
    bound = W / 8 + 16
    T = data.draw(st.integers(0, 3 << W) | st.integers(0, 1 << (W // 2)))
    assert fixed_error(numeric.log1p_fixed(T, W), mpmath.log1p, T, W) <= bound
    T = data.draw(st.integers(0, (2 << W) - 1) | st.integers(0, 1 << (W // 2)))
    assert fixed_error(numeric.atan_fixed(T, W), mpmath.atan, T, W) <= bound


@pytest.mark.parametrize("W", FIXED_WIDTHS)
def test_fixed_log1p_and_atan_at_their_branch_points(W):
    bound = W / 8 + 16
    assert numeric.log1p_fixed(0, W) == numeric.atan_fixed(0, W) == 0  # so F(0) = H(0) = 0 exactly
    one = 1 << W
    # 1 + t = 1, 2 and 4 move the reduction's shift; arctan's cached points are k/128
    for T in (0, 1, one - 1, one, one + 1, 3 * one - 1, 3 * one, 5 * one):
        assert fixed_error(numeric.log1p_fixed(T, W), mpmath.log1p, T, W) <= bound, T
    for T in (0, 1, (one >> 7) - 1, one >> 7, one - 1, one, (2 * one) - 1):
        assert fixed_error(numeric.atan_fixed(T, W), mpmath.atan, T, W) <= bound, T


def quotient(fn):
    """fn(t)/t, and its limit 1 at t = 0."""
    return lambda t: fn(t) / t if t else mpf(1)


def quotient_arguments(W, switch):
    """Both branches, tiny arguments and the switch point 2^-switch, as X / 2^W."""
    at = 1 << (W - switch)
    tiny = st.integers(0, 1 << (W // 2))
    return st.integers(0, 1 << W) | st.integers(0, at) | tiny | st.integers(at - 64, at + 64)


@settings(max_examples=120, deadline=None)
@given(data=st.data(), W=st.sampled_from(FIXED_WIDTHS))
def test_fixed_quotients_are_within_their_bound(data, W):
    bound = W / 128 + 3
    U = data.draw(quotient_arguments(W, 9) | st.integers(0, (3 << W) - 1))
    assert fixed_error(numeric.log1p_over_fixed(U, W), quotient(mpmath.log1p), U, W) <= bound
    T = data.draw(quotient_arguments(W, 7) | st.integers(0, (2 << W) - 1))
    assert fixed_error(numeric.atan_over_fixed(T, W), quotient(mpmath.atan), T, W) <= bound


@pytest.mark.parametrize("W", FIXED_WIDTHS)
def test_fixed_quotients_at_their_branch_points(W):
    bound = W / 128 + 3
    assert numeric.log1p_over_fixed(0, W) == numeric.atan_over_fixed(0, W) == 1 << W  # the limits, exactly
    one = 1 << W
    for T in (1, (one >> 9) - 1, one >> 9, (one >> 9) + 1, one - 1, one, one + 1, 3 * one - 1):
        assert fixed_error(numeric.log1p_over_fixed(T, W), quotient(mpmath.log1p), T, W) <= bound, T
    for T in (1, (one >> 7) - 1, one >> 7, (one >> 7) + 1, one - 1, one, 2 * one - 1):
        assert fixed_error(numeric.atan_over_fixed(T, W), quotient(mpmath.atan), T, W) <= bound, T


# the kernels' widest precisions, at W = 2128 for a 2048-bit report: `log1p_fixed`
# widens W by up to 2 bits for 1 + t < 4, and the quotients call `log1p_fixed`
# at W + 13 (u < 3) and `atan_fixed` at W + 11
WIDEST_LOG, WIDEST_ATAN = 2143, 2139
# the (P, k) where mpmath's cached ln(k/512), shifted to the precision P, is one
# unit above the floor, at P = 256 and 2043 to 2048 alone: its cache keeps only
# 20 to 25 bits more there
MPMATH_POINT_ABOVE_FLOOR = (
    {(256, 378), (2047, 264)} | {(P, 484) for P in range(2043, 2049)} | {(2048, k) for k in (264, 325, 348, 459)}
)


def point_floor(fn, x, P):
    """floor(fn(x) 2^P), from fn taken 64 bits wider; its low 64 bits must leave the floor decisive."""
    with workprec(P + 64):
        X = to_fixed(fn(x)._mpf_, P + 64)  # within 2 units of floor(fn(x) 2^(P + 64))
    assert 2 < X & ((1 << 64) - 1) < (1 << 64) - 2, (x, P)
    return X >> 64


@pytest.mark.parametrize("P", FIXED_WIDTHS + [WIDEST_LOG])
def test_log_points_are_exact_floors(P):
    assert numeric._log_points(P) == tuple(point_floor(mpmath.log, mpf(k) / 512, P) for k in range(256, 512))


@pytest.mark.parametrize("P", FIXED_WIDTHS + [WIDEST_ATAN])
def test_atan_points_are_exact_floors(P):
    # arctan 0 = 0 exactly
    assert numeric._atan_points(P) == (0,) + tuple(point_floor(mpmath.atan, mpf(k) / 128, P) for k in range(1, 256))


def test_point_tables_equal_mpmath_cached_points_at_every_kernel_precision():
    # mpmath's Taylor step at a point returns that point's cached value, shifted to P
    from mpmath.libmp.libelefun import atan_taylor, log_taylor_cached

    for P in range(189, WIDEST_LOG + 1):
        ours = numeric._log_points.__wrapped__(P)  # uncached: some 2,000 precisions
        for k in range(256, 512):
            theirs = log_taylor_cached(k << (P - 9), P)
            if (P, k) in MPMATH_POINT_ABOVE_FLOOR:
                assert theirs == ours[k - 256] + 1 == point_floor(mpmath.log, mpf(k) / 512, P) + 1, (P, k)
            else:
                assert theirs == ours[k - 256], (P, k)
        if P <= WIDEST_ATAN:
            assert numeric._atan_points.__wrapped__(P) == tuple(atan_taylor(k << (P - 7), P) for k in range(256)), P


def test_point_tables_serve_the_widest_kernel_widths():
    # each width's tables come from its band's, built at least 64 bits wider
    from hpcert.identities import MAX_PRECISION_BITS

    width = Precision(MAX_PRECISION_BITS).guarded + numeric.GUARD_BITS
    W = width + quadrature.FIXED_EXTRA_BITS
    assert W == 2128
    assert W + 9 + numeric.QUOTIENT_GUARD + 2 == WIDEST_LOG
    assert W + 7 + numeric.QUOTIENT_GUARD == WIDEST_ATAN
    for P in range(W, WIDEST_LOG + 1):
        for band, points in ((numeric._log_band, numeric._log_points), (numeric._atan_band, numeric._atan_points)):
            F, wide = band(P >> 6)
            assert F >= P + 64 and len(wide) == len(points(P)) == 256


def test_the_two_operation_contexts_offer_the_same_operations():
    # every expression runs under both, the log-sine kernels' log, cos and sin included
    mp_ops = {name for name in dir(numeric.MP) if not name.startswith("_")}
    assert mp_ops == set(vars(numeric.fixed_context(128)))


@settings(max_examples=120, deadline=None)
@given(data=st.data(), W=st.sampled_from(FIXED_WIDTHS))
def test_fixed_cos_sin_and_log_are_within_their_bound(data, W):
    # the log-sine kernels' arguments: t in [0, pi/2] (and a little past it, as X is
    # floored near pi/2), and the logarithm's 1/4 <= y < 2
    q = W / 128 + 3
    c = numeric.fixed_context(W)
    T = data.draw(quotient_arguments(W, 7) | st.integers(0, 13 << (W - 3)))
    assert fixed_error(c.cos(T), mpmath.cos, T, W) <= 2
    assert fixed_error(c.sin(T), mpmath.sin, T, W) <= 2
    assert fixed_error(c.sin_over(T), quotient(mpmath.sin), T, W) <= q
    assert fixed_error(numeric.sin_over_fixed(T, W), quotient(mpmath.sin), T, W) <= q
    Y = data.draw(st.integers(1 << (W - 2), (2 << W) - 1))
    assert fixed_error(c.log(Y), mpmath.log, Y, W) <= q


@pytest.mark.parametrize("W", FIXED_WIDTHS)
def test_fixed_sin_over_and_log_at_their_branch_points(W):
    q = W / 128 + 3
    assert numeric.sin_over_fixed(0, W) == 1 << W  # the limit, exactly
    one = 1 << W
    for T in (1, (one >> 7) - 1, one >> 7, (one >> 7) + 1, one, 3 * one // 2, 2 * one - 1):
        assert fixed_error(numeric.sin_over_fixed(T, W), quotient(mpmath.sin), T, W) <= q, T
    # 2^s y in [1/2, 1) moves the reduction's shift at y = 1/2, 1 and 2
    for Y in (one >> 2, (one >> 1) - 1, one >> 1, one - 1, one, one + 1, 2 * one - 1):
        assert fixed_error(numeric.log_fixed(Y, W), mpmath.log, Y, W) <= q, Y
    for Y in (0, -1):
        with pytest.raises(DomainError, match="logarithm of a value that is not positive"):
            numeric.log_fixed(Y, W)
