import itertools
import math
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest
from mpmath import ldexp, mpf, workprec

from hpcert import Crz, PreconditionError, Precision, ln1pt_over_t, sigma_series, sum_alternating
from hpcert.identities import get_integrand
from hpcert.series import _paired_alternating, harmonic_tail_fraction, ln2_direct_partial
from hpcert.quadrature import TanhSinh, integrate
from oracle_values import A1, A2, LN2, PI2_12, SIGMA, SIGMA_PARTIAL_1, SIGMA_PARTIAL_2, assert_close, oracle
from oracle_values import euler_sum, sigma_by_euler, tail, ulp


def test_harmonic_tail_fraction():
    assert harmonic_tail_fraction(1) == Fraction(1, 2)
    assert harmonic_tail_fraction(2) == Fraction(7, 12)
    assert harmonic_tail_fraction(3) == Fraction(1, 4) + Fraction(1, 5) + Fraction(1, 6)


def test_tail_harmonic_frozen(p128):
    assert_close(tail(1, p128), A1, mpf(10) ** -35)
    assert_close(tail(2, p128), A2, mpf(10) ** -35)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 10, 20])
def test_tail_routes_agree(n, p128):
    quad = integrate(get_integrand(f"tail_integral_n{n}"), TanhSinh(), p128)
    assert abs(tail(n, p128) - quad.value) <= 8 * quad.error_estimate + ldexp(1, -120)


def test_tail_rational_bounds_up_to_64(p256):
    # 1/(2n+1) - 1/(2n+2) < a_n < 1/(2n+1), margins are ~1/(8n^2) so a
    # 256-bit comparison is decisive
    with workprec(300):
        for n in range(1, 65):
            a_n = tail(n, p256)
            lo = Fraction(1, 2 * n + 1) - Fraction(1, 2 * n + 2)
            hi = Fraction(1, 2 * n + 1)
            assert mpf(lo.numerator) / lo.denominator < a_n < mpf(hi.numerator) / hi.denominator


def test_tail_strictly_decreasing(p128):
    values = [tail(n, p128) for n in range(1, 30)]
    assert all(a > b > 0 for a, b in zip(values, values[1:]))


@pytest.mark.parametrize("method", [Crz])
def test_series_refuse_a_count_that_is_not_a_positive_int(method, p64):
    for terms in (0, 2.5):
        with pytest.raises(ValueError):
            sum_alternating(lambda k: mpf(1) / (k + 1), method(terms), p64)
        with pytest.raises(ValueError):
            sigma_series(p64, method(terms))
        with pytest.raises(ValueError):
            ln2_direct_partial(terms, p64)


def test_crz_is_the_one_method(p64):
    # a method of another type, even one with a positive count of terms, is refused
    for method in (None, SimpleNamespace(terms=10)):
        with pytest.raises(ValueError, match="unknown acceleration method"):
            sum_alternating(lambda k: mpf(1) / (k + 1), method, p64)


def sigma_partials(count, p):
    """The partial sums sum_{n<=N} (-1)^n a_n^2 for N = 1, ..., count, and their bounds a_{N+1}^2, at p.guarded."""
    with workprec(p.guarded):
        sq = [tail(n, p) ** 2 for n in range(1, count + 2)]
        partials = list(itertools.accumulate((-1) ** n * sq[n - 1] for n in range(1, count + 1)))
    return partials, sq[1:]


def test_sigma_partial_frozen(p128):
    (s1, s2), (bound, _) = sigma_partials(2, p128)
    assert_close(s1, SIGMA_PARTIAL_1, mpf(10) ** -35)
    with workprec(300):
        assert abs(bound - oracle(A2) ** 2) <= mpf(10) ** -30
    assert_close(s2, SIGMA_PARTIAL_2, mpf(10) ** -35)


def test_sigma_partials_bracket_full_sum(p128):
    full = sigma_series(p128, Crz(40)).value
    partials, bounds = sigma_partials(50, p128)
    for N in range(1, 50):
        lo, hi = sorted((partials[N - 1], partials[N]))
        assert lo < full < hi
    for partial, bound in zip(partials, bounds):
        assert abs(partial - full) <= bound


def test_sum_alternating_rejects_increasing(p64):
    with pytest.raises(PreconditionError):
        sum_alternating(lambda k: mpf(1 + k), Crz(10), p64)
    with pytest.raises(PreconditionError):
        sum_alternating(lambda k: mpf(0), Crz(3), p64)


def test_crz_pi2_over_12(p128):
    r = sum_alternating(lambda k: mpf(1) / (k + 1) ** 2, Crz(20), p128)
    assert_close(r.value, PI2_12, mpf(10) ** -15)


def test_crz_ln2(p128):
    r = sum_alternating(lambda k: mpf(1) / (k + 1), Crz(40), p128)
    assert_close(r.value, LN2, mpf(10) ** -30)


@pytest.mark.parametrize("n", [10, 20, 30])
def test_crz_self_consistency(n, p128):
    coeff = lambda k: mpf(1) / (k + 1) ** 2
    a = sum_alternating(coeff, Crz(n), p128).value
    b = sum_alternating(coeff, Crz(n + 5), p128).value
    assert abs(a - b) <= mpf("5.8") ** -n * coeff(0)


def test_sigma_crz_matches_frozen(p256):
    r = sigma_series(p256, Crz(30))
    assert_close(r.value, SIGMA, mpf(10) ** -20)


def test_sigma_euler_vs_crz_matched_budget(p256):
    crz = sigma_series(p256, Crz(60)).value
    eul = sigma_by_euler(60, p256)
    assert abs(crz - eul) <= mpf(10) ** -15


def test_accelerators_on_random_moment_sequences(p64):
    # c_k = sum_i w_i t_i^k is totally monotone by construction and the limit
    # sum_i w_i/(1+t_i) is exactly computable: a free oracle for CRZ, and for
    # the Euler transform the tests compare it with
    rng = random.Random(991)
    p = Precision(128)
    for _ in range(8):
        pts = [(mpf(rng.randint(1, 99)) / 100, mpf(rng.randint(1, 9))) for _ in range(4)]
        coeff = lambda k: sum(w * t**k for t, w in pts)
        crz = sum_alternating(coeff, Crz(40), p)
        with workprec(200):
            eul = euler_sum(coeff, 60)
            exact = sum(w / (1 + t) for t, w in pts)
            assert abs(crz.value - exact) <= mpf(10) ** -12
            assert abs(eul - exact) <= mpf(10) ** -12


def test_ln2_direct_partial_brackets(p128):
    from hpcert import const_ln2

    r = ln2_direct_partial(100_000, p128)
    ln2 = const_ln2(p128)
    assert abs(r.value - ln2) <= r.error_bound
    assert r.value < ln2  # even term count: partial sits below the limit


@pytest.mark.parametrize("last", [1000, 1001], ids=lambda last: f"1-{last}")
def test_paired_alternating_matches_the_exact_sum(last):
    # within 2^-(bits + 8) of the exact sum before its one rounding to bits
    L = math.lcm(*range(1, last + 1))
    exact = Fraction(sum((-1) ** (k - 1) * (L // k) for k in range(1, last + 1)), L)
    for bits in (128, 320):
        with workprec(bits):
            man, exp = _paired_alternating(last).man_exp
        got = man * Fraction(2) ** exp
        assert abs(got - exact) <= Fraction(1, 2 ** (bits + 8)) + exact / 2**bits


def test_ln1pt_over_t_series_and_quadrature(p128):
    v = ln1pt_over_t(p128)
    assert abs(v - oracle(PI2_12)) <= 4 * ulp(v, 128)
    q = integrate(get_integrand("ln1p_t_over_t"), TanhSinh(), p128)
    assert abs(q.value - v) <= 8 * q.error_estimate + ldexp(1, -124)
