"""Harmonic tails, the alternating tail-square series, and accelerated sums.

The central quantity is the tail

    a_n = ln2 - (1/(n+1) + ... + 1/(2n)),

which equals both the alternating tail sum_{k>=2n+1} (-1)^(k-1)/k and the
integral of x^(2n)/(1+x) over [0,1].  This module sums series only.  Every
accelerated sum runs through one method, CRZ; the one plain partial sum is
`ln2_direct_partial`, eq03's bracket.  The harmonic route keeps the rational
part of a_n exact, so that the only rounding is the single ln2 subtraction.
The integral route, like every integral a check reads, is an integrand
registered in `identities` (`tail_integral_n{n}`), and eq04 compares the two.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from typing import Optional

from mpmath import ldexp, mp, mpf, workprec

from . import accel
from .errors import PreconditionError
from .numeric import BasisConstant, constant_value, round_to


@dataclass(frozen=True)
class Crz:
    terms: int


@dataclass(frozen=True)
class SeriesResult:
    value: mpf
    terms_used: int
    error_bound: Optional[mpf] = None


@cache
def harmonic_tail_fraction(n):
    """Exact rational sum 1/(n+1) + ... + 1/(2n)."""
    total = Fraction(0)
    for k in range(n + 1, 2 * n + 1):
        total += Fraction(1, k)
    return total


def _harmonic_tails(ns, g):
    """a_n = ln2 - (1/(n+1) + ... + 1/(2n)) for each n in ns, at g working bits."""
    ln2 = constant_value(BasisConstant.LN2, g)
    with workprec(g):
        return [ln2 - mpf(f.numerator) / f.denominator for f in map(harmonic_tail_fraction, ns)]


def _paired_alternating(last):
    """sum_{k=1}^{last} (-1)^(k-1)/k at the ambient precision.

    Terms pair up as 1/k - 1/(k+1) = 1/(k(k+1)), which avoids cancellation.
    Each is floored at W = prec + 2 bit_length(last) + 8 bits, so the at most
    last/2 + 1 terms leave the sum within 2^-(prec + 8) of the exact one.
    """
    W = mp.prec + 2 * last.bit_length() + 8
    one = 1 << W
    s = sum(one // (k * (k + 1)) for k in range(1, last, 2))
    if last % 2:  # odd leftover term
        s += one // last
    return ldexp(mpf(s), -W)


def _require_count(n, name):
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"{name} must be an int >= 1")


def _scan_coefficients(coeff, count):
    """Evaluate and check positivity + (non-strict) monotone decrease."""
    vals = [coeff(k) for k in range(count)]
    for k, v in enumerate(vals):
        if not v > 0:
            raise PreconditionError(f"coefficient {k} is not positive ({v})")
        if k and v > vals[k - 1]:
            raise PreconditionError(f"coefficients increase at index {k}")
    return vals


def sum_alternating(coeffs, m, p):
    """Sum  sum_{k>=0} (-1)^k coeffs(k)  by CRZ, the one method, without a computed bound.

    CRZ assumes the coefficients are totally monotone (a moment sequence),
    which is documented rather than checked -- the scan only covers positivity
    and decrease over the terms actually used.
    """
    if not isinstance(m, Crz):
        raise ValueError(f"unknown acceleration method {m!r}")
    terms = m.terms
    _require_count(terms, "method terms")
    with workprec(p.guarded + 16):
        vals = _scan_coefficients(coeffs, terms)
        s = accel.crz_sum(lambda k: vals[k], terms)
    return SeriesResult(round_to(s, p), terms)


def sigma_series(p, method):
    """The full alternating tail-square sum  sum_{n>=1} (-1)^n a_n^2.

    a_{k+1}^2 is a moment sequence (a_n is itself a moment integral of
    x^(2n)/(1+x)), so CRZ converges geometrically; 30 terms already give
    ~28 correct digits.  Returns the (negative) sum itself.
    """
    _require_count(method.terms, "method terms")
    g = p.guarded
    vals = _harmonic_tails(range(1, method.terms + 1), g)
    with workprec(g):
        sq = [v * v for v in vals]  # sq[k] = a_{k+1}^2
    result = sum_alternating(lambda k: sq[k], method, p)
    with workprec(p.bits):  # exact: the value is already rounded to p.bits
        return SeriesResult(-result.value, result.terms_used)


def ln2_direct_partial(terms, p):
    """Partial sum of the alternating harmonic series with its remainder bound.

    Far too slow to *compute* ln2 with -- kept as the bracketing certificate
    that the accelerated constant agrees with the defining series.
    """
    _require_count(terms, "terms")
    g = p.guarded
    with workprec(g):
        s = _paired_alternating(terms)
        bound = mpf(1) / (terms + 1)
    return SeriesResult(round_to(s, p), terms, round_to(bound, p))


def ln1pt_over_t(p):
    """The dilogarithm-at-minus-one value  sum (-1)^(n-1)/n^2  = int_0^1 ln(1+t)/t dt.

    The accelerated series route; app2_li2 compares it with the integral of
    the integrand `ln1p_t_over_t` registered in `identities`.
    """
    n = accel.crz_terms_for_bits(p.guarded + 16)
    return sum_alternating(lambda k: mpf(1) / (k + 1) ** 2, Crz(n), p).value
