"""The headline number three independent ways.

The alternating series

    sigma = sum_{n>=1} (-1)^n (ln2 - 1/(n+1) - ... - 1/(2n))^2

has the closed form  G/2 + pi^2/48 - (7/8)(ln2)^2 - (pi/8)ln2.  This script
computes it by (a) accelerated summation, (b) a 2D integral, and (c) direct
evaluation of the closed form, and shows the three agree far beyond the
certification tolerance.
"""

import time

from mpmath import nstr, workprec

from hpcert import (
    BasisConstant, ClosedForm, Crz, GaussLegendre, Precision, eval_closed_form, integrate_2d, sigma_series
)
from hpcert.identities import SIGMA_CF, get_integrand
from hpcert.series import harmonic_tail_fraction

p = Precision(256)


def a(n):
    """a_n = ln2 - (1/(n+1) + ... + 1/(2n)), its rational part exact."""
    return eval_closed_form(ClosedForm({BasisConstant.LN2: 1, BasisConstant.ONE: -harmonic_tail_fraction(n)}), p)


print("A few raw partial sums first -- the series itself crawls:")
with workprec(p.bits):
    partial = 0
    for n in range(1, 51):
        partial += (-1) ** n * a(n) ** 2
        if n in (1, 2, 10, 50):  # an alternating series of falling terms: the next one bounds the remainder
            print(f"  N={n:3d}   {nstr(partial, 12):>16}   remainder bound {nstr(a(n + 1) ** 2, 3)}")

print("\nRoute 1: CRZ-accelerated summation, 30 terms")
t0 = time.perf_counter()
s_series = sigma_series(p, Crz(30)).value
print(f"  {nstr(s_series, 40)}   ({time.perf_counter() - t0:.3f}s)")

print("\nRoute 2: tensor Gauss-Legendre on -x^2 y^2/((1+x^2 y^2)(1+x)(1+y)) over the unit square")
t0 = time.perf_counter()
q = integrate_2d(get_integrand("sigma_double"), GaussLegendre(), p)
print(f"  {nstr(q.value, 40)}   ({time.perf_counter() - t0:.3f}s, {q.evaluations} evaluations)")

print("\nRoute 3: the closed form over the constant basis")
s_closed = eval_closed_form(SIGMA_CF, p)
print(f"  {nstr(s_closed, 40)}")

with workprec(300):
    print("\nPairwise differences:")
    print("  series  vs closed:", nstr(abs(s_series - s_closed), 3))
    print("  double  vs closed:", nstr(abs(q.value - s_closed), 3))
    print("  series  vs double:", nstr(abs(s_series - q.value), 3))
