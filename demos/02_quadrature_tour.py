"""A tour of the quadrature engine.

Shows tanh-sinh level refinement on a smooth integrand, the same machinery
shrugging off a logarithmic endpoint singularity, and Gauss-Legendre order
doubling on the 2D tensor rule.
"""

from fractions import Fraction

from mpmath import log, nstr, sin, workprec

from hpcert import (
    BasisConstant,
    ClosedForm,
    GaussLegendre,
    Integrand,
    Precision,
    TanhSinh,
    integrate,
    integrate_2d,
    tanh_sinh_nodes,
)
from hpcert.quadrature import product

p = Precision(128)

print("tanh-sinh node counts per level (128-bit tables):")
for level in (2, 4, 6, 8):
    print(f"  level {level}: {len(tanh_sinh_nodes(level, p))} nodes")

print("\nSmooth integrand x^2/((1+x^2)(1+x)) on [0,1]:")
f = Integrand(
    id="demo_smooth",
    evaluator=lambda x: x * x / ((1 + x * x) * (1 + x)),
    domain=(0, 1),
)
r = integrate(f, TanhSinh(), p)
print(f"  value {nstr(r.value, 35)}")
print(f"  error estimate {nstr(r.error_estimate, 3)} after level {r.level_or_order}, "
      f"{r.evaluations} evaluations")

print("\nln(sin t) on [0, pi/2] -- integrable singularity at t=0, flagged singular_left:")
g = Integrand(
    id="demo_logsine",
    evaluator=lambda t: log(sin(t)),
    domain=(0, ClosedForm({BasisConstant.PI: Fraction(1, 2)})),
    singular_left=True,
)
r = integrate(g, TanhSinh(), p)
print(f"  value {nstr(r.value, 35)}   (closed form is -(pi/2)ln2)")
print(f"  error estimate {nstr(r.error_estimate, 3)} after level {r.level_or_order}")

print("\nGauss-Legendre tensor rule on a smooth 2D integrand, the product form g(x) g(y) h(xy):")
h = product("demo_2d", lambda c, x: c.one, lambda c, t: c.div(c.one, c.one + t))
r = integrate_2d(h, GaussLegendre(), p)
print(f"  int int 1/(1+xy) = {nstr(r.value, 35)}   (equals pi^2/12)")
print(f"  final order {r.level_or_order}, {r.evaluations} evaluations")

with workprec(200):
    from hpcert import eval_closed_form
    from hpcert.identities import LI2_CF

    truth = eval_closed_form(LI2_CF, p)
    print(f"  against closed form: off by {nstr(abs(r.value - truth), 3)}")
