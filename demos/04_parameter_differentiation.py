"""Differentiation under the integral sign, checked numerically.

Two parameter families evaluate the integrals I2 and I3:

    F(a) = int_0^1 ln(1+a^2 x^2)/(1+x) dx      F(1) = I2
    H(a) = int_0^1 arctan(a x)/(1+x) dx        H(1) = I3

Four catalog checks certify the derivation: the closed derivatives against
central finite differences, and the integral of each closed derivative over
[0,1] against the directly computed endpoint value.  This is the numerical
shadow of the derivation that produces the closed forms in the first place.
"""

import sys

from mpmath import mpf, nstr, workprec

from hpcert import CATALOG, Precision, run_catalog
from hpcert.identities import get_integrand

p = Precision(256)

print("Closed derivatives at the endpoint:")
with workprec(p.bits):
    for integrand_id, label, closed in (
        ("f_prime_closed", "F'(1)", "(3/2)ln2 - pi/4"),
        ("h_prime_closed", "H'(1)", "pi/8 - ln2/4"),
    ):
        value = get_integrand(integrand_id).evaluator(mpf(1))
        print(f"  {label} = {nstr(value, 30)}  (= {closed})")

print("\nCertifying against central finite differences (h = 2^-85) and")
print("reconstructing the endpoint from the derivative:")
ids = ["app2_F_derivative", "app2_F_reconstruct", "app3_H_derivative", "app3_H_reconstruct"]
results = run_catalog(p, [c for c in CATALOG if c.id in ids])
for r in results:
    status = "PASS" if r.passed else "FAIL"
    print(
        f"  {status}  {r.id:<20} |error| = {nstr(r.abs_error, 3):<10}"
        f" tol = {nstr(r.tolerance, 3):<10} {r.description}"
    )
sys.exit(0 if all(r.passed for r in results) else 1)
