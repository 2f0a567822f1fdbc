"""The summation kernel for alternating series  sum_{k>=0} (-1)^k c_k.

`crz_sum` runs at the ambient mpmath precision and takes a coefficient
callback ``coeff(k) -> mpf`` with c_k > 0.  Precondition checking and
precision management belong to the caller, `hpcert.series`; the kernel is
deliberately bare.
"""

from mpmath import mpf, sqrt

# Per-term gain of the Chebyshev-based accelerator: error ~ (3+sqrt(8))^-n,
# i.e. about 2.54 bits (0.766 decimal digits) per term.
CRZ_BITS_PER_TERM = 2.543


def crz_terms_for_bits(bits):
    """Number of accelerator terms that pushes the error below 2^-bits."""
    return max(8, int(bits / CRZ_BITS_PER_TERM) + 4)


def crz_sum(coeff, n):
    """Chebyshev-polynomial acceleration (Cohen/Rodriguez Villegas/Zagier).

    For totally monotone coefficients the result is accurate to roughly
    (3+sqrt(8))^-n relative to c_0.  The recurrence keeps every intermediate
    below d ~ 5.83^n, so the working precision only needs a few guard bits
    beyond the target.
    """
    d = (3 + 2 * sqrt(mpf(2))) ** n
    d = (d + 1 / d) / 2
    b = mpf(-1)
    c = -d
    s = mpf(0)
    for k in range(n):
        c = b - c
        s += c * coeff(k)
        b = (k + n) * (k - n) * b / ((k + mpf(1) / 2) * (k + 1))
    return s / d

