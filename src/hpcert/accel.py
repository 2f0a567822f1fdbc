"""Summation kernels for alternating series  sum_{k>=0} (-1)^k c_k.

All three kernels run at the ambient mpmath precision and take a coefficient
callback ``coeff(k) -> mpf`` with c_k > 0.  Precondition checking and
precision management belong to the caller, `hpcert.series`; these functions
are deliberately bare.
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


def euler_sum(coeff, m):
    """Euler transform: sum_j (forward difference)^j c_0 / 2^(j+1).

    Uses the first m coefficients; the difference table is O(m^2) operations.
    Convergence is roughly 2^-m for totally monotone coefficients, an
    independent (and slower) cross-check for `crz_sum`.
    """
    row = [coeff(k) for k in range(m)]
    s = mpf(0)
    p2 = mpf(1) / 2
    for _ in range(m):
        s += row[0] * p2
        p2 /= 2
        row = [row[i] - row[i + 1] for i in range(len(row) - 1)]
        if not row:
            break
    return s


def direct_sum(coeff, m):
    """Plain partial sum of m terms; returns (value, remainder_bound).

    The bound is the classic alternating-series remainder: the first
    unsummed coefficient.
    """
    s = mpf(0)
    sign = 1
    for k in range(m):
        s += sign * coeff(k)
        sign = -sign
    return s, coeff(m)
