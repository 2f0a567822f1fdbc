"""The mpmath internals hpcert imports, each with the property the code relies on.

`pyproject.toml` pins mpmath to the minor version the references were recorded
under.  Every name imported from `mpmath.libmp` or one of its submodules is a
key of `CONTRACTS`, and its test states what the code needs of it, so a move
to another mpmath version fails with a named cause.  The guard below fails
when a module imports a name the table does not list, or stops importing one
it does.
"""

import ast
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest
from mpmath import cos, exp, ldexp, mpf, sin, workprec
from mpmath.libmp import BACKEND, from_man_exp, round_nearest, to_fixed
from mpmath.libmp.libelefun import cos_sin_fixed, exp_basecase, ln2_fixed, pi_fixed

from hpcert import BasisConstant, numeric

import test_numeric

SRC = Path(__file__).resolve().parent.parent / "src" / "hpcert"


def imported_internals():
    """Every name a module of hpcert imports from `mpmath.libmp` or a submodule of it."""
    names = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("mpmath.libmp"):
                names.update(alias.name for alias in node.names)
    return names


def to_fixed_floors():
    # floor(x 2^W), toward -inf for a negative x too, from the exact rational
    rng = random.Random(1)
    for _ in range(2000):
        man, exp, W = rng.randrange(-(2**300), 2**300), rng.randrange(-700, 100), rng.randrange(64, 2200)
        with workprec(300):
            x = ldexp(mpf(man), exp)  # exact
        assert to_fixed(x._mpf_, W) == math.floor(man * Fraction(2) ** (exp + W))


def is_the_floor(fixed, tag):
    # the integer oracle is within 4F units of c 2^F; 64 more bits than W leave it
    # decisive.  The widths reach the tanh-sinh build's, up to 2205 bits
    for W in test_numeric.FIXED_WIDTHS + list(range(64, 2300, 61)):
        F = W + 64
        X = test_numeric.CONSTANT_ORACLES[tag](F)
        low = X & ((1 << 64) - 1)
        assert 4 * F < low < (1 << 64) - 4 * F
        assert fixed(W) == X >> 64, W


def fixed_log_and_atan():
    # `log1p_fixed` and `log_fixed` add multiples of `ln2_fixed`, the table of
    # ln(k/512) starts from it, and the tanh-sinh build splits each exponent by it
    is_the_floor(ln2_fixed, BasisConstant.LN2)
    for W in test_numeric.FIXED_WIDTHS:
        test_numeric.test_log_points_are_exact_floors(W)
        test_numeric.test_fixed_log1p_and_atan_at_their_branch_points(W)
        test_numeric.test_fixed_quotients_at_their_branch_points(W)
        test_numeric.test_fixed_sin_over_and_log_at_their_branch_points(W)
    test_numeric.test_point_tables_serve_the_widest_kernel_widths()


def cos_sin_within_32_units():
    # `cos_sin_wide` reads (cos t, sin t) at W + SIN_GUARD, for 0 <= t < 13/8 in the
    # log-sine kernels; 16 units is the most seen, at the widths below 400 bits
    rng = random.Random(2)
    for W in test_numeric.FIXED_WIDTHS:
        P = W + numeric.SIN_GUARD
        top = (13 << P) >> 3
        Ts = [0, 1, top] + [rng.randrange(top) for _ in range(40)] + [rng.randrange(1 << (P - 40)) for _ in range(10)]
        for T in Ts:
            c, s = cos_sin_fixed(T, P)
            with workprec(P + 64):
                t = ldexp(mpf(T), -P)
                assert abs(c - cos(t) * 2**P) <= 32 and abs(s - sin(t) * 2**P) <= 32, (W, T)


def exp_within_32_units():
    # the tanh-sinh build takes e^x 2^F for x = 2^-lev, 2^(1-lev) and -r, 0 <= r < ln 2;
    # at F <= 600 `exp_basecase` runs its own series (24 units the most seen, near 600),
    # above 600 `exponential_series`, a negative x included (6 units)
    rng = random.Random(3)
    for F in (64, 189, 400, 599, 600, 601, 640, 1104, 1499, 1500, 1501, 2128, 2205, 2240):
        one, ln2 = 1 << F, ln2_fixed(F)
        Xs = [-ln2, -1, 0, 1, one, *(one >> lev for lev in range(1, 16))]
        Xs += [rng.randrange(-ln2, one + 1) for _ in range(40)]
        for X in Xs:
            with workprec(F + 64):
                assert abs(exp_basecase(X, F) - exp(ldexp(mpf(X), -F)) * 2**F) <= 32, (F, X)


def rounds_once_to_nearest():
    # from_man_exp(m, e, prec, round_nearest) is an mpf of at most prec bits, and
    # no mpf of prec bits is nearer m 2^e: the rounding is relative, however small m 2^e
    rng = random.Random(4)
    for _ in range(2000):
        prec = rng.randrange(2, 2300)
        man, e = rng.randrange(-(2 ** rng.randrange(1, 2500)), 2 ** rng.randrange(1, 2500)), rng.randrange(-5000, 100)
        sign, got, got_e, bc = from_man_exp(man, e, prec, round_nearest)
        assert bc <= prec and got.bit_length() == bc
        exact = Fraction(man) * Fraction(2) ** e
        shift = max(abs(man).bit_length() - prec, 0)
        below = (abs(man) >> shift) * Fraction(2) ** (e + shift)  # the two candidates of prec bits
        nearest = min((below, below + Fraction(2) ** (e + shift)), key=lambda v: abs(v - abs(exact)))
        assert abs((-1) ** sign * got * Fraction(2) ** got_e - exact) == abs(nearest - abs(exact)), (man, e, prec)


def ties_to_even():
    # `round_nearest` is the mode checked above; a tie, which random mantissas
    # almost never hit, goes to the even one of the two candidates
    rng = random.Random(5)
    for prec in (2, 53, 189, 2240):
        for M in (1 << (prec - 1), (1 << prec) - 1, *(rng.randrange(1 << (prec - 1), 1 << prec) for _ in range(20))):
            _sign, got, got_e, _bc = from_man_exp((M << 1) | 1, -7, prec, round_nearest)
            assert got << (got_e + 6) == M + (M & 1), (prec, M)


def bit_count():
    test_numeric.test_installed_bitcount_equals_python_bitcount()
    if BACKEND == "python":  # where `numeric` rebinds `bitcount`
        test_numeric.test_no_mpmath_module_keeps_python_bitcount()


CONTRACTS = {
    "to_fixed": to_fixed_floors,
    "ln2_fixed": fixed_log_and_atan,
    "pi_fixed": lambda: is_the_floor(pi_fixed, BasisConstant.PI),
    "exp_basecase": exp_within_32_units,
    "from_man_exp": rounds_once_to_nearest,
    "round_nearest": ties_to_even,
    "cos_sin_fixed": cos_sin_within_32_units,
    "libintmath": bit_count,
}


def test_the_contract_lists_every_imported_internal():
    assert imported_internals() == set(CONTRACTS)


@pytest.mark.parametrize("name", list(CONTRACTS))
def test_mpmath_internal(name):
    CONTRACTS[name]()
