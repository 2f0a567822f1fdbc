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
from mpmath import ldexp, mpf, workprec
from mpmath.libmp import BACKEND, to_fixed
from mpmath.libmp.libelefun import pi_fixed

from hpcert import BasisConstant

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


def pi_fixed_is_the_floor():
    # the integer oracle is within 4F units of pi 2^F; 64 more bits than W leave it decisive
    for W in test_numeric.FIXED_WIDTHS + list(range(64, 2200, 61)):
        F = W + 64
        X = test_numeric.CONSTANT_ORACLES[BasisConstant.PI](F)
        low = X & ((1 << 64) - 1)
        assert 4 * F < low < (1 << 64) - 4 * F
        assert pi_fixed(W) == X >> 64, W


def fixed_log_and_atan():
    # `log1p_fixed` reads `log_taylor_cached` and `ln2_fixed`, `atan_fixed` is `atan_taylor`
    for W in test_numeric.FIXED_WIDTHS:
        test_numeric.test_fixed_log1p_and_atan_at_their_branch_points(W)
        test_numeric.test_fixed_quotients_at_their_branch_points(W)
    test_numeric.test_widest_fixed_kernel_fits_mpmath_taylor_caches()


def bit_count():
    test_numeric.test_installed_bitcount_equals_python_bitcount()
    if BACKEND == "python":  # where `numeric` rebinds `bitcount`
        test_numeric.test_no_mpmath_module_keeps_python_bitcount()


CONTRACTS = {
    "to_fixed": to_fixed_floors,
    "atan_taylor": fixed_log_and_atan,
    "ln2_fixed": fixed_log_and_atan,
    "log_taylor_cached": fixed_log_and_atan,
    "pi_fixed": pi_fixed_is_the_floor,
    "libintmath": bit_count,
}


def test_the_contract_lists_every_imported_internal():
    assert imported_internals() == set(CONTRACTS)


@pytest.mark.parametrize("name", list(CONTRACTS))
def test_mpmath_internal(name):
    CONTRACTS[name]()
