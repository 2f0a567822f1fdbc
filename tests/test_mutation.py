"""A sample of the mutation sweep: scaling one input by (1 + 2^-100) fails exactly the checks that read it.

Each check's readers come from one baseline pass, off `CheckContext.read`;
G's are the checks with G in a closed form.  Only the readers run under a
mutation, and every mutation is undone by `monkeypatch`.
"""

import dataclasses
from functools import partial

import pytest
from mpmath import ldexp, mp, workprec

from hpcert import BasisConstant, ClosedForm, Precision, identities, numeric
from hpcert.identities import CATALOG, CheckContext, Combo, MaxGap, run_catalog, run_check

EPS = ldexp(1, -100)
WIDTHS = [128, 256]

# the readers of each scaled integrand, and so the checks it fails
SCALED_INTEGRANDS = {
    "i2_integrand": {"eq09_B_split", "app2_I2", "app2_F_reconstruct"},
    "eq16_integrand": {"eq14_C_split", "eq16"},
    "neg_ln_x_over_1px2": {"app1_catalan_integral"},
}
CATALAN_FAILS = {"app1_I1", "app1_catalan_integral", "eq13_B", "eq17", "eq18_C"}
# the stated power of two readers of G: eq01 compares at Tol(-20), about 66
# bits, and in eq07's exact rational identity G cancels
CATALAN_PASSES = {"eq01_sigma_series", "eq07_assembly"}


@pytest.fixture(scope="module")
def readers():
    """bits -> integrand id -> the ids of the checks that read it, with every check passing."""
    out = {}
    for bits in WIDTHS:
        p = Precision(bits)
        ctx = CheckContext(p)
        out[bits] = {}
        for check in CATALOG:
            assert run_check(check, p, ctx).passed, check.id
            for f in ctx.read:
                out[bits].setdefault(f.id, set()).add(check.id)
    return out


def failing(p, ids):
    return {r.id for r in run_catalog(p, ids=sorted(ids)) if not r.passed}


def scaled(f):
    """The registered expression f times (1 + 2^-100); the factor 2^-100 is exact in both contexts."""

    def expr(c, x):
        y = f.expr(c, x)
        return y + c.mul(y, c.const(EPS))

    return dataclasses.replace(f, expr=expr, evaluator=partial(expr, numeric.MP))


@pytest.mark.parametrize("bits", WIDTHS)
@pytest.mark.parametrize("integrand_id", list(SCALED_INTEGRANDS))
def test_a_scaled_integrand_fails_exactly_its_readers(integrand_id, bits, readers, monkeypatch):
    read_by = readers[bits][integrand_id]
    assert read_by == SCALED_INTEGRANDS[integrand_id]
    monkeypatch.setitem(identities._REGISTRY, integrand_id, scaled(identities.get_integrand(integrand_id)))
    assert failing(Precision(bits), read_by) == read_by


def closed_forms(side):
    if isinstance(side, ClosedForm):
        yield side
    elif isinstance(side, Combo):
        for _, s in side.terms:
            yield from closed_forms(s)
    elif isinstance(side, MaxGap):
        for pair in side.pairs:
            for s in pair:
                yield from closed_forms(s)


@pytest.mark.parametrize("bits", WIDTHS)
def test_a_scaled_catalan_fails_its_readers_but_two(bits, cold_caches, monkeypatch):
    tag = BasisConstant.CATALAN
    read_by = {
        c.id for c in CATALOG if any(cf.coefficient(tag) for side in (c.lhs, c.rhs) for cf in closed_forms(side))
    }
    assert read_by == CATALAN_FAILS | CATALAN_PASSES
    catalan = numeric._MPF_CONSTANTS[tag]

    def scaled_catalan(prec, rounding):
        with workprec(prec):
            return (mp.make_mpf(catalan(prec, rounding)) * (1 + EPS))._mpf_

    monkeypatch.setitem(numeric._MPF_CONSTANTS, tag, scaled_catalan)
    assert failing(Precision(bits), read_by) == CATALAN_FAILS
