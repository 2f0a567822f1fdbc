"""The mutation sweep in tier-1: scaling one input by (1 + 2^-k) fails exactly the checks that read it.

Each check's readers come from one baseline pass, off `CheckContext.read`;
G's are the checks with G in a closed form.  Only the readers run under a
mutation, and every mutation is undone by `monkeypatch`.  A check that passes
under a mutation of its own input shows the power it states: the bits its
tolerance certifies, or a fact that the mutation leaves true.
"""

import dataclasses
from functools import partial

import pytest
from mpmath import ldexp

from hpcert import BasisConstant, ClosedForm, Precision, identities, numeric
from hpcert.identities import CATALOG, CheckContext, Combo, MaxGap, run_catalog, run_check

EPS = ldexp(1, -100)
WIDTHS = [128, 256]

# each registered 1D integrand -> the checks that read it, and so the ones its scaling fails
READERS = {
    "a_integrand": {"eq08_A"},
    "b_integrand": {"eq09_B_split", "eq13_B"},
    "c_integrand": {"eq14_C_split", "eq18_C"},
    "x_ln_1px2_over_1px2": {"eq09_B_split", "eq10"},
    "i1_integrand": {"eq09_B_split", "app1_I1"},
    "i1_minus_ln_x": {"app1_I1_substitution"},
    "neg_ln_x_over_1px2": {"app1_catalan_integral"},
    "log_sin_half": {"app1_logsine", "app1_logsine_funceq"},
    "log_sin_full": {"app1_logsine_funceq"},
    "log_cos_half": {"app1_logsine_funceq"},
    "i2_integrand": {"eq09_B_split", "app2_I2", "app2_F_reconstruct"},
    "i3_integrand": {"eq14_C_split", "app3_I3", "app3_H_reconstruct"},
    "eq16_integrand": {"eq14_C_split", "eq16"},
    "eq17_integrand": {"eq14_C_split", "eq17"},
    "middle_alpha": {"app2_middle"},
    "middle_t": {"app2_middle"},
    "ln1p_t_over_t": {"app2_li2"},
    "f_prime_closed": {"app2_F_reconstruct"},
    "h_prime_closed": {"app3_H_reconstruct"},
    "eq06_inner_1_4": {"eq06_inner"},
    "eq06_inner_1_2": {"eq06_inner"},
    "eq06_inner_3_4": {"eq06_inner"},
    "eq06_inner_1_1": {"eq06_inner"},
}
FAMILY_READERS = {"F": "app2_F_derivative", "H": "app3_H_derivative"}
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


def scaled_expr(expr, eps=EPS):
    """expr times (1 + eps); a power of two eps is exact in both contexts."""

    def scaled(c, x):
        y = expr(c, x)
        return y + c.mul(y, c.const(eps))

    return scaled


def scaled(f):
    """The registered expression f times (1 + 2^-100)."""
    expr = scaled_expr(f.expr)
    return dataclasses.replace(f, expr=expr, evaluator=partial(expr, numeric.MP))


def test_the_sweep_covers_every_registered_1d_integrand():
    assert set(READERS) == {k for k, f in identities._REGISTRY.items() if f.dimension == 1}


@pytest.mark.parametrize("bits", WIDTHS)
@pytest.mark.parametrize("integrand_id", list(READERS))
def test_a_scaled_integrand_fails_exactly_its_readers(integrand_id, bits, readers, monkeypatch):
    read_by = readers[bits][integrand_id]
    assert read_by == READERS[integrand_id]
    monkeypatch.setitem(identities._REGISTRY, integrand_id, scaled(identities.get_integrand(integrand_id)))
    assert failing(Precision(bits), read_by) == read_by


@pytest.mark.parametrize("bits, fails", [(128, False), (256, True)])
@pytest.mark.parametrize("family", list(FAMILY_READERS))
def test_a_scaled_family_fails_its_derivative_check_above_its_stated_power(family, bits, fails, readers, monkeypatch):
    # the scaling moves the finite difference by about 2^-100 F'(a); TolHalfBits
    # is 2^-64 at 128 bits, so there the check's stated power, bits/2, lets it pass
    check = FAMILY_READERS[family]
    assert {c for k, ids in readers[bits].items() if k.startswith(f"{family}_at_") for c in ids} == {check}
    expr, derivative = identities._FAMILIES[family]
    monkeypatch.setitem(identities._FAMILIES, family, (lambda a: scaled_expr(expr(a)), derivative))
    assert failing(Precision(bits), {check}) == ({check} if fails else set())


@pytest.mark.parametrize("bits", WIDTHS)
@pytest.mark.parametrize("k, fails", [(70, False), (60, True)])
def test_a_scaled_sigma_g_fails_eq05_above_its_stated_power(k, fails, bits, readers, monkeypatch):
    # f = g(x) g(y) h(xy): g times (1 + 2^-k) moves sigma by about 2^-(k - 1) sigma;
    # eq05 compares at Tol(-20), about 2^-66
    assert readers[bits]["sigma_double"] == {"eq05_sigma_2d"}
    f = identities.get_integrand("sigma_double")
    g, h = f.product
    monkeypatch.setitem(
        identities._REGISTRY, f.id, dataclasses.replace(f, product=(scaled_expr(g, ldexp(1, -k)), h))
    )
    assert failing(Precision(bits), {"eq05_sigma_2d"}) == ({"eq05_sigma_2d"} if fails else set())


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


class _ScaledConstant:
    """A table entry whose +c, at the ambient width, is +constant * (1 + 2^-100)."""

    def __init__(self, constant):
        self.constant = constant

    def __pos__(self):
        return +self.constant * (1 + EPS)


@pytest.mark.parametrize("bits", WIDTHS)
def test_a_scaled_catalan_fails_its_readers_but_two(bits, cold_caches, monkeypatch):
    tag = BasisConstant.CATALAN
    read_by = {
        c.id for c in CATALOG if any(cf.coefficient(tag) for side in (c.lhs, c.rhs) for cf in closed_forms(side))
    }
    assert read_by == CATALAN_FAILS | CATALAN_PASSES
    monkeypatch.setitem(numeric._MPF_CONSTANTS, tag, _ScaledConstant(numeric._MPF_CONSTANTS[tag]))
    assert failing(Precision(bits), read_by) == CATALAN_FAILS


@pytest.mark.parametrize(
    "bits, errored", [(128, {"app1_logsine_funceq"}), (256, {"app1_logsine", "app1_logsine_funceq"})]
)
def test_cos_and_sin_swapped_error_the_log_sine_checks_and_spare_the_rest(bits, errored, monkeypatch):
    # ln sin of a swapped sin is ln cos, non-real past pi/2, so `log_sin_full` cannot
    # be computed.  At 128 bits `app1_logsine` still passes with its integrand now
    # ln cos, as int_0^{pi/2} ln cos = int_0^{pi/2} ln sin: that check cannot see
    # this fault.  At 256 bits the ladder (320 bits wide) meets a node of
    # `log_sin_half` that rounds to pi/2, where cos is negative at that width.
    cos, sin = vars(numeric._MpContext)["cos"], vars(numeric._MpContext)["sin"]  # the staticmethods
    monkeypatch.setattr(numeric._MpContext, "cos", sin)
    monkeypatch.setattr(numeric._MpContext, "sin", cos)
    results = run_catalog(Precision(bits))
    assert {r.id for r in results if r.error} == errored
    assert all(r.error.startswith("DomainError: ") and not r.passed for r in results if r.error)
    assert all(r.passed for r in results if not r.error)
    assert len(results) == len(CATALOG)
