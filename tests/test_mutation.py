"""The mutation sweep: scaling one input by (1 + 2^-k) fails exactly the checks that read it.

Tier-1 runs every case at 128 and 256 bits; `slow` runs it at 1024 bits too,
where each case expects its 256-bit outcome.

Each input's readers come from one baseline pass per width, made when a case
at that width first asks, off `CheckContext.read`; G's are the checks with G
in a closed form.  Only the readers run under a mutation, and every mutation
is undone by `monkeypatch`.  A check that passes under a mutation of its own
input shows the power it states: the bits its tolerance certifies, or a fact
that the mutation leaves true.  A closed form's coefficients are scaled one at
a time, each in one occurrence, and only that check runs.
"""

import dataclasses
from fractions import Fraction
from functools import cache

import pytest
from mpmath import ldexp
from mpmath.libmp.libelefun import cos_sin_fixed

from hpcert import BasisConstant, ClosedForm, Precision, eval_closed_form, identities, numeric, quadrature
from hpcert.identities import CATALOG, SIGMA_CF, CheckContext, Combo, MaxGap, run_catalog, run_check
from hpcert.quadrature import Integrand, TanhSinh, integrate

EPS = ldexp(1, -100)
WIDTHS = [128, 256, pytest.param(1024, marks=pytest.mark.slow)]

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
    **{f"tail_integral_n{n}": {"eq04_tail_routes"} for n in identities.EQ04_TAILS},
}
FAMILY_READERS = {"F": "app2_F_derivative", "H": "app3_H_derivative"}
CATALAN_FAILS = {"app1_I1", "app1_catalan_integral", "eq13_B", "eq17", "eq18_C"}
# the stated power of two readers of G: eq01 compares at Tol(-20), about 66
# bits, and in eq07's exact rational identity G cancels
CATALAN_PASSES = {"eq01_sigma_series", "eq07_assembly"}


@cache
def readers(bits):
    """Integrand id -> the ids of the checks that read it at `bits`, with every check passing."""
    p = Precision(bits)
    ctx = CheckContext(p)
    out = {}
    for check in CATALOG:
        assert run_check(check, p, ctx).passed, check.id
        for f in ctx.read:
            out.setdefault(f.id, set()).add(check.id)
    return out


def failing(p, ids):
    return {r.id for r in run_catalog(p, [c for c in CATALOG if c.id in ids]) if not r.passed}


def scaled_expr(expr, eps=EPS):
    """expr times (1 + eps); a power of two eps is exact in both contexts."""

    def scaled(c, x):
        y = expr(c, x)
        return y + c.mul(y, c.const(eps))

    return scaled


def scaled(f):
    """The registered 1D integrand f times (1 + 2^-100): its form's g, h and k, or its plain evaluator."""
    if f.form is None:
        return dataclasses.replace(f, evaluator=lambda x: (y := f.evaluator(x)) + y * EPS)
    g, h, k = (e and scaled_expr(e) for e in f.form)
    return quadrature.expression(f.id, g, h=h, k=k, domain=f.domain)


def test_the_sweep_covers_every_registered_1d_integrand():
    assert set(READERS) == {k for k, f in identities._REGISTRY.items() if f.dimension == 1}


@pytest.mark.parametrize("bits", WIDTHS)
@pytest.mark.parametrize("integrand_id", list(READERS))
def test_a_scaled_integrand_fails_exactly_its_readers(integrand_id, bits, monkeypatch):
    read_by = readers(bits)[integrand_id]
    assert read_by == READERS[integrand_id]
    monkeypatch.setitem(identities._REGISTRY, integrand_id, scaled(identities.get_integrand(integrand_id)))
    assert failing(Precision(bits), read_by) == read_by


@pytest.mark.parametrize("bits, fails", [(128, False), (256, True), pytest.param(1024, True, marks=pytest.mark.slow)])
@pytest.mark.parametrize("family", list(FAMILY_READERS))
def test_a_scaled_family_fails_its_derivative_check_above_its_stated_power(family, bits, fails, monkeypatch):
    # the scaling moves the finite difference by about 2^-100 F'(a); TolHalfBits
    # is 2^-64 at 128 bits, so there the check's stated power, bits/2, lets it pass
    check = FAMILY_READERS[family]
    assert {c for k, ids in readers(bits).items() if k.startswith(f"{family}_at_") for c in ids} == {check}
    expr, derivative = identities._FAMILIES[family]
    monkeypatch.setitem(identities._FAMILIES, family, (lambda a: scaled_expr(expr(a)), derivative))
    assert failing(Precision(bits), {check}) == ({check} if fails else set())


@pytest.mark.parametrize("bits", WIDTHS)
@pytest.mark.parametrize("k, fails", [(70, False), (60, True)])
def test_a_scaled_sigma_g_fails_eq05_above_its_stated_power(k, fails, bits, monkeypatch):
    # f = g(x) g(y) h(xy): g times (1 + 2^-k) moves sigma by about 2^-(k - 1) sigma;
    # eq05 compares at Tol(-20), about 2^-66
    assert readers(bits)["sigma_double"] == {"eq05_sigma_2d"}
    f = identities.get_integrand("sigma_double")
    g, h = f.form
    monkeypatch.setitem(identities._REGISTRY, f.id, dataclasses.replace(f, form=(scaled_expr(g, ldexp(1, -k)), h)))
    assert failing(Precision(bits), {"eq05_sigma_2d"}) == ({"eq05_sigma_2d"} if fails else set())


def closed_forms(node):
    """(form, put) for each closed form in a side or a tuple of sides, walking `Combo` and `MaxGap`.

    put(new) is the node with that one occurrence of the form replaced by new.
    """
    if isinstance(node, ClosedForm):
        yield node, lambda new: new
    elif isinstance(node, tuple):
        for i, item in enumerate(node):
            for cf, put in closed_forms(item):
                yield cf, lambda new, i=i, put=put: node[:i] + (put(new),) + node[i + 1 :]
    elif isinstance(node, (Combo, MaxGap)):
        name = "terms" if isinstance(node, Combo) else "pairs"
        for cf, put in closed_forms(getattr(node, name)):
            yield cf, lambda new, put=put: dataclasses.replace(node, **{name: put(new)})


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
        c.id for c in CATALOG if any(tag in cf.coefficients for side in (c.lhs, c.rhs) for cf, _ in closed_forms(side))
    }
    assert read_by == CATALAN_FAILS | CATALAN_PASSES
    monkeypatch.setitem(numeric._MPF_CONSTANTS, tag, _ScaledConstant(numeric._MPF_CONSTANTS[tag]))
    assert failing(Precision(bits), read_by) == CATALAN_FAILS


def coefficient_mutants():
    """(check id, tag, the check with that one coefficient scaled by exactly 1 + 2^-100).

    One mutant per coefficient of each occurrence of a closed form on each side.
    """
    for check in CATALOG:
        for name in ("lhs", "rhs"):
            for cf, put in closed_forms(getattr(check, name)):
                for tag, v in cf.items:
                    mutant = ClosedForm({**cf.coefficients, tag: v * (1 + Fraction(1, 2**100))})
                    yield check.id, tag, dataclasses.replace(check, **{name: put(mutant)})


# the stated power of five mutants: eq01 compares at Tol(-20), about 66 bits,
# and eq03's partial sum brackets ln2 only within 1/100001
COEFFICIENT_PASSES = {("eq01_sigma_series", tag) for tag in SIGMA_CF.coefficients} | {("eq03_ln2", BasisConstant.LN2)}


@pytest.mark.parametrize("bits", WIDTHS)
def test_a_scaled_coefficient_fails_its_check_but_five(bits):
    p = Precision(bits)
    mutants = list(coefficient_mutants())
    assert len(mutants) == 48  # eq04's six harmonic forms give 12 of them
    ctx = CheckContext(p)
    assert {(cid, tag) for cid, tag, check in mutants if run_check(check, p, ctx).passed} == COEFFICIENT_PASSES


# int_0^{pi/4} ln cos and ln sin: there the two differ, by G
QUARTER = (0, ClosedForm({BasisConstant.PI: Fraction(1, 4)}))
QUARTER_CF = {
    "log_cos_half": ClosedForm({BasisConstant.CATALAN: Fraction(1, 2), BasisConstant.PI_LN2: Fraction(-1, 4)}),
    "log_sin_half": ClosedForm({BasisConstant.CATALAN: Fraction(-1, 2), BasisConstant.PI_LN2: Fraction(-1, 4)}),
}


def quarter_misses(p):
    """The log-sine integrands whose registered evaluator, integrated over [0, pi/4], misses its closed form.

    Built as an `Integrand` from the evaluator, which the mpf ladder sums: each
    kernel's logarithms are those of the ends of its own domain.
    """
    misses = set()
    for fid, cf in QUARTER_CF.items():
        f = identities.get_integrand(fid)
        quarter = Integrand(f"{fid}_quarter", f.evaluator, QUARTER, singular_left=f.singular_left)
        r = integrate(quarter, TanhSinh(), p)
        if abs(r.value - eval_closed_form(cf, p)) > ldexp(1, -(p.bits - quadrature.STOP_MARGIN)):
            misses.add(fid)
    return misses


@pytest.mark.parametrize("bits", WIDTHS)
def test_the_log_sine_evaluators_meet_their_quarter_interval_closed_forms(bits):
    assert quarter_misses(Precision(bits)) == set()


@pytest.mark.parametrize(
    "bits, errored",
    [
        (128, {"app1_logsine", "app1_logsine_funceq"}),
        (256, {"app1_logsine", "app1_logsine_funceq"}),
        pytest.param(1024, {"app1_logsine", "app1_logsine_funceq"}, marks=pytest.mark.slow),
    ],
)
def test_cos_and_sin_swapped_error_the_log_sine_checks_and_spare_the_rest(bits, errored, cold_caches, monkeypatch):
    # swapped in both contexts: `MP`'s cos and sin, whose sin(t)/t reads its sin,
    # and the integer kernels' (cos t, sin t), made afresh on cold caches.
    # `log_sin_half`'s kernel is then ln t + ln(cos t / t) from t = 2^-7 on, and
    # meets cos t = 0 at the abscissa floored next to pi/2, at 128 bits too;
    # `log_sin_full`'s meets it at pi/2.  Each logarithm of 0 is a `DomainError`.
    cos, sin = vars(numeric._MpContext)["cos"], vars(numeric._MpContext)["sin"]  # the staticmethods
    monkeypatch.setattr(numeric._MpContext, "cos", sin)
    monkeypatch.setattr(numeric._MpContext, "sin", cos)
    monkeypatch.setattr(numeric, "cos_sin_fixed", lambda x, prec: cos_sin_fixed(x, prec)[::-1])
    results = run_catalog(Precision(bits))
    assert {r.id for r in results if r.error} == errored
    assert all(r.error.startswith("DomainError: ") and not r.passed for r in results if r.error)
    assert all(r.passed for r in results if not r.error)
    assert len(results) == len(CATALOG)
    # ln cos and ln sin differ on [0, pi/4], so there both swapped evaluators miss by G
    assert quarter_misses(Precision(bits)) == {"log_cos_half", "log_sin_half"}


@pytest.mark.parametrize("bits", WIDTHS)
def test_log_cos_half_written_as_ln_sin_passes_every_check(bits, monkeypatch):
    # a stated blind spot: int_0^{pi/2} ln cos = int_0^{pi/2} ln sin, and the one
    # reader of `log_cos_half`, app1_logsine_funceq, compares it with `log_sin_half`
    # on the same domain, so ln sin there gives that gap exactly 0.  A form is
    # singular where it has a logarithm, so ln sin brings its flags along
    ln_sin = identities.get_integrand("log_sin_half")
    f = identities.get_integrand("log_cos_half")
    mutant = dataclasses.replace(
        f, form=ln_sin.form, evaluator=ln_sin.evaluator, singular_left=True, singular_right=False
    )
    monkeypatch.setitem(identities._REGISTRY, f.id, mutant)
    results = run_catalog(Precision(bits))
    assert all(r.passed for r in results)
    assert {r.id: r.abs_error for r in results}["app1_logsine_funceq"] == 0
    # the catalog misses the fault, but on [0, pi/4] ln sin is not ln cos
    assert quarter_misses(Precision(bits)) == {"log_cos_half"}
