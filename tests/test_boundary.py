"""Every public entry point returns plain mpfs, each rounded once to p.bits.

`round_to`'s own contract (it refuses non-finite values, and a wider
rounding is never farther from the input) is tested in test_numeric.py.
"""

from mpmath import mpf

from hpcert import (
    CATALOG,
    BasisConstant,
    ClosedForm,
    GaussLegendre,
    Integrand,
    TanhSinh,
    const_catalan,
    const_ln2,
    const_pi,
    eval_closed_form,
    integrate,
    integrate_2d,
    ln1pt_over_t,
    run_check,
    sigma_series,
)
from hpcert.numeric import round_to
from hpcert.quadrature import product
from hpcert.series import ln2_direct_partial


def _boundary_values(p):
    smooth = Integrand(id="boundary_x2", evaluator=lambda x: x * x, domain=(0, 1))
    square = product("boundary_xy", lambda c, x: x, lambda c, t: c.one)
    out = {}
    for name, q in (
        ("integrate TS", integrate(smooth, TanhSinh(), p)),
        ("integrate GL", integrate(smooth, GaussLegendre(), p)),
        ("integrate_2d", integrate_2d(square, GaussLegendre(), p)),
    ):
        out[f"{name} value"] = q.value
        out[f"{name} error_estimate"] = q.error_estimate
    out["sigma_series value"] = sigma_series(p, 10).value
    r = ln2_direct_partial(1000, p)
    out["ln2_direct_partial value"] = r.value
    out["ln2_direct_partial error_bound"] = r.error_bound
    out["ln1pt_over_t"] = ln1pt_over_t(p)
    out["const_pi"] = const_pi(p)
    out["const_ln2"] = const_ln2(p)
    out["const_catalan"] = const_catalan(p)
    cf = ClosedForm({BasisConstant.PI_LN2: 1, BasisConstant.CATALAN: -1})
    out["eval_closed_form"] = eval_closed_form(cf, p)
    check = next(c for c in CATALOG if c.id == "eq08_A")
    r = run_check(check, p)
    for field in ("lhs_value", "rhs_value", "abs_error", "tolerance"):
        out[f"run_check {field}"] = getattr(r, field)
    return out


def test_boundary_values_are_mpfs_rounded_to_p(p128):
    values = _boundary_values(p128)
    assert len(values) == 18
    for name, v in values.items():
        assert type(v) is mpf, name
        assert round_to(v, p128) == v, name

