"""The names the benchmark's tracer wraps or probes must exist.

`perfbench/traced.py` wraps each of these with `hasattr` guards, so a
renamed function would not fail the benchmark: its span would silently read
0.  This test turns such a rename into a failure.
"""

import pytest

from hpcert import accel, cli, identities, numeric, quadrature, series

HOOKS = [
    (identities, "run_check"),
    (identities, "run_catalog"),
    (identities.CheckContext, "integrate"),
    (series, "ln2_direct_partial"),
    (series, "sigma_series"),
    (series, "ln1pt_over_t"),
    (quadrature, "integrate"),
    (quadrature, "integrate_2d"),
    (quadrature, "_ts_levels"),
    (quadrature, "_gl_halfline"),
    (quadrature, "tanh_sinh_nodes"),
    (quadrature, "gauss_legendre_nodes"),
    (numeric, "constant_value"),
    (numeric, "eval_closed_form"),
    (numeric, "const_pi"),
    (numeric, "const_ln2"),
    (numeric, "const_catalan"),
    (accel, "crz_sum"),
    (cli, "main"),
    (cli, "build_report"),
    (cli, "render_json"),
]


@pytest.mark.parametrize("owner, name", HOOKS, ids=[f"{o.__name__}.{n}" for o, n in HOOKS])
def test_traced_name_exists(owner, name):
    assert callable(getattr(owner, name, None))


def test_ts_table_cache_is_a_dict():
    # the tracer reads the tanh-sinh table shapes from this cache
    assert isinstance(quadrature._TS_TABLES, dict)
