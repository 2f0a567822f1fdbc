"""Child-process side of the benchmark: traced catalog passes and cold layer probes.

Run with ``PYTHONPATH=src`` from the repository root; `run.py` starts it.

    traced.py pass  OUT -- <verify args>   cold then warm traced pass, spans -> OUT
    traced.py plain -- <verify args>       one untraced in-process pass, prints its wall time
    traced.py micro ts KEY LEVEL           tanh-sinh table to LEVEL at table key KEY
    traced.py micro gl BITS ORDER          Gauss-Legendre nodes of ORDER at Precision(BITS)
    traced.py micro const NAME BITS        const_pi / const_ln2 / const_catalan at BITS

Every probe runs in a fresh process, so it measures the cold cost a user pays.
A pass calls ``hpcert.cli.main`` exactly as ``python -m hpcert.cli`` would and
keeps the report bytes so the parent can check them against the reference.
"""

import io
import json
import sys
import time

from spans import Recorder, patch_everywhere


def _run_cli(cli, argv):
    """Call ``cli.main(argv)`` with stdout captured; return (exit code, report bytes)."""
    saved = sys.stdout
    sys.stdout = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
    try:
        rc = cli.main(argv)
        sys.stdout.flush()
        out = sys.stdout.buffer.getvalue()
    finally:
        sys.stdout = saved
    return rc, out


def _quad_counts(args, kwargs, result):
    scheme, p = args[1], args[2]
    return {
        "evals": result.evaluations,
        "step": result.level_or_order,
        "rule": type(getattr(scheme, "inner", scheme)).__name__,
        "bits": p.bits,
        "guarded": p.guarded,
    }


def _elapsed_counts(args, kwargs, results):
    return {"elapsed_ms": {r.id: r.elapsed_ms for r in results}, "jobs": kwargs.get("jobs", 1)}


def _install(rec):
    """Wrap each layer's public entry points at every call site."""
    import hpcert
    from hpcert import accel, cli, identities, numeric, quadrature, series

    modules = [hpcert, accel, cli, identities, numeric, quadrature, series]
    plan = [
        (numeric, "constant_value", "numeric.constant_value",
         lambda a, k, r: {"key": f"{a[0].value}@{a[1]}"}),
        (numeric, "eval_closed_form", "numeric.eval_closed_form", None),
        (accel, "crz_sum", "accel.crz_sum", lambda a, k, r: {"terms": a[1]}),
        (series, "ln2_direct_partial", "series.ln2_direct_partial",
         lambda a, k, r: {"terms": r.terms_used}),
        (series, "sigma_series", "series.sigma_series", None),
        (series, "tail", "series.tail", None),
        (series, "ln1pt_over_t", "series.ln1pt_over_t", None),
        (quadrature, "integrate", "quadrature.integrate", _quad_counts),
        (quadrature, "integrate_2d", "quadrature.integrate_2d", _quad_counts),
        # private table builders: traced when present so a table build shows
        # as its own span instead of inflating the first integrate's self time
        (quadrature, "_ts_levels", "quadrature.ts_table", None),
        (quadrature, "_gl_halfline", "quadrature.gl_nodes", None),
        (identities, "run_check", "identities.run_check", lambda a, k, r: {"id": r.id}),
        (identities, "run_catalog", "identities.run_catalog", _elapsed_counts),
        (cli, "build_report", "cli.build_report", None),
        (cli, "render_json", "cli.render", None),
    ]
    for owner, attr, name, counter in plan:
        if hasattr(owner, attr):
            patch_everywhere(modules, owner, attr, rec.wrap(name, getattr(owner, attr), counter))
    ctx_cls = identities.CheckContext
    ctx_cls.integrate = rec.wrap("identities.ctx.integrate", ctx_cls.integrate)
    return cli, quadrature


def _ts_table_shapes(quadrature):
    """Nodes per level of every cached tanh-sinh table, keyed by table bits."""
    tables = getattr(quadrature, "_TS_TABLES", None)
    if not isinstance(tables, dict):
        return {}
    return {str(key): [len(level) for level in levels] for key, levels in tables.items()}


def cmd_pass(out_path, argv):
    rec = Recorder()
    cli, quadrature = _install(rec)
    passes = {}
    for name in ("cold", "warm"):
        rec.run = name
        t0 = time.perf_counter()
        rc, report = _run_cli(cli, argv)
        passes[name] = {
            "wall_s": time.perf_counter() - t0,
            "rc": rc,
            "report": report.decode("utf-8"),
        }
        if name == "cold":
            passes[name]["ts_tables"] = _ts_table_shapes(quadrature)
    doc = {
        "passes": passes,
        "spans": [[s.name, s.start, s.end, s.parent, s.run, s.counts] for s in rec.spans],
    }
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def cmd_plain(argv):
    from hpcert import cli

    t0 = time.perf_counter()
    rc, _ = _run_cli(cli, argv)
    print(json.dumps({"wall_s": time.perf_counter() - t0, "rc": rc}))


def cmd_micro(kind, a, b):
    from hpcert import numeric, quadrature
    from hpcert.numeric import Precision

    if kind == "ts":
        key, level = int(a), int(b)
        build = getattr(quadrature, "_ts_levels", None)
        t0 = time.perf_counter()
        if build is not None:
            build(key, level)
        else:
            quadrature.tanh_sinh_nodes(level, Precision(key))
    elif kind == "gl":
        p, order = Precision(int(a)), int(b)
        t0 = time.perf_counter()
        quadrature.gauss_legendre_nodes(order, p)
    elif kind == "const":
        fn, p = getattr(numeric, f"const_{a}"), Precision(int(b))
        t0 = time.perf_counter()
        fn(p)
    else:
        raise SystemExit(f"unknown probe {kind!r}")
    print(json.dumps({"s": time.perf_counter() - t0}))


def main(argv):
    if argv[:1] == ["pass"] and argv[2:3] == ["--"]:
        cmd_pass(argv[1], argv[3:])
    elif argv[:2] == ["plain", "--"]:
        cmd_plain(argv[2:])
    elif argv[:1] == ["micro"] and len(argv) == 4:
        cmd_micro(*argv[1:])
    else:
        raise SystemExit(__doc__)


if __name__ == "__main__":
    main(sys.argv[1:])
