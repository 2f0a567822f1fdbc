"""Acceptance gate: every criterion at its stated precision and tolerance.

Each test prints one PASS/FAIL line (run pytest with -s to see them inline;
they also appear in captured output on failure).
"""

import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from mpmath import ldexp, mpf, workprec

from hpcert import (
    __version__,
    Crz,
    Euler,
    Precision,
    TailRoute,
    eval_closed_form,
    gauss_legendre_nodes,
    integrate_2d,
    run_catalog,
    sigma_series,
    tail,
)
from hpcert.cli import EPOCH_TIMESTAMP, Report, build_report, render_json
from hpcert.identities import SIGMA_CF, CheckContext, _fd_step, get_integrand
from hpcert.numeric import BasisConstant, constant_value
from hpcert.quadrature import GaussLegendre

P256 = Precision(256)
P128 = Precision(128)

ROOT = Path(__file__).resolve().parent.parent
REFERENCE_256 = ROOT / "perfbench" / "reference" / "cat256.json"
REFERENCE_APP_256 = ROOT / "perfbench" / "reference" / "app256.json"
REFERENCE_FIELDS = ("lhs", "rhs", "abs_error", "tolerance", "passed", "evaluations")

QUADRATURE_CHECK_IDS = [
    "eq06_inner",
    "eq08_A",
    "eq09_B_split",
    "eq10",
    "app1_I1",
    "app1_I1_substitution",
    "app1_catalan_integral",
    "app1_logsine",
    "app1_logsine_funceq",
    "app2_I2",
    "app2_middle",
    "app2_li2",
    "eq13_B",
    "eq14_C_split",
    "app3_I3",
    "eq16",
    "eq17",
    "eq18_C",
]

# checks whose lhs is a route deviation (a near-zero diagnostic); for these
# the 128-vs-256 statement is "passes at both precisions", not 120-bit
# agreement of the deviation itself
DEVIATION_IDS = {
    "eq04_tail_routes",
    "eq06_inner",
    "app1_logsine_funceq",
    "app2_middle",
    "app2_li2",
    "app2_F_derivative",
    "app2_F_reconstruct",
    "app3_H_derivative",
    "app3_H_reconstruct",
}


def report(number, ok, text):
    print(f"\nACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, f"acceptance criterion {number} failed: {text}"


@pytest.fixture(scope="module")
def cat256():
    t0 = time.perf_counter()
    results = run_catalog(P256)
    elapsed = time.perf_counter() - t0
    return {r.id: r for r in results}, elapsed


@pytest.fixture(scope="module")
def cat128():
    results = run_catalog(P128)
    return {r.id: r for r in results}


def test_criterion_1_sigma_series_closed_form():
    t0 = time.perf_counter()
    s = sigma_series(P256, Crz(30))
    elapsed = time.perf_counter() - t0
    closed = eval_closed_form(SIGMA_CF, P256)
    with workprec(300):
        err = abs(s.value - closed)
    ok = err <= mpf(10) ** -20 and elapsed < 1.0
    report(
        1,
        ok,
        f"series(30 CRZ terms) vs closed form: err={err} runtime={elapsed:.3f}s "
        f"value={str(s.value)[:22]}",
    )


def test_criterion_2_sigma_triple_route():
    t0 = time.perf_counter()
    s_series = sigma_series(P256, Crz(30)).value
    s_double = integrate_2d(get_integrand("sigma_double"), GaussLegendre(), P256).value
    s_closed = eval_closed_form(SIGMA_CF, P256)
    elapsed = time.perf_counter() - t0
    with workprec(300):
        worst = max(
            abs(s_series - s_double), abs(s_series - s_closed), abs(s_double - s_closed)
        )
    ok = worst <= mpf(10) ** -20 and elapsed < 5.0
    report(2, ok, f"three sigma routes pairwise err<={worst} runtime={elapsed:.3f}s")


def test_criterion_3_integral_catalog(cat256):
    results, _ = cat256
    proc_cmd = [
        sys.executable,
        "-m",
        "hpcert.cli",
        "--precision-bits",
        "256",
        "--format",
        "json",
        "--no-timestamp",
    ]
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    t0 = time.perf_counter()
    proc = subprocess.run(proc_cmd, capture_output=True, env={**os.environ, "PYTHONPATH": path})
    wall = time.perf_counter() - t0
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout == REFERENCE_256.read_bytes()
    doc = json.loads(proc.stdout)
    with workprec(300):
        bad = [
            c["id"]
            for c in doc["checks"]
            if c["id"] in QUADRATURE_CHECK_IDS
            and (not c["passed"] or mpf(c["abs_error"]) > mpf(10) ** -40)
        ]
    # the two awkward singular integrands must converge by level 12
    ctx = CheckContext(P256)
    levels = {
        i: ctx.integrate(get_integrand(i)).level_or_order for i in ("log_sin_half", "i1_minus_ln_x")
    }
    levels_ok = all(
        results[cid].passed for cid in ("app1_logsine", "app1_I1_substitution")
    ) and max(levels.values()) <= 12
    ok = len(QUADRATURE_CHECK_IDS) >= 15 and not bad and levels_ok and wall < 10.0
    report(
        3,
        ok,
        f"{len(QUADRATURE_CHECK_IDS)} quadrature checks <=1e-40 (bad={bad}), "
        f"levels reached {levels}, cold full-suite wall={wall:.2f}s",
    )


def test_criterion_4_logsine_suite(cat256):
    results, _ = cat256
    s = results["app1_logsine"]
    fe = results["app1_logsine_funceq"]
    tol = mpf(10) ** -40
    ok = (
        s.passed
        and fe.passed
        and s.abs_error <= tol
        and fe.abs_error <= tol
    )
    report(
        4,
        ok,
        f"log-sine err={s.abs_error}, functional-equation dev={fe.abs_error}",
    )


def test_criterion_5_tail_identity():
    worst = mpf(0)
    for n in (1, 2, 3, 5, 10, 20):
        harm = tail(n, TailRoute.HARMONIC, P256)
        quad = tail(n, TailRoute.INTEGRAL, P256)
        with workprec(300):
            diff = abs(harm.value - quad.value)
            worst = max(worst, diff)
        assert diff <= 8 * quad.error_bound + ldexp(1, -250)
    bounds_ok = True
    with workprec(300):
        for n in range(1, 65):
            a_n = tail(n, TailRoute.HARMONIC, P256).value
            lo = Fraction(1, 2 * n + 1) - Fraction(1, 2 * n + 2)
            hi = Fraction(1, 2 * n + 1)
            if not (mpf(lo.numerator) / lo.denominator < a_n < mpf(hi.numerator) / hi.denominator):
                bounds_ok = False
    ok = bounds_ok
    report(5, ok, f"route agreement worst diff={worst}; rational bounds hold for n<=64")


def test_criterion_6_parameter_differentiation(cat256):
    results, _ = cat256
    dF = results["app2_F_derivative"]
    dH = results["app3_H_derivative"]
    rF = results["app2_F_reconstruct"]
    rH = results["app3_H_reconstruct"]
    tol_fd = ldexp(1, -128)
    tol_rec = mpf(10) ** -35
    h_ok = _fd_step(P256) == ldexp(1, -85)
    ok = (
        h_ok
        and dF.passed
        and dH.passed
        and dF.abs_error <= tol_fd
        and dH.abs_error <= tol_fd
        and dF.tolerance == tol_fd
        and rF.abs_error <= tol_rec
        and rH.abs_error <= tol_rec
    )
    report(
        6,
        ok,
        f"h=2^-85, F'/H' fd dev={max(dF.abs_error, dH.abs_error)}, "
        f"reconstruction dev={max(rF.abs_error, rH.abs_error)}",
    )


def test_criterion_7_exact_assembly(cat256):
    results, _ = cat256
    r = results["eq07_assembly"]
    ok = r.passed and r.abs_error == 0 and r.tolerance == 0
    report(7, ok, "A*ln2 + B/2 + C = -sigma holds as exact rational identity")


def test_criterion_8_property_suites(cat256, cat128):
    results256, _ = cat256
    # (a) precision doubling: constants
    agree = ldexp(1, -120)
    consts_ok = True
    for tag in BasisConstant:
        lo = constant_value(tag, 128)
        hi = constant_value(tag, 256)
        with workprec(300):
            if abs(lo - hi) > agree * max(1, abs(hi)):
                consts_ok = False
    # (a) precision doubling: check values (deviation checks must simply pass twice)
    values_ok, worst = True, mpf(0)
    for cid, r128 in cat128.items():
        r256 = results256[cid]
        if cid in DEVIATION_IDS:
            if not (r128.passed and r256.passed):
                values_ok = False
            continue
        with workprec(300):
            d = max(
                abs(r128.lhs_value - r256.lhs_value),
                abs(r128.rhs_value - r256.rhs_value),
            )
            worst = max(worst, d)
        if d > agree:
            values_ok = False
    # (b) Gauss-Legendre degree exactness through order 20
    gl_ok = True
    with workprec(200):
        for order in (4, 10, 16, 20):
            nodes = gauss_legendre_nodes(order, P128)
            for k in range(2 * order):
                total = sum(w * x**k for x, w in nodes)
                exact = mpf(0) if k % 2 else mpf(2) / (k + 1)
                if abs(total - exact) > (order + k + 1) * ldexp(1, -120):
                    gl_ok = False
    # (c) CRZ vs Euler on sigma at matched budgets
    crz = sigma_series(P256, Crz(60)).value
    eul = sigma_series(P256, Euler(60)).value
    with workprec(300):
        accel_diff = abs(crz - eul)
    accel_ok = accel_diff <= mpf(10) ** -15
    ok = consts_ok and values_ok and gl_ok and accel_ok
    report(
        8,
        ok,
        f"doubling worst={worst} (<=2^-120), GL exactness<=order 20: {gl_ok}, "
        f"CRZ-vs-Euler diff={accel_diff}",
    )


def test_reports_match_the_recorded_reference(cat256):
    # the benchmark checks its runs against the same file; pinning it here
    # catches a digit change before a benchmark run does
    results, _ = cat256
    checks = list(results.values())
    passed = sum(r.passed for r in checks)
    report = Report(__version__, P256.bits, EPOCH_TIMESTAMP, checks, passed, len(checks) - passed)
    rendered_bytes = render_json(report, no_timestamp=True)
    rendered = json.loads(rendered_bytes)["checks"]
    reference = json.loads(REFERENCE_256.read_text(encoding="utf-8"))["checks"]
    assert [c["id"] for c in rendered] == [c["id"] for c in reference]
    for got, want in zip(rendered, reference):
        for key in REFERENCE_FIELDS:
            assert got[key] == want[key], f"{got['id']}.{key}: {got[key]} != {want[key]}"
    # descriptions, references, order and the header as well
    assert rendered_bytes == REFERENCE_256.read_bytes()


def test_appendix_report_after_a_warm_catalog_matches_its_reference(cat256):
    # the tanh-sinh abscissae and the ln(1+x^2) / arctan x / ln x memo are
    # process-wide; after the cat256 fixture has filled them, a fresh run of
    # the app* selection must still print the recorded report byte for byte
    report = build_report(256, "app*", None, 1, True)
    assert render_json(report, no_timestamp=True) == REFERENCE_APP_256.read_bytes()
