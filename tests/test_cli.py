import dataclasses
import fnmatch
import json
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mpf, workprec

from hpcert import NonconvergenceError, __version__, identities
from hpcert.cli import EXIT_CHECK_FAILED, EXIT_INTERNAL, EXIT_OK, EXIT_USAGE, build_report, main
from hpcert.cli import render_json, render_text
from hpcert.identities import CATALOG, Tol

ROOT = Path(__file__).resolve().parent.parent

TOP_KEYS = ["tool_version", "precision_bits", "started_at", "checks", "passed_count", "failed_count"]
CHECK_KEYS = [
    "id",
    "description",
    "paper_ref",
    "lhs",
    "rhs",
    "abs_error",
    "tolerance",
    "passed",
    "evaluations",
    "elapsed_ms",
]


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_list_exits_zero(capsys):
    code, out, err = run_cli(capsys, "--list")
    assert code == EXIT_OK
    assert "eq01_sigma_series" in out
    assert "Eq. (1)" in out
    assert err == ""


def test_list_respects_filter(capsys):
    code, out, _ = run_cli(capsys, "--list", "--filter", "app1*")
    assert code == EXIT_OK
    ids = [line.split()[0] for line in out.strip().splitlines()]
    assert ids and all(i.startswith("app1") for i in ids)


def test_precision_below_minimum_is_usage_error(capsys):
    code, out, err = run_cli(capsys, "--precision-bits", "63")
    assert code == EXIT_USAGE
    assert out == ""
    assert "64" in err


def test_precision_below_the_tolerance_floor_is_usage_error(capsys):
    # the quadratures stop at 2^-(bits + 24); 10^-40 needs bits >= 133 - 24
    code, out, err = run_cli(capsys, "--precision-bits", "108")
    assert code == EXIT_USAGE
    assert out == ""
    assert "109" in err


def test_precision_above_the_ceiling_is_usage_error(capsys):
    code, out, err = run_cli(capsys, "--precision-bits", "2049")
    assert code == EXIT_USAGE
    assert out == ""
    assert "precision 2049 bits is above 2048, the largest the catalog is tested at" in err


def test_tolerance_floor_above_the_ceiling_is_usage_error(capsys):
    # 10^-700 needs ceil(700 log2 10) - 24 = 2302 bits, which no accepted precision reaches
    args = ["--filter", "eq08*", "--tolerance-exponent", "-700", "--precision-bits", "2048"]
    code, out, err = run_cli(capsys, *args)
    assert code == EXIT_USAGE
    assert out == ""
    assert "no accepted precision (at most 2048 bits) meets 10^-700: its tolerance floor is 2302 bits" in err
    assert "below" not in err


def test_precision_at_the_ceiling_is_accepted(capsys):
    # the whole catalog at 2048 bits is the `slow` test below; eq01 integrates nothing
    code, out, _ = run_cli(capsys, "--precision-bits", "2048", "--filter", "eq01*", "--no-timestamp")
    assert code == EXIT_OK
    assert out.strip().endswith("1 passed, 0 failed")


def test_full_catalog_passes_at_the_tolerance_floor(capsys):
    code, out, _ = run_cli(capsys, "--precision-bits", "109", "--no-timestamp")
    assert code == EXIT_OK
    assert sum(line.startswith("PASS") for line in out.splitlines()) == 27
    assert out.strip().endswith("27 passed, 0 failed")


@pytest.mark.slow
def test_full_catalog_passes_at_2048_bits(capsys):
    # the refinement caps grow with the precision: eq05 needs Gauss-Legendre
    # order 1024 here, beyond a fixed cap of 512 (a few minutes; pytest -m slow)
    code, out, _ = run_cli(capsys, "--precision-bits", "2048", "--no-timestamp")
    assert code == EXIT_OK
    assert sum(line.startswith("PASS") for line in out.splitlines()) == 27
    assert out.strip().endswith("27 passed, 0 failed")


@pytest.mark.slow
@pytest.mark.parametrize("bits", [192, 384, 640, 1024, 1536])
def test_full_catalog_passes_across_the_precision_sweep(bits, capsys):
    # between the 109-bit floor and the 2048-bit ceiling, each tested above
    code, out, _ = run_cli(capsys, "--precision-bits", str(bits), "--no-timestamp")
    assert code == EXIT_OK
    assert sum(line.startswith("PASS") for line in out.splitlines()) == 27
    assert out.strip().endswith("27 passed, 0 failed")


def test_tolerance_override_sets_the_floor(capsys):
    args = ["--filter", "eq06*", "--tolerance-exponent", "-20", "--precision-bits", "64"]
    code, out, _ = run_cli(capsys, *args)
    assert code == EXIT_OK
    assert out.strip().endswith("1 passed, 0 failed")


def test_series_only_checks_have_no_precision_floor(capsys):
    # eq01 integrates nothing, so a tolerance it cannot meet is a real FAIL, not a refusal
    args = ["--filter", "eq01*", "--tolerance-exponent", "-40", "--precision-bits", "64"]
    code, out, _ = run_cli(capsys, *args)
    assert code == EXIT_CHECK_FAILED
    assert "FAIL  eq01_sigma_series" in out


def test_unknown_flag_is_usage_error(capsys):
    code, out, err = run_cli(capsys, "--frobnicate")
    assert code == EXIT_USAGE
    assert out == ""
    # argparse's own report: its usage line, then the message
    assert err.startswith("usage: verify ")
    assert err.endswith("verify: error: unrecognized arguments: --frobnicate\n")


def test_empty_filter_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "--filter", "zzz*")
    assert code == EXIT_USAGE
    assert "matches no checks" in err


def test_list_with_empty_filter_is_usage_error(capsys):
    code, out, err = run_cli(capsys, "--list", "--filter", "zzz*")
    assert code == EXIT_USAGE
    assert out == ""
    assert "matches no checks" in err


USAGE_ERRORS = {
    "unknown-flag": (["--frobnicate"], "unrecognized arguments: --frobnicate"),
    "bits-below-64": (
        ["--precision-bits", "63"],
        "argument --precision-bits: precision must be an integer >= 64 bits, got 63",
    ),
    "bits-not-int": (["--precision-bits", "abc"], "argument --precision-bits: invalid int value: 'abc'"),
    "jobs-0": (["--jobs", "0"], "argument --jobs: value must be >= 1"),
    "jobs-not-int": (["--jobs", "x"], "argument --jobs: invalid int value: 'x'"),
    "empty-filter": (["--filter", "zzz*"], "filter 'zzz*' matches no checks"),
    "list-empty-filter": (["--list", "--filter", "zzz*"], "filter 'zzz*' matches no checks"),
    "below-floor": (["--precision-bits", "108"], "precision 108 bits is below 109, the tolerance floor"),
    "above-ceiling": (
        ["--precision-bits", "2049"],
        "precision 2049 bits is above 2048, the largest the catalog is tested at",
    ),
    "floor-above-ceiling": (
        ["--filter", "eq08*", "--tolerance-exponent", "-700"],
        "no accepted precision (at most 2048 bits) meets 10^-700: its tolerance floor is 2302 bits",
    ),
}


@pytest.mark.parametrize("argv, message", USAGE_ERRORS.values(), ids=USAGE_ERRORS.keys())
def test_every_usage_error_prints_the_usage_line_and_one_error_line(argv, message, capsys):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (EXIT_USAGE, "")
    assert err.startswith("usage: verify ")
    assert err.endswith(f"\nverify: error: {message}\n")
    assert err.count("verify: error:") == 1


def test_json_single_check_schema(capsys):
    code, out, _ = run_cli(
        capsys,
        "--filter", "eq16*", "--format", "json", "--no-timestamp", "--precision-bits", "128",
    )
    assert code == EXIT_OK
    doc = json.loads(out)
    assert list(doc.keys()) == TOP_KEYS
    assert doc["precision_bits"] == 128
    assert doc["started_at"] == "1970-01-01T00:00:00Z"
    assert doc["passed_count"] == 1 and doc["failed_count"] == 0
    (entry,) = doc["checks"]
    assert list(entry.keys()) == CHECK_KEYS
    assert entry["id"] == "eq16"
    assert entry["passed"] is True
    assert entry["lhs"].startswith("0.3084251375340424568")
    assert entry["elapsed_ms"] == 0
    with workprec(300):
        assert abs(mpf(entry["abs_error"])) <= mpf(entry["tolerance"])


def test_json_sigma_lhs_digits(capsys):
    code, out, _ = run_cli(
        capsys, "--filter", "eq01*", "--format", "json", "--no-timestamp"
    )
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["checks"][0]["lhs"].startswith("-0.0289950930217387")


def test_json_round_trip(capsys):
    from hpcert.cli import build_report, render_json

    report = build_report(128, selected("eq1[06]*"), jobs=1, no_timestamp=True)
    doc = json.loads(render_json(report))
    assert doc["tool_version"] == __version__
    assert doc["precision_bits"] == report.precision_bits
    assert report.started_at is None and doc["started_at"] == "1970-01-01T00:00:00Z"
    assert doc["passed_count"] == report.passed_count
    assert doc["failed_count"] == report.failed_count
    assert [c["id"] for c in doc["checks"]] == [r.id for r in report.checks]
    for got, want in zip(doc["checks"], report.checks):
        assert got["passed"] == want.passed
        assert got["evaluations"] == want.evaluations
        with workprec(200):
            assert abs(mpf(got["lhs"]) - want.lhs_value) <= mpf(10) ** -37


def test_render_json_empty_checks_is_valid():
    from hpcert.cli import Report, render_json

    report = Report(precision_bits=128, started_at="2026-01-02T03:04:05Z")
    doc = json.loads(render_json(report))
    assert list(doc.keys()) == TOP_KEYS
    assert doc["started_at"] == "2026-01-02T03:04:05Z"
    assert doc["checks"] == []
    assert doc["passed_count"] == 0 and doc["failed_count"] == 0


def test_render_text_empty_checks():
    from hpcert.cli import Report, render_text

    report = Report(precision_bits=128, started_at=None)
    assert render_text(report) == "identity verification @ 128 bits\n0 passed, 0 failed\n"


def test_golden_determinism(capsys):
    args = ["--filter", "eq10*", "--format", "json", "--no-timestamp", "--precision-bits", "128"]
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == EXIT_OK
    assert out1 == out2


def test_text_format(capsys):
    code, out, _ = run_cli(capsys, "--filter", "eq08*", "--precision-bits", "128")
    assert code == EXIT_OK
    assert out.startswith("identity verification @ 128 bits")
    assert "PASS" in out and "eq08_A" in out
    assert out.strip().endswith("1 passed, 0 failed")


def test_failed_check_exit_code(capsys):
    code, out, _ = run_cli(
        capsys, "--filter", "eq03*", "--tolerance-exponent", "-10", "--precision-bits", "128"
    )
    assert code == EXIT_CHECK_FAILED
    assert "FAIL" in out


def test_internal_error_exit_code(capsys, monkeypatch):
    import hpcert.cli as cli_mod

    def boom(*args, **kwargs):
        raise NonconvergenceError("stuck")

    monkeypatch.setattr(cli_mod, "run_catalog", boom)
    code, out, err = run_cli(capsys, "--filter", "eq08*")
    assert code == EXIT_INTERNAL
    assert out == ""
    assert err == "verify: internal error: NonconvergenceError: stuck\n"


def test_a_check_that_cannot_be_computed_prints_error_and_the_rest_report(capsys, monkeypatch):
    def stuck(*args):
        raise NonconvergenceError("injected")

    f = identities.get_integrand("neg_ln_x_over_1px2")
    monkeypatch.setitem(identities._REGISTRY, f.id, dataclasses.replace(f, form=(stuck, *f.form[1:]), evaluator=stuck))
    args = ["--precision-bits", "128", "--no-timestamp"]
    code, text, err = run_cli(capsys, *args)
    assert code == EXIT_INTERNAL
    assert err == ""
    lines = text.splitlines()
    assert [line.split()[0] for line in lines[1:-1]].count("PASS") == 26
    assert "ERROR app1_catalan_integral  NonconvergenceError: injected  [Appendix 1]" in lines
    assert lines[-1] == "26 passed, 1 failed"

    code, out, _ = run_cli(capsys, *args, "--format", "json")
    assert code == EXIT_INTERNAL
    doc = json.loads(out)
    assert (doc["passed_count"], doc["failed_count"]) == (26, 1)
    errored = [c for c in doc["checks"] if "error" in c]
    assert [c["id"] for c in errored] == ["app1_catalan_integral"]
    assert list(errored[0]) == CHECK_KEYS + ["error"]
    assert [errored[0][k] for k in ("lhs", "rhs", "abs_error", "tolerance", "passed")] == [None] * 4 + [False]
    assert errored[0]["error"] == "NonconvergenceError: injected"
    assert all(list(c) == CHECK_KEYS for c in doc["checks"] if "error" not in c)

    # a spawned worker would import the registry afresh and not see the patch
    if multiprocessing.get_start_method() == "fork":
        assert run_cli(capsys, *args, "--jobs", "2") == (EXIT_INTERNAL, text, "")
        assert run_cli(capsys, *args, "--format", "json", "--jobs", "2") == (EXIT_INTERNAL, out, "")


def test_jobs_process_pool(capsys):
    code, out, _ = run_cli(
        capsys, "--filter", "eq1[06]*", "--jobs", "2", "--precision-bits", "128"
    )
    assert code == EXIT_OK
    lines = [l for l in out.splitlines() if l.startswith("PASS")]
    assert [l.split()[1] for l in lines] == ["eq10", "eq16"]


def test_jobs_2_matches_jobs_1_byte_for_byte(capsys):
    # eq05's right side recomputes eq01's series inside its own worker
    args = ["--filter", "eq0[15]*", "--precision-bits", "128", "--format", "json", "--no-timestamp"]
    code1, serial, _ = run_cli(capsys, *args)
    code2, pooled, _ = run_cli(capsys, *args, "--jobs", "2")
    assert code1 == code2 == EXIT_OK
    assert [c["id"] for c in json.loads(serial)["checks"]] == ["eq01_sigma_series", "eq05_sigma_2d"]
    assert pooled == serial


# globs that each select two to four checks costing a few ms apiece below 320 bits
CHEAP_FILTERS = ["eq0[17]*", "eq0[16]*", "eq1[0367]*", "eq1[38]*", "app[123]_I[123]", "app[12]_[cl]*"]


def selected(pattern, exponent=None):
    """The checks `verify --filter pattern` runs, each policy replaced as `--tolerance-exponent` does."""
    checks = [c for c in CATALOG if fnmatch.fnmatchcase(c.id, pattern)]
    if exponent is None:
        return checks
    return [dataclasses.replace(c, tolerance_policy=Tol(exponent)) for c in checks]


@settings(max_examples=6, deadline=None)
@given(
    pattern=st.sampled_from(CHEAP_FILTERS),
    bits=st.integers(min_value=109, max_value=320),
    exponent=st.sampled_from([None, -10]),
)
def test_jobs_2_renders_jobs_1_byte_for_byte_over_filters_and_precisions(pattern, bits, exponent):
    # the override reaches each worker only inside the checks the pool is handed
    checks = selected(pattern, exponent)
    serial, pooled = (build_report(bits, checks, jobs, True) for jobs in (1, 2))
    assert len(serial.checks) >= 2  # so the pool really runs
    for render in (render_json, render_text):
        assert render(pooled) == render(serial)


def test_help_exits_zero(capsys):
    code, out, _ = run_cli(capsys, "--help")
    assert code == EXIT_OK
    assert "--precision-bits" in out


def test_cli_import_leaves_numpy_out():
    # a cold process pays for what the CLI imports; numpy is not needed
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, hpcert.cli; print('numpy' in sys.modules)"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_a_closed_stdout_ends_the_run_quietly():
    # the pipe's reader has exited before the first write, as `head` may in `verify --list | head -1`
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "hpcert.cli", "--list"],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": path},
            timeout=60,
        )
    finally:
        os.close(write_end)
    assert proc.stderr == b""
    assert proc.returncode != EXIT_INTERNAL
