"""Tests of the benchmark itself: failure counting, reference comparison, spans.

    PYTHONPATH=src python3 -m pytest -q perfbench

They start a few short `verify` processes (a few seconds in all) and are not
part of tier-1, whose ``testpaths`` is ``tests``.
"""

import json

import pytest

import compare
import run
from spans import Recorder, Span, gaps, self_times

QUICK = "eq0[17]*"  # eq01_sigma_series and eq07_assembly: no quadrature, ~0.5 s


@pytest.fixture
def quick_workload(tmp_path):
    """A workload over two cheap checks, with its reference cut from cat256."""
    full = json.loads((run.HERE / "reference" / "cat256.json").read_bytes())
    full["checks"] = [c for c in full["checks"] if c["id"] in ("eq01_sigma_series", "eq07_assembly")]
    ref = tmp_path / "quick.json"
    ref.write_text(json.dumps(full), encoding="utf-8")

    def make(*extra):
        return {"args": ["--filter", QUICK, "--precision-bits", "256", *extra], "reference": str(ref)}

    return make


def _measure(workload):
    return run.measure(workload, seed=0, seconds=0)


def test_clean_run_has_no_failures(quick_workload):
    attempted, failed, problems, metrics, _ = _measure(quick_workload())
    assert (attempted, failed, problems) == (2, 0, [])
    assert metrics["verify_s"]["value"] > 0 and metrics["setup_s"]["value"] > 0


def test_real_fails_count_every_selected_check(quick_workload):
    workload = quick_workload("--tolerance-exponent", "-400")
    p = run.spawn([*run.VERIFY, *run.REPORT_ARGS, *workload["args"]])
    assert p.rc == 1
    assert [c["passed"] for c in json.loads(p.out)["checks"]] == [False, True]
    attempted, failed, problems, _, _ = _measure(workload)
    assert (attempted, failed) == (2, 2) and problems


def test_usage_error_counts_every_selected_check(quick_workload):
    workload = quick_workload("--precision-bits", "32")
    p = run.spawn([*run.VERIFY, *run.REPORT_ARGS, *workload["args"]])
    assert p.rc == 2 and p.out == b""
    attempted, failed, problems, _, _ = _measure(workload)
    assert (attempted, failed) == (2, 2) and problems


def test_reference_comparison():
    ref = run.load_reference({"reference": "cat256.json"})
    n = len(ref.checks)
    assert run.failed_checks(0, ref.raw, ref) == 0
    doc = json.loads(ref.raw)
    doc["checks"][3]["evaluations"] += 1
    assert run.failed_checks(0, json.dumps(doc).encode(), ref) == 1
    doc["checks"].reverse()
    assert run.failed_checks(0, json.dumps(doc).encode(), ref) == n
    assert run.failed_checks(0, b"not json", ref) == n
    assert run.failed_checks(3, ref.raw, ref) == n

    exact = run.load_reference({"reference": "cat256.json", "exact": True})
    assert run.failed_checks(0, ref.raw, exact) == 0
    assert run.failed_checks(0, ref.raw.replace(b"  ", b" "), exact) == n


def test_self_time_on_fixed_span_tree():
    # root 0-10 has children a 1-4 and b 3-6 (overlapping) and d 9-12 (running
    # past its parent); a has child c 2-3
    spans = [
        Span("root", 0.0, 10.0, None, "cold"),
        Span("a", 1.0, 4.0, 0, "cold"),
        Span("b", 3.0, 6.0, 0, "cold"),
        Span("c", 2.0, 3.0, 1, "cold"),
        Span("d", 9.0, 12.0, 0, "cold"),
    ]
    assert self_times(spans) == [4.0, 2.0, 3.0, 1.0, 3.0]
    assert gaps((0.0, 10.0), [(1.0, 4.0), (3.0, 6.0), (9.0, 12.0)]) == [(0.0, 1.0), (6.0, 9.0)]


def test_recorder_nests_counts_and_marks_raises():
    rec = Recorder()
    inner = rec.wrap("inner", lambda x: x * 2, lambda a, k, r: {"out": r})

    def body(x):
        if x < 0:
            raise ValueError
        return inner(x) + 1

    outer = rec.wrap("outer", body)
    assert outer(3) == 7
    with pytest.raises(ValueError):
        outer(-1)
    assert [(s.name, s.parent, s.counts) for s in rec.spans] == [
        ("outer", None, {}),
        ("inner", 0, {"out": 6}),
        ("outer", None, {"raised": 1}),
    ]


def test_times_are_rescaled_by_the_speed_clock():
    per_rep = run.REFERENCE_REPETITION_S
    assert run.at_reference_speed(3.0, 3.0 / per_rep, 3.0) == pytest.approx(3.0)
    # on a host at half speed the process and the kernel both take twice as long
    assert run.at_reference_speed(6.0, 3.0 / per_rep, 6.0) == pytest.approx(3.0)
    stamps = [10.0, 10.5, 11.0, 12.0]
    assert run.position(stamps, 10.25) == pytest.approx(0.5)
    assert run.position(stamps, 11.5) - run.position(stamps, 10.25) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        run.position(stamps, 12.5)


def test_tail_percentile_needs_ten_samples_beyond():
    assert run.tail(list(range(10))) is None
    assert run.tail(list(range(20))) == (50.0, 9)


def test_compare_refuses_other_backend_or_core_count(tmp_path, capsys):
    env = {"python": "3", "mpmath": "1", "numpy": "2", "mpmath_backend": "python", "nproc": 2}
    record = {"workload": "cat256", "trace": 0, "metrics": {}, "raw": {}, "env": env}
    paths = []
    for i, change in enumerate(({}, {"mpmath_backend": "gmpy"}, {"nproc": 4})):
        path = tmp_path / f"r{i}.json"
        path.write_text(json.dumps(dict(record, env=dict(env, **change))), encoding="utf-8")
        paths.append(str(path))
    assert compare.main([paths[0], "--", paths[0]]) == 0
    assert compare.main([paths[0], "--", paths[1]]) == 2
    assert compare.main([paths[0], "--", paths[2]]) == 2
    assert "refusing" in capsys.readouterr().err
