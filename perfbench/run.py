"""Cold-process benchmark of the `verify` command.

    python3 perfbench/run.py --workload cat256 --seed 1 --seconds 50 --trace 0

Run from the repository root; the program is imported from ``src`` with
``PYTHONPATH=src``, exactly as the tier-1 tests do.  Workloads, their CLI
arguments and the reasons for them are in ``perfbench/workloads.json``.

``--trace 0`` is a closed loop with one client: one cold
``python -m hpcert.cli --no-timestamp --format json ...`` process at a time
until ``--seconds`` have passed, each paired with one cold ``--list``
process (a set-up probe).  Every report is checked against the seed's reference.  It
reports the end-to-end metrics of BENCHMARK.json, with times rescaled to a
reference host speed that ``speed.py``, run on the second core meanwhile,
measures (see SpeedClock); the raw times are printed beside them.

``--trace 1`` runs the catalog twice in one traced process (a cold pass,
then a warm pass with the module caches filled), one untraced pass for the
tracing overhead, and cold layer probes, each in a fresh process.  It reports
the per-layer metrics of BENCHMARK.json.

The seed only fixes the order in which the different kinds of process are
interleaved; the program always receives the same arguments.  The last line
of stdout is ``{"correct", "attempted", "failed", "metrics"}``; the full
result, with the environment fingerprint and raw samples, is also written to
``.benchmarks/``.
"""

import argparse
import bisect
import json
import os
import random
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from spans import Span, gaps, self_times

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = ROOT / ".benchmarks"

VERIFY = ["-m", "hpcert.cli"]
REPORT_ARGS = ["--no-timestamp", "--format", "json"]
COMPARED_FIELDS = ("lhs", "rhs", "abs_error", "tolerance", "passed", "evaluations")
PROCESS_TIMEOUT_S = 150
TS_LEVELS = (8, 12)
GL_ORDERS = (8, 16, 32, 64, 128, 256)
CONSTANTS = ("pi", "ln2", "catalan")
# Seconds per repetition of speed.py's kernel on the 2-vCPU Intel Xeon host
# (Python 3.11, mpmath 1.3 on its pure-Python backend) the benchmark was
# defined on; its runs measured 0.039-0.049 s.  Only sets the scale of the
# reported times.
REFERENCE_REPETITION_S = 0.045
SPEED_WAIT_S = 10


# ---------------------------------------------------------------------------
# Processes
# ---------------------------------------------------------------------------


@dataclass
class Proc:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    rc: int
    out: bytes
    err: bytes


def _env():
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))


def spawn(argv):
    """Run ``python argv`` to completion; wall from spawn to exit, rusage of its tree.

    ``wait4`` returns the child's own rusage including the pool workers it
    reaped, so CPU is user+sys of the process and its workers and the peak
    RSS is the largest of them.
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, *argv], cwd=ROOT, env=_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE
    )
    killer = threading.Timer(PROCESS_TIMEOUT_S, proc.kill)
    killer.start()
    err = []
    reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
    reader.start()
    try:
        out = proc.stdout.read()
        reader.join()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    return Proc(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024, proc.returncode, out, err[0])


def option(args, flag, default):
    return args[args.index(flag) + 1] if flag in args else default


# ---------------------------------------------------------------------------
# Correctness
# ---------------------------------------------------------------------------


@dataclass
class Reference:
    raw: bytes
    checks: list
    exact: bool

    @property
    def ids(self):
        return [c["id"] for c in self.checks]


def load_reference(workload):
    raw = (HERE / "reference" / workload["reference"]).read_bytes()
    return Reference(raw, json.loads(raw)["checks"], bool(workload.get("exact")))


def failed_checks(rc, out, ref):
    """Selected checks of one run that count as failed.

    A check fails if it is not PASS or if any compared field of its report
    entry differs from the reference.  A run that exits nonzero, prints no
    parseable report or reorders the checks fails every selected check; so
    does a byte mismatch where the reference must be matched exactly.
    """
    n = len(ref.checks)
    if rc != 0:
        return n
    if ref.exact:
        return 0 if out == ref.raw else n
    try:
        got = json.loads(out)["checks"]
    except (ValueError, KeyError, TypeError):
        return n
    if not isinstance(got, list) or [c.get("id") for c in got] != ref.ids:
        return n
    return sum(
        1
        for c, r in zip(got, ref.checks)
        if c.get("passed") is not True or any(c.get(k) != r[k] for k in COMPARED_FIELDS)
    )


def listed_ids(out):
    return [line.split()[0] for line in out.decode("utf-8", "replace").splitlines() if line.strip()]


# ---------------------------------------------------------------------------
# Environment fingerprint
# ---------------------------------------------------------------------------


def fingerprint():
    import mpmath
    import mpmath.libmp
    import numpy

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
            capture_output=True,
            text=True,
            timeout=30,
        )
        commit = commit.stdout.strip() if commit.returncode == 0 else "unknown"
    except (OSError, subprocess.TimeoutExpired):
        commit = "unknown"
    return {
        "python": sys.version.split()[0],
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit,
    }


# ---------------------------------------------------------------------------
# End-to-end run (--trace 0)
# ---------------------------------------------------------------------------


def tail(values):
    """(percentile, value): the highest percentile with >= 10 samples beyond it."""
    n = len(values)
    if n < 11:
        return None
    return 100.0 * (n - 10) / n, sorted(values)[n - 11]


class SpeedClock:
    """`speed.py` running beside the measured processes: the host's speed over time.

    The host is shared and its speed drifts by tens of percent over minutes,
    which moves raw times of the same code by more than any bound.  A fixed
    kernel repeated on the second core slows down with it at the same moment,
    so a time divided by the kernel's time over the same interval cancels
    the drift and still moves with every change to the program.
    """

    def __init__(self):
        self.stamps = []
        self.proc = subprocess.Popen([sys.executable, str(HERE / "speed.py")], stdout=subprocess.PIPE, env=_env())
        self.reader = threading.Thread(target=self._read)
        self.reader.start()
        try:
            self._wait_for(lambda: len(self.stamps) >= 10)  # past the first, slower repetitions
        except RuntimeError:
            self.close()
            raise

    def _read(self):
        for line in self.proc.stdout:
            self.stamps.append(float(line))

    def _wait_for(self, ready):
        deadline = time.monotonic() + SPEED_WAIT_S
        while not ready():
            if self.proc.poll() is not None or time.monotonic() > deadline:
                raise RuntimeError(f"speed.py stopped stamping (exit {self.proc.returncode})")
            time.sleep(0.01)

    def repetitions(self, t0, t1):
        """Kernel repetitions completed between monotonic times t0 and t1, interpolated."""
        self._wait_for(lambda: self.stamps[-1] >= t1)
        return position(self.stamps, t1) - position(self.stamps, t0)

    def close(self):
        self.proc.kill()
        self.proc.wait()
        self.reader.join()
        self.proc.stdout.close()


def position(stamps, t):
    """How many repetitions had completed at time t, interpolating within the running one."""
    i = bisect.bisect_right(stamps, t)
    if i == 0 or i == len(stamps):
        raise ValueError(f"time {t} is outside the stamped interval")
    return i - 1 + (t - stamps[i - 1]) / (stamps[i] - stamps[i - 1])


def at_reference_speed(seconds, repetitions, interval):
    """``seconds`` taken while the kernel ran ``repetitions`` times in ``interval`` seconds,
    rescaled to the reference host's speed."""
    return seconds * repetitions / interval * REFERENCE_REPETITION_S


def measure(workload, seed, seconds):
    """Closed loop of cold processes, one at a time, timed against a SpeedClock.

    Times are reported at the reference host's speed (see SpeedClock and
    at_reference_speed); raw times are printed and kept beside them.
    """
    ref = load_reference(workload)
    verify_argv = [*VERIFY, *REPORT_ARGS, *workload["args"]]
    list_argv = [*VERIFY, "--list", "--filter", option(workload["args"], "--filter", "*")]
    order = random.Random(seed)
    raw = {"verify_s": [], "cpu_s": [], "setup_s": [], "repetition_s": []}
    samples = {"verify_s": [], "cpu_s": [], "peak_rss_mb": [], "setup_s": []}
    attempted = failed = 0
    problems = []
    clock = SpeedClock()
    try:
        deadline = time.monotonic() + seconds
        while not raw["verify_s"] or time.monotonic() < deadline:
            # a set-up probe next to every verify process, so the probes
            # sample the whole run; the seed picks which of the two goes first
            kinds = ["setup", "verify"]
            order.shuffle(kinds)
            t0 = time.monotonic()
            runs = {kind: spawn(list_argv if kind == "setup" else verify_argv) for kind in kinds}
            t1 = time.monotonic()
            reps = clock.repetitions(t0, t1)
            raw["repetition_s"].append((t1 - t0) / reps)
            setup, p = runs["setup"], runs["verify"]
            raw["setup_s"].append(setup.wall_s)
            samples["setup_s"].append(at_reference_speed(setup.wall_s, reps, t1 - t0))
            if setup.rc != 0 or listed_ids(setup.out) != ref.ids:
                problems.append(f"--list exit {setup.rc}: {setup.err.decode(errors='replace').strip()[:200]}")
            raw["verify_s"].append(p.wall_s)
            raw["cpu_s"].append(p.cpu_s)
            samples["verify_s"].append(at_reference_speed(p.wall_s, reps, t1 - t0))
            samples["cpu_s"].append(at_reference_speed(p.cpu_s, reps, t1 - t0))
            samples["peak_rss_mb"].append(p.peak_rss_mb)
            bad = failed_checks(p.rc, p.out, ref)
            attempted += len(ref.checks)
            failed += bad
            if bad:
                problems.append(f"verify exit {p.rc}, {bad} checks failed: {p.err.decode(errors='replace').strip()[:200]}")
    finally:
        clock.close()
    units = {"verify_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
    metrics = {k: {"value": statistics.median(v), "unit": units[k]} for k, v in samples.items()}
    for name, values in samples.items():
        t = tail(values)
        extra = f"p{t[0]:.0f}={t[1]:.4f}" if t else "tail needs >= 11 samples"
        unscaled = f"; raw median {statistics.median(raw[name]):.4f}" if name in raw else ""
        print(f"{name:<12} {metrics[name]['value']:10.4f} {units[name]:<3} median of n={len(values)}; {extra}{unscaled}")
    per_rep = statistics.median(raw["repetition_s"])
    print(f"{'host_speed':<12} {REFERENCE_REPETITION_S / per_rep:10.4f} x   reference speed (speed.py: {per_rep:.4f} s per repetition)")
    print(f"{'fail_ratio':<12} {failed / attempted:10.4f} failed/attempted checks ({failed}/{attempted})")
    return attempted, failed, problems, metrics, {"scaled": samples, "raw": raw}


# ---------------------------------------------------------------------------
# Traced run (--trace 1)
# ---------------------------------------------------------------------------


def _import_times(err):
    """(import hpcert*, import numpy) cumulative seconds from ``-X importtime`` output."""
    hpcert = numpy = 0.0
    for line in err.decode("utf-8", "replace").splitlines():
        parts = line.split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        name = parts[2][1:]
        cumulative = int(parts[1]) / 1e6
        if name.startswith("hpcert"):
            hpcert += cumulative
        elif name.strip() == "numpy" and not numpy:
            numpy = cumulative
    return hpcert, numpy


def _probe(argv):
    p = spawn(argv)
    if p.rc != 0:
        raise RuntimeError(f"probe {argv} exit {p.rc}: {p.err.decode(errors='replace').strip()[-300:]}")
    return p


def trace(name, workload, seed):
    ref = load_reference(workload)
    traced = str(HERE / "traced.py")
    cli_args = [*REPORT_ARGS, *workload["args"]]
    bits = int(option(workload["args"], "--precision-bits", "256"))
    RESULTS.mkdir(exist_ok=True)
    spans_path = RESULTS / f"spans-{name}-s{seed}.json"
    _probe([traced, "pass", str(spans_path), "--", *cli_args])
    doc = json.loads(spans_path.read_text(encoding="utf-8"))
    spans = [Span(*row) for row in doc["spans"]]
    attempted = failed = 0
    for run in ("cold", "warm"):
        attempted += len(ref.checks)
        failed += failed_checks(doc["passes"][run]["rc"], doc["passes"][run]["report"].encode(), ref)

    # the table key and the precision the catalog really integrates at
    quad = [s for s in spans if s.name.startswith("quadrature.integrate")]
    ts_key = max((int(k) for k in doc["passes"]["cold"]["ts_tables"]), default=None)
    ts_key = ts_key or max((s.counts["guarded"] for s in quad if "guarded" in s.counts), default=bits + 64)
    gl_bits = max((s.counts["bits"] for s in quad if "bits" in s.counts), default=bits + 32)
    probes = [("plain", [traced, "plain", "--", *cli_args]), ("import", ["-X", "importtime", "-c", "import hpcert.cli"])]
    probes += [(f"ts{lv}", [traced, "micro", "ts", str(ts_key), str(lv)]) for lv in TS_LEVELS]
    probes += [(f"gl{n}", [traced, "micro", "gl", str(gl_bits), str(n)]) for n in GL_ORDERS]
    probes += [(c, [traced, "micro", "const", c, str(bits)]) for c in CONSTANTS]
    random.Random(seed).shuffle(probes)
    results = {key: _probe(argv) for key, argv in probes}
    plain = json.loads(results.pop("plain").out)
    attempted += len(ref.checks)
    failed += len(ref.checks) if plain["rc"] != 0 else 0
    micro = {key: json.loads(p.out)["s"] for key, p in results.items() if key != "import"}
    imports = _import_times(results["import"].err)

    all_ids = load_reference({"reference": "cat256.json"}).ids
    metrics, uncovered = layer_metrics(doc, spans, micro, imports, plain["wall_s"], all_ids)
    print(f"tanh-sinh table key {ts_key} bits, Gauss-Legendre probes at Precision({gl_bits})")
    print(f"run_check spans cover {metrics['trace.run_check_cover_frac']['value']:.4f} of the cold run_catalog span")
    for label, length in uncovered[:5]:
        print(f"  not covered: {length * 1e3:8.3f} ms {label}")
    raw = {"spans_file": str(spans_path.relative_to(ROOT)), "micro_s": micro, "ts_key": ts_key, "gl_bits": gl_bits}
    return attempted, failed, [], metrics, raw


def layer_metrics(doc, spans, micro, imports, plain_wall, all_ids):
    selfs = self_times(spans)

    def pick(name, run="cold"):
        return [(s, t) for s, t in zip(spans, selfs) if s.name == name and s.run == run]

    def self_s(name, run="cold"):
        return sum(t for _, t in pick(name, run))

    def total(name, key, run="cold"):
        return sum(s.counts.get(key, 0) for s, _ in pick(name, run))

    def duration(name, run="cold"):
        return sum(s.duration for s, _ in pick(name, run))

    m = {}

    def put(name, value, unit):
        m[name] = {"value": value, "unit": unit}

    cv = "numeric.constant_value"
    put(f"{cv}.calls", len(pick(cv)), "count")
    put(f"{cv}.misses", len({s.counts["key"] for s, _ in pick(cv)}), "count")
    put(f"{cv}.self_s", self_s(cv), "s")
    put("numeric.eval_closed_form.calls", len(pick("numeric.eval_closed_form")), "count")
    put("numeric.eval_closed_form.self_s", self_s("numeric.eval_closed_form"), "s")
    for c in CONSTANTS:
        put(f"numeric.const_{c}.cold_s", micro[c], "s")

    put("accel.crz_sum.calls", len(pick("accel.crz_sum")), "count")
    put("accel.crz_sum.terms", total("accel.crz_sum", "terms"), "count")
    put("accel.crz_sum.self_s", self_s("accel.crz_sum"), "s")

    put("series.ln2_direct_partial.self_s", self_s("series.ln2_direct_partial"), "s")
    put("series.ln2_direct_partial.terms", total("series.ln2_direct_partial", "terms"), "count")
    put("series.sigma_series.self_s", self_s("series.sigma_series"), "s")
    put("series.tail.calls", len(pick("series.tail")), "count")
    put("series.tail.self_s", self_s("series.tail"), "s")
    put("series.ln1pt_over_t.self_s", self_s("series.ln1pt_over_t"), "s")

    for q in ("quadrature.integrate", "quadrature.integrate_2d"):
        put(f"{q}.calls", len(pick(q)), "count")
        put(f"{q}.evals", total(q, "evals"), "count")
        put(f"{q}.self_s", self_s(q), "s")
        put(f"{q}.warm_self_s", self_s(q, "warm"), "s")
        put(f"{q}.max_step", max((s.counts.get("step", 0) for s, _ in pick(q)), default=0), "count")
    warm_self = self_s("quadrature.integrate", "warm")
    warm_evals = total("quadrature.integrate", "evals", "warm")
    put("quadrature.integrate.evals_per_s", warm_evals / warm_self if warm_self > 0 else 0.0, "1/s")
    put("quadrature.integrate.nonconverged", total("quadrature.integrate", "raised"), "count")

    # tanh-sinh nodes: a level-L grid has 1 + 2 * (positive nodes of levels 1..L)
    deepest = {}
    for s, _ in pick("quadrature.integrate"):
        if s.counts.get("rule") == "TanhSinh":
            key = str(s.counts["guarded"])
            deepest[key] = max(deepest.get(key, 0), s.counts["step"])
    built = used = 0
    for key, sizes in doc["passes"]["cold"]["ts_tables"].items():
        built += 1 + 2 * sum(sizes[1:])
        if deepest.get(key):
            used += 1 + 2 * sum(sizes[1 : deepest[key] + 1])
    put("quadrature.ts_nodes.built", built, "count")
    put("quadrature.ts_nodes.used", used, "count")
    put("quadrature.ts_nodes.used_frac", used / built if built else 0.0, "ratio")
    put("quadrature.ts_table.build_s", self_s("quadrature.ts_table"), "s")
    for lv in TS_LEVELS:
        put(f"quadrature.ts_table.to_level{lv}_s", micro[f"ts{lv}"], "s")
    put("quadrature.gl_nodes.build_s", self_s("quadrature.gl_nodes"), "s")
    for n in GL_ORDERS:
        put(f"quadrature.gl_nodes.order{n}_s", micro[f"gl{n}"], "s")

    # per-check time: span duration where traced; with a pool the checks run
    # in untraced workers, so their own elapsed_ms from the result stands in
    catalogs = {run: pick("identities.run_catalog", run) for run in ("cold", "warm")}
    for run, suffix in (("cold", "s"), ("warm", "warm_s")):
        spent = {}
        for s, _ in catalogs[run]:
            spent.update({k: v / 1000 for k, v in s.counts.get("elapsed_ms", {}).items()})
        for s, _ in pick("identities.run_check", run):
            spent[s.counts["id"]] = s.duration
        for cid in all_ids:
            put(f"identities.run_check.{cid}.{suffix}", spent.get(cid, 0.0), "s")
    ctx = "identities.ctx.integrate"
    missed = {
        s.parent
        for s in spans
        if s.run == "cold" and s.name.startswith("quadrature.integrate") and s.parent is not None
        and spans[s.parent].name == ctx
    }
    put(f"{ctx}.calls", len(pick(ctx)), "count")
    put(f"{ctx}.misses", len(missed), "count")
    put("identities.run_catalog.s", duration("identities.run_catalog"), "s")
    put("identities.run_catalog.warm_s", duration("identities.run_catalog", "warm"), "s")
    put("identities.run_catalog.warmup_s", m["identities.run_catalog.s"]["value"] - m["identities.run_catalog.warm_s"]["value"], "s")

    put("cli.build_report.s", duration("cli.build_report"), "s")
    put("cli.render.s", duration("cli.render"), "s")
    put("setup.import_s", imports[0], "s")
    put("setup.numpy_import_s", imports[1], "s")
    busy = sum(v for s, _ in catalogs["cold"] for v in s.counts.get("elapsed_ms", {}).values()) / 1000
    wall = sum(s.duration * s.counts.get("jobs", 1) for s, _ in catalogs["cold"])
    put("cli.pool.busy_frac", busy / wall if wall > 0 else 0.0, "ratio")

    put("trace.overhead_frac", doc["passes"]["cold"]["wall_s"] / plain_wall - 1, "ratio")
    uncovered = []
    for s, _ in catalogs["cold"]:
        i = next(k for k, t in enumerate(spans) if t is s)
        checks = [(c.start, c.end, c.counts["id"]) for c in spans if c.parent == i and c.name == "identities.run_check"]
        for a, b in gaps((s.start, s.end), [(a, b) for a, b, _ in checks]):
            before = [cid for _, end, cid in checks if end <= a]
            uncovered.append((f"after {before[-1]}" if before else "before the first check", b - a))
    rc_total = duration("identities.run_catalog")
    cover = 1 - sum(length for _, length in uncovered) / rc_total if rc_total > 0 else 0.0
    put("trace.run_check_cover_frac", cover, "ratio")
    uncovered.sort(key=lambda gap: -gap[1])
    return m, uncovered


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def declared_metrics(trace_on):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace_on else "end_to_end"]}


def main(argv=None):
    workloads = json.loads((HERE / "workloads.json").read_text(encoding="utf-8"))["workloads"]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "hpcert" / "cli.py").is_file():
        print(f"perfbench: no program to benchmark: {SRC / 'hpcert' / 'cli.py'} is missing", file=sys.stderr)
        return 2

    env = fingerprint()
    print("env " + json.dumps(env, sort_keys=True))
    workload = workloads[args.workload]
    if args.trace:
        attempted, failed, problems, metrics, raw = trace(args.workload, workload, args.seed)
    else:
        attempted, failed, problems, metrics, raw = measure(workload, args.seed, args.seconds)
    for line in problems:
        print("problem: " + line)

    declared = declared_metrics(args.trace)
    emitted = {k: v["unit"] for k, v in metrics.items()}
    if emitted != declared:
        print(f"perfbench: metrics differ from BENCHMARK.json: {sorted(set(emitted) ^ set(declared))}", file=sys.stderr)
        return 3
    result = {"correct": failed == 0 and not problems, "attempted": attempted, "failed": failed, "metrics": metrics}
    RESULTS.mkdir(exist_ok=True)
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace, env=env, raw=raw)
    out = RESULTS / f"{args.workload}-s{args.seed}-t{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
