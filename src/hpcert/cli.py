"""The `verify` command line: run the catalog, emit a text or JSON report.

Report goes to stdout, diagnostics to stderr.  Exit codes: 0 all selected
checks passed, 1 at least one failed, 2 usage error (argparse prints its
usage line and the message, for a bad option or value and for a filter or
precision the catalog refuses alike), 3 internal error.  Exit 3 comes
either with no report, the error's type and message on stderr, or with the
full report, in which each check that could not be computed (a
nonconvergence, a non-finite value) prints ERROR and counts as failed.  A
stdout closed by its reader, as in ``verify --list | head -1``, ends the
`verify` command quietly by SIGPIPE, as it ends a C tool: no message, and
no exit code of its own.

JSON serializes every numeric value as a decimal string carrying as many
digits as the working precision -- rounding through binary floats would
throw away exactly the digits this tool exists to certify.
"""

import argparse
import fnmatch
import gc
import json
import signal
import sys
import time
from dataclasses import dataclass, field, replace

from mpmath import nstr

from . import __version__
from .identities import CATALOG, Tol, precision_refusal, run_catalog
from .numeric import Precision

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3

EPOCH_TIMESTAMP = "1970-01-01T00:00:00Z"


@dataclass
class Report:
    precision_bits: int
    started_at: str | None  # None: untimed, rendered with the epoch and no elapsed times
    checks: list = field(default_factory=list)

    @property
    def passed_count(self):
        return sum(1 for r in self.checks if r.passed)

    @property
    def failed_count(self):
        return len(self.checks) - self.passed_count


def build_report(precision_bits, checks, jobs, no_timestamp):
    """Run `checks` and assemble the report; untimed with `no_timestamp`."""
    started = None if no_timestamp else time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    results = run_catalog(Precision(precision_bits), checks, jobs=jobs)
    return Report(precision_bits=precision_bits, started_at=started, checks=results)


def render_json(report):
    """UTF-8 JSON bytes with a fixed key order and decimal-string numerics."""
    untimed = report.started_at is None
    digits = Precision(report.precision_bits).decimal_digits

    def number(v):  # a check that could not be computed has no values
        return None if v is None else nstr(v, digits)

    checks = []
    for r in report.checks:
        checks.append(
            {
                "id": r.id,
                "description": r.description,
                "paper_ref": r.ref,
                "lhs": number(r.lhs_value),
                "rhs": number(r.rhs_value),
                "abs_error": number(r.abs_error),
                "tolerance": number(r.tolerance),
                "passed": r.passed,
                "evaluations": r.evaluations,
                "elapsed_ms": 0 if untimed else r.elapsed_ms,
            }
        )
        if r.error is not None:
            checks[-1]["error"] = r.error
    doc = {
        "tool_version": __version__,
        "precision_bits": report.precision_bits,
        "started_at": EPOCH_TIMESTAMP if untimed else report.started_at,
        "checks": checks,
        "passed_count": report.passed_count,
        "failed_count": report.failed_count,
    }
    return (json.dumps(doc, indent=2) + "\n").encode("utf-8")


def render_text(report):
    untimed = report.started_at is None
    lines = [f"identity verification @ {report.precision_bits} bits" + ("" if untimed else f"  ({report.started_at})")]
    width = max((len(r.id) for r in report.checks), default=0)
    for r in report.checks:
        if r.error is not None:
            lines.append(f"ERROR {r.id:<{width}}  {r.error}  [{r.ref}]")
            continue
        status = "PASS" if r.passed else "FAIL"
        err = nstr(r.abs_error, 3)
        tol = nstr(r.tolerance, 3)
        ms = "     -" if untimed else f"{r.elapsed_ms:6d}"
        lines.append(
            f"{status}  {r.id:<{width}}  err={err:<12} tol={tol:<12} "
            f"evals={r.evaluations:<7d} ms={ms}  [{r.ref}]"
        )
    lines.append(f"{report.passed_count} passed, {report.failed_count} failed")
    return "\n".join(lines) + "\n"


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="verify",
        description="Recompute every identity in the catalog and certify it "
        "against its closed form.",
    )
    parser.add_argument("--precision-bits", type=int, default=256, metavar="N")
    parser.add_argument("--filter", default="*", metavar="GLOB", help="glob over check ids")
    parser.add_argument("--format", choices=("text", "json"), default="text")
    parser.add_argument(
        "--tolerance-exponent",
        type=int,
        default=None,
        metavar="E",
        help="override every tolerance with 10^E",
    )
    parser.add_argument("--jobs", type=int, default=1, metavar="K")
    parser.add_argument("--list", action="store_true", dest="list_only")
    parser.add_argument("--no-timestamp", action="store_true")
    return parser


def main(argv=None):
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
        checks = [c for c in CATALOG if fnmatch.fnmatchcase(c.id, ns.filter)]
        if ns.jobs < 1:
            parser.error("argument --jobs: value must be >= 1")
        try:
            Precision(ns.precision_bits)
        except ValueError as exc:
            parser.error(f"argument --precision-bits: {exc}")
        if not checks:
            parser.error(f"filter {ns.filter!r} matches no checks")
        if ns.tolerance_exponent is not None:  # the override is each selected check's own policy
            checks = [replace(c, tolerance_policy=Tol(ns.tolerance_exponent)) for c in checks]
        refusal = None if ns.list_only else precision_refusal(checks, ns.precision_bits)
        if refusal:
            parser.error(refusal)
    except SystemExit as exc:  # argparse's --help (0) and every usage error (2)
        return int(exc.code or 0)

    if ns.list_only:
        for c in checks:
            print(f"{c.id:<24} {c.ref:<22} {c.description}")
        return EXIT_OK
    try:
        report = build_report(ns.precision_bits, checks, ns.jobs, ns.no_timestamp)
    except Exception as exc:  # no report: an error outside any one check's computation
        print(f"verify: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL

    if ns.format == "json":
        sys.stdout.buffer.write(render_json(report))
        sys.stdout.buffer.flush()
    else:
        sys.stdout.write(render_text(report))
    if any(r.error is not None for r in report.checks):
        return EXIT_INTERNAL
    return EXIT_OK if report.failed_count == 0 else EXIT_CHECK_FAILED


def app():
    if hasattr(signal, "SIGPIPE"):  # Python ignores it, so a closed stdout would raise
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    code = main()
    # the caches live until exit; frozen, they spare the final collection a walk over them
    gc.freeze()
    raise SystemExit(code)


if __name__ == "__main__":
    app()
