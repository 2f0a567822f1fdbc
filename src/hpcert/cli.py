"""The `verify` command line: run the catalog, emit a text or JSON report.

Report goes to stdout, diagnostics to stderr.  Exit codes: 0 all selected
checks passed, 1 at least one failed, 2 usage error, 3 internal error
(nonconvergence and friends).  A stdout closed by its reader, as in
``verify --list | head -1``, ends the `verify` command quietly by SIGPIPE,
as it ends a C tool: no message, and no exit code of its own.

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
from dataclasses import dataclass, field

from mpmath import nstr

from . import __version__
from .errors import VerificationError
from .identities import catalog, precision_floor, run_catalog
from .numeric import Precision

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3

EPOCH_TIMESTAMP = "1970-01-01T00:00:00Z"
MAX_PRECISION_BITS = 2048  # the widest run the catalog is tested at (a `slow` test)


class _UsageError(Exception):
    pass


@dataclass
class Report:
    tool_version: str
    precision_bits: int
    started_at: str
    checks: list = field(default_factory=list)

    @property
    def passed_count(self):
        return sum(1 for r in self.checks if r.passed)

    @property
    def failed_count(self):
        return len(self.checks) - self.passed_count


def _selected(pattern):
    checks = [c for c in catalog() if fnmatch.fnmatchcase(c.id, pattern)]
    if not checks:
        raise _UsageError(f"filter {pattern!r} matches no checks")
    return checks


def build_report(precision_bits, filter, tolerance_exponent, jobs, no_timestamp):
    """Run the checks whose ids match the glob `filter` and assemble the report."""
    checks = _selected(filter)
    floor = precision_floor(checks, tolerance_exponent)
    if floor > MAX_PRECISION_BITS:
        raise _UsageError(
            f"no accepted precision (at most {MAX_PRECISION_BITS} bits) meets 10^{tolerance_exponent}:"
            f" its tolerance floor is {floor} bits"
        )
    if precision_bits < floor:
        raise _UsageError(f"precision {precision_bits} bits is below {floor}, the tolerance floor")
    if precision_bits > MAX_PRECISION_BITS:
        raise _UsageError(
            f"precision {precision_bits} bits is above {MAX_PRECISION_BITS}, the largest the catalog is tested at"
        )
    started = EPOCH_TIMESTAMP if no_timestamp else time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    results = run_catalog(
        Precision(precision_bits),
        ids=[c.id for c in checks],
        jobs=jobs,
        tolerance_exponent_override=tolerance_exponent,
    )
    return Report(tool_version=__version__, precision_bits=precision_bits, started_at=started, checks=results)


def render_json(report, no_timestamp=False):
    """UTF-8 JSON bytes with a fixed key order and decimal-string numerics."""
    digits = Precision(report.precision_bits).decimal_digits
    checks = []
    for r in report.checks:
        checks.append(
            {
                "id": r.id,
                "description": r.description,
                "paper_ref": r.ref,
                "lhs": nstr(r.lhs_value, digits),
                "rhs": nstr(r.rhs_value, digits),
                "abs_error": nstr(r.abs_error, digits),
                "tolerance": nstr(r.tolerance, digits),
                "passed": r.passed,
                "evaluations": r.evaluations,
                "elapsed_ms": 0 if no_timestamp else r.elapsed_ms,
            }
        )
    doc = {
        "tool_version": report.tool_version,
        "precision_bits": report.precision_bits,
        "started_at": report.started_at,
        "checks": checks,
        "passed_count": report.passed_count,
        "failed_count": report.failed_count,
    }
    return (json.dumps(doc, indent=2) + "\n").encode("utf-8")


def render_text(report, no_timestamp=False):
    lines = [
        f"identity verification @ {report.precision_bits} bits"
        + ("" if no_timestamp else f"  ({report.started_at})")
    ]
    width = max((len(r.id) for r in report.checks), default=0)
    for r in report.checks:
        status = "PASS" if r.passed else "FAIL"
        err = nstr(r.abs_error, 3)
        tol = nstr(r.tolerance, 3)
        ms = "     -" if no_timestamp else f"{r.elapsed_ms:6d}"
        lines.append(
            f"{status}  {r.id:<{width}}  err={err:<12} tol={tol:<12} "
            f"evals={r.evaluations:<7d} ms={ms}  [{r.ref}]"
        )
    lines.append(f"{report.passed_count} passed, {report.failed_count} failed")
    return "\n".join(lines) + "\n"


def _positive_bits(text):
    try:
        return Precision(int(text)).bits
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _positive_int(text):
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer")
    if n < 1:
        raise argparse.ArgumentTypeError("value must be >= 1")
    return n


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _build_parser():
    parser = _Parser(
        prog="verify",
        description="Recompute every identity in the catalog and certify it "
        "against its closed form.",
    )
    parser.add_argument("--precision-bits", type=_positive_bits, default=256, metavar="N")
    parser.add_argument("--filter", default="*", metavar="GLOB", help="glob over check ids")
    parser.add_argument("--format", choices=("text", "json"), default="text")
    parser.add_argument(
        "--tolerance-exponent",
        type=int,
        default=None,
        metavar="E",
        help="override every tolerance with 10^E",
    )
    parser.add_argument("--jobs", type=_positive_int, default=1, metavar="K")
    parser.add_argument("--list", action="store_true", dest="list_only")
    parser.add_argument("--no-timestamp", action="store_true")
    return parser


def main(argv=None):
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"verify: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SystemExit as exc:  # argparse --help
        return int(exc.code or 0)

    try:
        if ns.list_only:
            for c in _selected(ns.filter):
                print(f"{c.id:<24} {c.ref:<22} {c.description}")
            return EXIT_OK
        report = build_report(ns.precision_bits, ns.filter, ns.tolerance_exponent, ns.jobs, ns.no_timestamp)
    except _UsageError as exc:
        print(f"verify: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except VerificationError as exc:
        print(f"verify: internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except Exception as exc:  # defensive: anything else is still "internal"
        print(f"verify: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL

    if ns.format == "json":
        sys.stdout.buffer.write(render_json(report, no_timestamp=ns.no_timestamp))
        sys.stdout.buffer.flush()
    else:
        sys.stdout.write(render_text(report, no_timestamp=ns.no_timestamp))
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
