"""Compare benchmark results of two commits, workload by workload.

    python3 perfbench/compare.py BASE.json ... -- NEW.json ...

Each side is a set of result files that ``run.py`` wrote to ``.benchmarks/``
(one per run; keep the parent's in another directory).  For every workload
and metric it prints each side's median and quartiles, the change of the
medians and, for end-to-end metrics, the verdict against the bound in
BENCHMARK.json:

- ``worse``: the new median is worse than the base median by more than the bound;
- ``unresolved``: the base's own spread (quartile distance over median) is wider
  than the bound, and not every new run beats every base run;
- ``ok`` otherwise.

Results taken on different mpmath backends or core counts measure different
machines, so the comparison refuses them (exit 2).  Exit 1 if any metric is
``worse``.
"""

import json
import statistics
import sys
from pathlib import Path

from run import tail

STRICT = ("mpmath_backend", "nproc")
NOTED = ("python", "mpmath", "numpy")


def load(paths):
    return [json.loads(Path(p).read_text(encoding="utf-8")) for p in paths]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def verdict(base, new, bound, better):
    sign = 1 if better == "lower" else -1
    q1, med, q3 = quartiles(base)
    change = (statistics.median(new) - med) / med
    if sign * change > bound:
        return "worse"
    beats = all(sign * (n - b) < 0 for n in new for b in base)
    if (q3 - q1) / med > bound and not beats:
        return "unresolved"
    return "ok"


def main(argv):
    if "--" not in argv:
        raise SystemExit(__doc__)
    cut = argv.index("--")
    base, new = load(argv[:cut]), load(argv[cut + 1 :])
    if not base or not new:
        raise SystemExit("compare: each side needs at least one result file")
    for key in STRICT:
        seen = {r["env"][key] for r in base + new}
        if len(seen) > 1:
            print(f"compare: refusing to compare results with different {key}: {sorted(map(str, seen))}", file=sys.stderr)
            return 2
    for key in NOTED:
        seen = {r["env"][key] for r in base + new}
        if len(seen) > 1:
            print(f"note: results differ in {key}: {sorted(seen)}")

    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounded = {m["name"]: m for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    worse = False
    for workload in sorted({r["workload"] for r in base} & {r["workload"] for r in new}):
        for trace in (0, 1):
            b = [r for r in base if r["workload"] == workload and r["trace"] == trace]
            n = [r for r in new if r["workload"] == workload and r["trace"] == trace]
            if not b or not n:
                continue
            print(f"== {workload} (trace {trace}): {len(b)} base runs, {len(n)} new runs")
            for name in b[0]["metrics"]:
                bv = [r["metrics"][name]["value"] for r in b]
                nv = [r["metrics"][name]["value"] for r in n if name in r["metrics"]]
                if not nv:
                    continue
                bq, nq = quartiles(bv), quartiles(nv)
                change = (nq[1] - bq[1]) / bq[1] if bq[1] else float("nan")
                line = (
                    f"{name:<48} base {bq[1]:.6g} [{bq[0]:.6g}, {bq[2]:.6g}]"
                    f"  new {nq[1]:.6g} [{nq[0]:.6g}, {nq[2]:.6g}]  {change:+.2%}"
                )
                if name in bounded:
                    v = verdict(bv, nv, bounded[name]["bound"], better[name])
                    worse |= v == "worse"
                    line += f"  bound {bounded[name]['bound']:.0%}: {v}"
                    for side, runs in (("base", b), ("new", n)):
                        pooled = [x for r in runs for x in r["raw"].get("scaled", {}).get(name, [])]
                        t = tail(pooled)
                        if t:
                            line += f"  {side} p{t[0]:.0f}={t[1]:.6g} (n={len(pooled)})"
                print(line)
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
