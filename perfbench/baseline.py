"""Check ROADMAP's baseline rows against this benchmark and write baseline.json.

    python3 perfbench/run.py --workload cat256 --seed 1 --trace 1    # and seeds 2, 3
    python3 perfbench/run.py --workload cat512 --seed 1 --trace 1    # and seeds 2, 3
    python3 perfbench/run.py --workload cat512 --seed 1 --trace 0    # any t0 runs
    python3 perfbench/baseline.py .benchmarks/*.json

For each row it takes the median over the given result files of the
matching metric, and says whether it reproduces: whether it lies within the
row's range widened by the +-20% run-to-run noise ROADMAP states.  The cold
layer probes each ran in a fresh process.  Rows without a ROADMAP value
(the constants, the remaining Gauss-Legendre orders) are recorded as measured.
"""

import json
import statistics
import sys
from pathlib import Path

from run import GL_ORDERS, HERE, fingerprint

NOISE = 0.20

# (workload, metric, ROADMAP's value or range in seconds, ROADMAP's wording)
ROWS = [
    ("cat256", "quadrature.ts_table.to_level8_s", (0.09, 0.09), "tanh-sinh table, 288 bits, level 8: 0.09 s"),
    ("cat256", "quadrature.ts_table.to_level12_s", (2.15, 2.15), "tanh-sinh table, 288 bits, level 12: 2.15 s"),
    ("cat512", "quadrature.ts_table.to_level8_s", (0.17, 0.17), "the same at 512 bits, level 8: 0.17 s"),
    ("cat512", "quadrature.ts_table.to_level12_s", (3.7, 3.7), "the same at 512 bits, level 12: 3.7 s"),
    ("cat256", "quadrature.gl_nodes.order128_s", (0.6, 0.6), "Gauss-Legendre nodes, order 128: 0.6 s"),
    ("cat256", "quadrature.gl_nodes.order256_s", (2.3, 2.3), "Gauss-Legendre nodes, order 256: 2.3 s"),
    ("cat256", "verify_s", (5.7, 6.5), "verify @256, --jobs 1: 5.7-6.5 s"),
    ("cat256-j2", "verify_s", (4.3, 5.3), "verify @256, --jobs 2: 4.3-5.3 s"),
    ("cat512", "verify_s", (17.0, 17.0), "verify @512: ~17 s"),
]
ROWS += [(w, f"quadrature.gl_nodes.order{n}_s", None, "") for w in ("cat256", "cat512") for n in GL_ORDERS if n < 128]
ROWS += [("cat512", f"quadrature.gl_nodes.order{n}_s", None, "") for n in (128, 256)]
ROWS += [(w, f"numeric.const_{c}.cold_s", None, "") for w in ("cat256", "cat512") for c in ("pi", "ln2", "catalan")]


def main(paths):
    results = [json.loads(Path(p).read_text(encoding="utf-8")) for p in paths]
    rows = []
    for workload, metric, roadmap, wording in ROWS:
        runs = [r for r in results if r["workload"] == workload and metric in r["metrics"]]
        if not runs:
            continue
        values = [r["metrics"][metric]["value"] for r in runs]
        row = {"workload": workload, "metric": metric, "measured_s": statistics.median(values), "runs": len(values)}
        # the table key / precision the probe was built at, as the catalog uses it
        at = "ts_key" if ".ts_table." in metric else "gl_bits" if ".gl_nodes." in metric else None
        if at:
            row["at_bits"] = sorted({r["raw"][at] for r in runs})
        if roadmap:
            lo, hi = roadmap
            row.update(roadmap=wording, reproduces=lo * (1 - NOISE) <= row["measured_s"] <= hi * (1 + NOISE))
        rows.append(row)
        print(f"{workload:<10} {metric:<36} {row['measured_s']:8.4f} s  {wording}  {row.get('reproduces', '')}")
    doc = {"env": fingerprint(), "rows": rows}
    (HERE / "baseline.json").write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main(sys.argv[1:])
