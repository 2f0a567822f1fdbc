"""Run the whole identity catalog programmatically and summarize.

The same run is available from the command line:

    verify --precision-bits 256 --format text
    verify --filter 'app1*' --format json
"""

import time

from mpmath import nstr

from hpcert import CATALOG, Precision, run_catalog

print(f"{len(CATALOG)} checks in the catalog:\n")
for c in CATALOG:
    print(f"  {c.id:<24} [{c.ref}]")

p = Precision(256)
print("\nRunning everything at 256 bits...")
t0 = time.perf_counter()
results = run_catalog(p)
elapsed = time.perf_counter() - t0

width = max(len(r.id) for r in results)
for r in results:
    status = "PASS" if r.passed else "FAIL"
    print(f"  {status}  {r.id:<{width}}  |error| = {nstr(r.abs_error, 3)}")

passed = sum(r.passed for r in results)
print(f"\n{passed}/{len(results)} passed in {elapsed:.2f}s")
print("worst absolute error:",
      nstr(max(r.abs_error for r in results), 3))
