"""Time each check of `racklab verify --all` and write BENCH_verify.json at
the root of the checkout.

    python3 tools/bench_verify.py

Each row records a check's time in process, min of 3 runs of
`verify.CHECKS[id](VerifyConfig())`, with the `catalog.analyze_group` cache
cleared before each run so that every run starts cold, as a fresh
`racklab verify --all` does for its first group check.  Next to the time go
fields that do not depend on the machine, read off one more run:

- `instances`: the specs the check runs on;
- `status`: pass, fail or skipped;
- on `product-decomposition` only, `walks`: the calls of the lemma-free
  oracle `product_decomposition_check` (one per distinct rack table and
  center), and `nodes`: the full-lattice nodes those walks visit, summed from
  the oracle's reports.

`tests/test_bench_files.py` recomputes every field but the times with
`counters` and compares them with the committed file.
"""

from __future__ import annotations

import json
import platform
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src")]

from racklab import catalog, verify  # noqa: E402
from racklab.verify import VerifyConfig  # noqa: E402

REPEATS = 3


def counters(check_id: str) -> dict:
    """Every field of a row but its time, from one run of the check."""
    row: dict = {"check": check_id}
    run_check, oracle = verify._run_check, verify.product_decomposition_check

    def recording(cid, source, claim, instances, cfg, body):
        def counted(specs, cfg):
            row["instances"] = len(specs)
            return body(specs, cfg)

        return run_check(cid, source, claim, instances, cfg, counted)

    def walking(G, *args, **kwargs):
        report = oracle(G, *args, **kwargs)
        row["walks"] = row.get("walks", 0) + 1
        row["nodes"] = row.get("nodes", 0) + report.nodes
        return report

    verify._run_check, verify.product_decomposition_check = recording, walking
    try:
        row["status"] = verify.CHECKS[check_id](VerifyConfig()).status
    finally:
        verify._run_check, verify.product_decomposition_check = run_check, oracle
    return row


def measure(check_id: str) -> dict:
    row = counters(check_id)
    best = float("inf")
    for _ in range(REPEATS):
        catalog.analyze_group.cache_clear()
        t0 = time.perf_counter()
        verify.CHECKS[check_id](VerifyConfig())
        best = min(best, time.perf_counter() - t0)
    row["seconds"] = round(best, 6)
    return row


def main() -> int:
    rows = [measure(cid) for cid in sorted(verify.CHECKS)]
    report = {
        "benchmark": "verify",
        "python": platform.python_version(),
        "machine": platform.machine(),
        "repeats": REPEATS,
        "seconds": round(sum(r["seconds"] for r in rows), 6),
        "checks": rows,
    }
    path = ROOT / "BENCH_verify.json"
    path.write_text(json.dumps(report, indent=2) + "\n")
    for r in rows:
        walks = f"  walks {r['walks']:3d} nodes {r['nodes']:>7,d}" if "walks" in r else ""
        print(f"{r['check']:22s} {r['status']:4s} instances {r['instances']:3d} "
              f"{r['seconds']:.4f} s{walks}")
    print(f"total {report['seconds']:.3f} s -> {path.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
