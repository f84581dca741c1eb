"""Time each check of `racklab verify --all` and write BENCH_verify.json at
the root of the checkout.

    python3 tools/bench_verify.py

Each row records a check's time in process, min of 3 runs of
`verify.CHECKS[id](VerifyConfig())`, with the `catalog.analyze_group` cache
cleared before each run so that every run starts cold, as a fresh
`racklab verify --all` does for its first group check.  Next to the time go
fields that do not depend on the machine, which the runner and the oracle
add to `racklab.work.ledger` during one more run:

- `instances`: the specs the check runs on;
- `status`: pass, fail or skipped;
- on `product-decomposition` only, `walks`: the calls of the lemma-free
  oracle `product_decomposition_check` (one per distinct rack table and
  center), and `nodes`: the full-lattice nodes those walks visit.

`tests/test_bench_files.py` recomputes every field but the times with
`counters` and compares them with the committed file.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import benchkit  # noqa: E402  puts src on the path
from racklab import catalog, verify  # noqa: E402
from racklab.verify import VerifyConfig  # noqa: E402
from racklab.work import ledger  # noqa: E402


def counters(check_id: str) -> dict:
    """Every field of a row but its time, from one run of the check."""
    ledger.clear()
    status = verify.CHECKS[check_id](VerifyConfig()).status
    row: dict = {"check": check_id, "instances": ledger["instances"]}
    if ledger["oracle_walks"]:
        row.update(walks=ledger["oracle_walks"], nodes=ledger["oracle_nodes"])
    row["status"] = status
    return row


def cold_run(check_id: str) -> None:
    """One run of the check, with the `analyze_group` cache cleared first."""
    catalog.analyze_group.cache_clear()
    verify.CHECKS[check_id](VerifyConfig())


def main() -> int:
    rows = [benchkit.timed(counters(cid), lambda: cold_run(cid)) for cid in sorted(verify.CHECKS)]
    for r in rows:
        walks = f"  walks {r['walks']:3d} nodes {r['nodes']:>7,d}" if "walks" in r else ""
        print(f"{r['check']:22s} {r['status']:4s} instances {r['instances']:3d} "
              f"{r['seconds']:.4f} s{walks}")
    benchkit.write("verify", "checks", rows)
    return 0


if __name__ == "__main__":
    sys.exit(main())
