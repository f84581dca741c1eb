"""Time the shared warm-up and each check of `racklab verify --all`, and
write BENCH_verify.json at the root of the checkout.

    python3 tools/bench_verify.py

The top-level `warm_up` field records the work the catalog checks share:
`catalog.analyze_group(spec, VerifyConfig().node_budget)` over every
`CATALOG` spec from a cleared cache, min of 3 runs, next to the number of
`groups` it analyzes.  The budget is passed positionally, as the checks pass
it, since `lru_cache` keys `analyze_group("S3")` apart from
`analyze_group("S3", DEFAULT_NODE_BUDGET)`.

Each row under `checks` then records a check's time in process on the warm
cache, min of 3 runs of `verify.CHECKS[id](VerifyConfig())`, so a catalog
check's time is its own work.  Next to the time go fields that do not
depend on the machine, which the runner and the oracle add to
`racklab.work.ledger` during one more run:

- `instances`: the specs the check runs on;
- `status`: pass, fail or skipped;
- on `product-decomposition` only, `walks`: the calls of the lemma-free
  oracle `product_decomposition_check` (one per distinct rack table and
  center), and `nodes`: the full-lattice nodes those walks visit.

`tests/test_bench_files.py` recomputes every field but the times with
`warm_up_counters` and `counters` and compares them with the committed file.
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


def warm_up_counters() -> dict:
    """Every field of the warm-up but its time."""
    return {"groups": len(catalog.CATALOG)}


def warm_up() -> None:
    """`analyze_group` on every `CATALOG` spec, from a cleared cache."""
    catalog.analyze_group.cache_clear()
    for spec in catalog.CATALOG:
        catalog.analyze_group(spec, VerifyConfig().node_budget)


def main() -> int:
    warm = benchkit.timed(warm_up_counters(), warm_up)
    rows = [benchkit.timed(counters(cid), lambda: verify.CHECKS[cid](VerifyConfig()))
            for cid in sorted(verify.CHECKS)]
    print(f"warm-up over {warm['groups']} groups {warm['seconds']:.4f} s")
    for r in rows:
        walks = f"  walks {r['walks']:3d} nodes {r['nodes']:>7,d}" if "walks" in r else ""
        print(f"{r['check']:22s} {r['status']:4s} instances {r['instances']:3d} "
              f"{r['seconds']:.4f} s{walks}")
    totals = {"warm_up": warm["seconds"], "checks": round(sum(r["seconds"] for r in rows), 6)}
    benchkit.write("verify", "checks", rows, totals, warm_up=warm)
    return 0


if __name__ == "__main__":
    sys.exit(main())
