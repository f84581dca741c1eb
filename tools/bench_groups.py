"""Time the group builds and the class racks built without a group, and
write BENCH_groups.json at the root of the checkout.

    python3 tools/bench_groups.py

The specs are those whose tables `tests/test_groups.py` pins in
`TABLE_DIGESTS`, in the same order.  Each row records the time of
`build_group(spec, max_order=360)` in process, min of 3 runs, next to work
counters that do not depend on the machine, which the table builders add to
`racklab.work.ledger` during one more run, summed over every table the
build makes (a product's factors and the product itself):

- `order`: the order of the group;
- `direct_products`: the products evaluated one at a time, n^2 for a table
  of order n;
- `associativity_rows`: the (a, b) rows Light's associativity test
  compares, n |generators| for a table of order n, where the generators are
  picked greedily and number at most log2 n.

The rows under `racks` are the cycle-class racks of the `lattice` and
`homology` workloads and of `racklab verify`.  Each records the time of
`rack_from_spec(spec, max_order=360)`, min of 3 runs, the rack's `size`,
and the counters of one more run:

- `direct_products`: 0, since `rack_from_spec` lists a class of cycles as
  permutations and builds no group table, and every table adds its order
  squared;
- `closures`: the `Rack.closure` calls of `validate_rack`'s greedy
  generator search, one per generator;
- `distributivity_rows`: the (a, b) rows Light's test for racks compares,
  size |generators|, against size^2 for a scan of every (a, b).

`tests/test_bench_files.py` recomputes every field but the times with
`counters` and `rack_counters` and compares them with the committed file.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import benchkit  # noqa: E402  puts src on the path
from racklab import groups, racks  # noqa: E402
from racklab.work import ledger  # noqa: E402

MAX_ORDER = 360
SPECS = (
    "Z1", "Z2", "Z3", "Z4", "Z2xZ2", "Z5", "Z6", "Z7", "Z8", "Z4xZ2", "Z2xZ2xZ2", "Z9",
    "Z3xZ3", "Z10", "Z11", "Z12", "Z6xZ2", "Z13", "Z14", "Z15", "Z16", "Z8xZ2", "Z4xZ4",
    "Z4xZ2xZ2", "Z2xZ2xZ2xZ2", "S3", "D8", "Q8", "D10", "D12", "A4", "DIC3", "D14", "D16",
    "Q16", "SD16", "S3xZ2", "S3xZ3", "D8xZ2", "Q8xZ2", "TV18", "S4", "SL(2,3)", "A5", "S5",
    "A6", "D18", "D24", "DIC5", "D8xZ3", "Q8xZ3", "S3xS3",
)
RACK_SPECS = (
    "A6:cycles(3)", "A5:cycles(5)", "S5:transpositions", "S5:cycles(4)", "S4:cycles(4)",
    "S3:transpositions", "S4:transpositions",
)


def counters(spec: str) -> dict:
    """Every field of a row but its time, from one build of `spec`."""
    ledger.clear()
    G = groups.build_group(spec, max_order=MAX_ORDER)
    fields = ("direct_products", "associativity_rows")
    return {"spec": spec, "order": G.order, **{f: ledger[f] for f in fields}}


def rack_counters(spec: str) -> dict:
    """Every field of a `racks` row but its time, from one build of `spec`."""
    ledger.clear()
    rack = racks.rack_from_spec(spec, max_order=MAX_ORDER)
    fields = ("direct_products", "closures", "distributivity_rows")
    return {"spec": spec, "size": rack.size, **{f: ledger[f] for f in fields}}


def main() -> int:
    rows = [benchkit.timed(counters(spec), lambda: groups.build_group(spec, max_order=MAX_ORDER))
            for spec in SPECS]
    rack_rows = [benchkit.timed(rack_counters(spec), lambda: racks.rack_from_spec(spec, MAX_ORDER))
                 for spec in RACK_SPECS]
    for r in rows:
        print(f"{r['spec']:12s} order {r['order']:3d} direct {r['direct_products']:>7,d} "
              f"assoc {r['associativity_rows']:>6,d} rows  {r['seconds']:.4f} s")
    for r in rack_rows:
        print(f"{r['spec']:20s} size {r['size']:3d} direct {r['direct_products']} "
              f"closures {r['closures']} distrib {r['distributivity_rows']:>4,d} rows  "
              f"{r['seconds']:.4f} s")
    totals = {"groups": round(sum(r["seconds"] for r in rows), 6),
              "racks": round(sum(r["seconds"] for r in rack_rows), 6)}
    benchkit.write("groups", "specs", rows, totals, max_order=MAX_ORDER, racks=rack_rows)
    return 0


if __name__ == "__main__":
    sys.exit(main())
