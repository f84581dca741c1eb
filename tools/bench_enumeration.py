"""Time the lemma-free enumeration `lattice._lindig_subracks` on its own and
write BENCH_enumeration.json at the root of the checkout.

    python3 tools/bench_enumeration.py

The racks are the full conjugation racks of the groups in
`catalog.CENTRAL_CATALOG`, which `product-decomposition` enumerates whole,
and the factor racks R - T of every spec of perfbench's `lattice` workload,
which `enumerate_subracks` enumerates before expanding the product.  Each
rack is timed in process, min of 3 runs.  Next to the time go the work
counters, which do not depend on the machine: nodes, covers, closure calls
(from one more, counted run) and sorted rows, the rows that took a cover
from a closure and not only from T = `rack.trivial_part`.  Each row also
records t = |T| of the full rack and the node count of the full lattice,
n' * 2^t on a factor row: the nodes `racklab lattice` reads its statistics
off without building them.
"""

from __future__ import annotations

import json
import platform
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import jobs  # noqa: E402  perfbench's job lists
from racklab import lattice, racks  # noqa: E402
from racklab.catalog import CENTRAL_CATALOG  # noqa: E402

REPEATS = 3


def lattice_workload_specs() -> list[tuple[str, int | None]]:
    """(spec, max order) of every alternate of every `lattice` job."""
    out = []
    for slot in jobs.WORKLOADS["lattice"]:
        for argv in slot:
            max_order = int(argv[argv.index("--max-order") + 1]) if "--max-order" in argv else None
            out.append((argv[1], max_order))
    return out


def count_closures(rack: racks.Rack) -> int:
    closure, calls = racks.Rack.closure, 0

    def counting(self, *args):
        nonlocal calls
        calls += 1
        return closure(self, *args)

    racks.Rack.closure = counting
    try:
        lattice._lindig_subracks(rack, lattice.DEFAULT_NODE_BUDGET)
    finally:
        racks.Rack.closure = closure
    return calls


def measure(name: str, kind: str, full: racks.Rack) -> dict:
    """Enumerate `full` itself (kind "group") or its factor R - T ("factor")."""
    t = full.trivial_part.bit_count()
    rack = full.restrict(full.full_mask() & ~full.trivial_part) if kind == "factor" else full
    best = float("inf")
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        L = lattice._lindig_subracks(rack, lattice.DEFAULT_NODE_BUDGET)
        best = min(best, time.perf_counter() - t0)
    outside = rack.full_mask() & ~rack.trivial_part
    sorted_rows = sum(
        any((L.sets[p] ^ s) & outside for p in L.parents(v)) for v, s in enumerate(L.sets)
    )
    return {
        "rack": name, "kind": kind, "size": rack.size, "trivial": t,
        "nodes": L.n, "full_nodes": L.n << t if kind == "factor" else L.n,
        "covers": L.edge_count(), "closure_calls": count_closures(rack),
        "sorted_rows": sorted_rows, "seconds": round(best, 6),
    }


def main() -> int:
    rows = [measure(spec, "group", racks.rack_from_spec(spec)) for spec in CENTRAL_CATALOG]
    for spec, max_order in lattice_workload_specs():
        kwargs = {} if max_order is None else {"max_order": max_order}
        rows.append(measure(spec, "factor", racks.rack_from_spec(spec, **kwargs)))
    totals = {
        kind: round(sum(r["seconds"] for r in rows if r["kind"] == kind), 6)
        for kind in ("group", "factor")
    }
    report = {
        "benchmark": "enumeration",
        "python": platform.python_version(),
        "machine": platform.machine(),
        "repeats": REPEATS,
        "seconds": totals,
        "racks": rows,
    }
    path = ROOT / "BENCH_enumeration.json"
    path.write_text(json.dumps(report, indent=2) + "\n")
    for r in rows:
        print(f"{r['kind']:6s} {r['rack']:22s} nodes {r['nodes']:6d} of {r['full_nodes']:6d} "
              f"covers {r['covers']:7d} "
              f"closures {r['closure_calls']:6d} sorted {r['sorted_rows']:6d} {r['seconds']:.4f} s")
    print(f"group racks {totals['group']:.3f} s, factor racks {totals['factor']:.3f} s -> {path.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
