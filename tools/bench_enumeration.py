"""Time the lemma-free enumeration and the oracle that walks it, and write
BENCH_enumeration.json at the root of the checkout.

    python3 tools/bench_enumeration.py

The racks are the full conjugation racks of the groups in
`catalog.CENTRAL_CATALOG`, whose lattices `product-decomposition` walks
whole, and the factors L(R - T) of every spec of perfbench's `lattice`
workload, enumerated inside top = R - T on R itself, the call
`enumerate_subracks` makes for the factor of its product.  A group row times
what `racklab verify` runs for the group:
`product_decomposition_check(build_group(name))`.  A factor row times
`_lindig_subracks`.  Each is timed in process, min of 3 runs.  Next to the
time go the work counters of the lemma-free enumeration of the row's rack
(on a group row, the walk the oracle checks), which do not depend on the
machine: nodes, covers, closure calls and stopped closures (from one more,
counted run) and sorted rows, the rows that took a cover from a closure and
not only from T = `rack.trivial_part`.  A stopped closure is a call whose
result meets its `stop` argument: the walk's closure halted at the first
element that ruled out a cover, and the set was rejected.  Each row also
records its size |top|, t = |T| and the node count of the full lattice,
n' * 2^t on a factor row: the nodes `racklab lattice` reads its statistics
off without building them.
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
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import jobs  # noqa: E402  perfbench's job lists
from racklab import groups, lattice, racks  # noqa: E402
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


def workload() -> list[tuple[str, str, racks.Rack]]:
    """(name, kind, full rack) of every row, in order."""
    out = [(spec, "group", racks.rack_from_spec(spec)) for spec in CENTRAL_CATALOG]
    for spec, max_order in lattice_workload_specs():
        kwargs = {} if max_order is None else {"max_order": max_order}
        out.append((spec, "factor", racks.rack_from_spec(spec, **kwargs)))
    return out


def top_of(kind: str, full: racks.Rack) -> int:
    """The subrack a row enumerates inside: all of R, or R - T."""
    return full.full_mask() & ~(full.trivial_part if kind == "factor" else 0)


def counters(name: str, kind: str, full: racks.Rack) -> dict:
    """Every field of a row but its time, from one counted run."""
    top = top_of(kind, full)
    closure, calls, stopped = racks.Rack.closure, 0, 0

    def counting(self, seed, closed=0, stop=0):
        nonlocal calls, stopped
        calls += 1
        result = closure(self, seed, closed, stop)
        stopped += bool(result & stop)
        return result

    racks.Rack.closure = counting
    try:
        L = lattice._lindig_subracks(full, lattice.DEFAULT_NODE_BUDGET, top)
    finally:
        racks.Rack.closure = closure
    t = full.trivial_part.bit_count()
    outside = full.full_mask() & ~full.trivial_part
    sorted_rows = outside and sum(
        any((L.sets[p] ^ s) & outside for p in L.parents(v)) for v, s in enumerate(L.sets)
    )
    return {
        "rack": name, "kind": kind, "size": top.bit_count(), "trivial": t,
        "nodes": L.n, "full_nodes": L.n << t if kind == "factor" else L.n,
        "covers": L.edge_count(), "closure_calls": calls, "stopped_closures": stopped,
        "sorted_rows": sorted_rows,
    }


def measure(name: str, kind: str, full: racks.Rack) -> dict:
    """The row of `full` itself (kind "group") or of its factor ("factor")."""
    row = counters(name, kind, full)
    top = top_of(kind, full)
    best = float("inf")
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        if kind == "group":
            lattice.product_decomposition_check(groups.build_group(name))
        else:
            lattice._lindig_subracks(full, lattice.DEFAULT_NODE_BUDGET, top)
        best = min(best, time.perf_counter() - t0)
    row["seconds"] = round(best, 6)
    return row


def main() -> int:
    rows = [measure(*row) for row in workload()]
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
              f"closures {r['closure_calls']:6d} stopped {r['stopped_closures']:6d} "
              f"sorted {r['sorted_rows']:6d} {r['seconds']:.4f} s")
    print(f"group racks {totals['group']:.3f} s, factor racks {totals['factor']:.3f} s -> {path.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
