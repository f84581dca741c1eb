"""Time the lemma-free enumeration and the oracle that walks it, and write
BENCH_enumeration.json at the root of the checkout.

    python3 tools/bench_enumeration.py

The racks are the full conjugation racks of the groups in
`catalog.CENTRAL_CATALOG`, whose lattices `product-decomposition` walks
whole, and the factors L(R - T) of every spec of perfbench's `lattice`
workload, enumerated inside top = R - T on R itself, the call
`enumerate_subracks` makes for the factor of its product.  A group row times
what `racklab verify` runs for the group: `build_group(name)`, its rack
and center, and `product_decomposition_check` on them.  A factor row times
`_lindig_subracks`.  Each is timed in process, min of 3 runs.  Next to the
time go the work counters of the lemma-free enumeration of the row's rack
(on a group row, the walk the oracle checks), which do not depend on the
machine: nodes, covers, closure calls, stopped closures and first-step
rejects.  They come from what one more run of the walk, `_lindig_walk`,
adds to `racklab.work.ledger`, without building the lattice.  Rows whose
racks have equal tables and equal tops, such as the five order-16 abelian
groups, share one counted run, as `product-decomposition` shares one walk.
A first-step reject is an outside element the walk rejected on the first
closure step, read off the node's packed image, with no closure call; a
stopped closure is a call that halted at the first round that ruled out a
cover, so the set was rejected.  Each row also records its size |top|,
t = |T| and the node count of the full lattice, n' * 2^t on a factor row:
the nodes `racklab lattice` reads its statistics off without building them.
`tests/test_bench_files.py` recomputes every field but the times with
`counters` and compares them with the committed file.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import benchkit  # noqa: E402  puts src and perfbench on the path
import jobs  # noqa: E402  perfbench's job lists
from racklab import groups, lattice, racks  # noqa: E402
from racklab.catalog import CENTRAL_CATALOG  # noqa: E402
from racklab.work import ledger  # noqa: E402


def workload() -> list[tuple[str, str, racks.Rack]]:
    """(name, kind, full rack) of every row, in order: the groups, then
    every alternate of every `lattice` job."""
    out = [(spec, "group", racks.rack_from_spec(spec)) for spec in CENTRAL_CATALOG]
    for slot in jobs.WORKLOADS["lattice"]:
        out += [(argv[1], "factor", benchkit.rack_of(argv)) for argv in slot]
    return out


def top_of(kind: str, full: racks.Rack) -> int:
    """The subrack a row enumerates inside: all of R, or R - T."""
    return full.full_mask() & ~(full.trivial_part if kind == "factor" else 0)


# counted walks by (rack table, top): racks with equal tables walk alike
WALKS: dict[tuple, tuple[int, int, int, int, int]] = {}


def counted_walk(full: racks.Rack, top: int) -> tuple[int, int, int, int, int]:
    """(nodes, covers, closure calls, stopped closures, first-step rejects)
    of one run of `_lindig_walk` of `full` inside `top`.  The walk reads the
    rack only through its tables, so it runs once per distinct
    (`full.op`, top)."""
    key = (full.op, top)
    if key not in WALKS:
        ledger.clear()
        for _ in lattice._lindig_walk(full, lattice.DEFAULT_NODE_BUDGET, top):
            pass
        WALKS[key] = (ledger["nodes"], ledger["covers"], ledger["closures"],
                      ledger["stopped_closures"], ledger["first_step_rejects"])
    return WALKS[key]


def counters(name: str, kind: str, full: racks.Rack) -> dict:
    """Every field of a row but its time, the walk's from `counted_walk`."""
    top = top_of(kind, full)
    nodes, covers, calls, stopped, first = counted_walk(full, top)
    t = full.trivial_part.bit_count()
    return {
        "rack": name, "kind": kind, "size": top.bit_count(), "trivial": t,
        "nodes": nodes, "full_nodes": nodes << t if kind == "factor" else nodes,
        "covers": covers, "closure_calls": calls, "stopped_closures": stopped,
        "first_step_rejects": first,
    }


def measure(name: str, kind: str, full: racks.Rack) -> dict:
    """The row of `full` itself (kind "group") or of its factor ("factor")."""
    top = top_of(kind, full)

    def run():
        if kind == "group":
            G = groups.build_group(name)
            lattice.product_decomposition_check(
                racks.conjugation_rack(G), groups.conjugacy_classes(G).center
            )
        else:
            lattice._lindig_subracks(full, lattice.DEFAULT_NODE_BUDGET, top)

    return benchkit.timed(counters(name, kind, full), run)


def main() -> int:
    rows = [measure(*row) for row in workload()]
    for r in rows:
        print(f"{r['kind']:6s} {r['rack']:22s} nodes {r['nodes']:6d} of {r['full_nodes']:6d} "
              f"covers {r['covers']:7d} "
              f"closures {r['closure_calls']:6d} stopped {r['stopped_closures']:6d} "
              f"first-step {r['first_step_rejects']:6d} "
              f"{r['seconds']:.4f} s")
    totals = {
        kind: round(sum(r["seconds"] for r in rows if r["kind"] == kind), 6)
        for kind in ("group", "factor")
    }
    benchkit.write("enumeration", "racks", rows, totals)
    return 0


if __name__ == "__main__":
    sys.exit(main())
