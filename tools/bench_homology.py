"""Time `racklab homology` in process and write BENCH_homology.json at the
root of the checkout.

    python3 tools/bench_homology.py

The specs are every alternate of every job of perfbench's `homology`
workload, and D8xZ3 and S3xS3, whose complexes exceed the default simplex
budget.  `racklab homology` builds the order complex of the factor
L(R - T) only and shifts its homology by t = |T|; each row records t, the
simplex counts of L(R)'s complex (what `--budget-simplices` counts, counted
here without a budget from the factor that `enumerate_subracks` returns),
the simplices built (the factor's chains, which `order_complex` does not
list and `OrderComplex.simplices` lists on a first read: 0 when only the
collapsed core is read), the simplices and vertices left after the strong
collapse, and the unit and non-unit pivots of the column reduction (null
when the budget stops the command first), which `order_complex`, the first
read of `simplices`, `collapse_complex` and the reduction add to
`racklab.work.ledger` during one run of the command, the budget error or the sphere dimension of that
run, and the time of the whole command in process, min of 3 runs.
`tests/test_bench_files.py` recomputes every field but the times with
`counters` and compares them with the committed file.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import benchkit  # noqa: E402  puts src and perfbench on the path
import jobs  # noqa: E402  perfbench's job lists
from racklab import cli, topology  # noqa: E402
from racklab.lattice import enumerate_subracks  # noqa: E402
from racklab.work import ledger  # noqa: E402

EXTRA = (("homology", "D8xZ3"), ("homology", "S3xS3"))


def homology_argvs() -> list[tuple[str, ...]]:
    """Every alternate of every `homology` job, then the extra specs."""
    return [argv for slot in jobs.WORKLOADS["homology"] for argv in slot] + list(EXTRA)


def run(argv: tuple[str, ...]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def counters(argv: tuple[str, ...]) -> dict:
    """Every field of a row but its time, from one run of the command and
    the factor P and shift t of its lattice, from which L(R)'s simplex
    counts are counted without a budget.  The complex's sizes are null when
    the budget stops the command before `order_complex` builds it; an empty
    complex is not collapsed, so its collapse leaves 0."""
    P, t = enumerate_subracks(benchkit.rack_of(argv)).product_form()
    counts = list(topology.order_complex(P, 10**30, t).full_counts)
    ledger.clear()
    code, out, err = run(argv)
    built = ledger["order_complexes"] > 0
    return {
        "spec": argv[1],
        "t": t,
        "simplex_counts": counts,
        "simplices": sum(counts),
        "built": ledger["simplices_built"] if built else None,
        "collapsed": ledger["simplices_collapsed"] if built else None,
        "core_vertices": ledger["core_vertices"] if built else None,
        "unit_pivots": ledger["unit_pivots"] if built else None,
        "nonunit_pivots": ledger["nonunit_pivots"] if built else None,
        "exit": code,
        "error": err.strip() or None,
        "sphere_dimension": json.loads(out)["sphere_dimension"] if code == 0 else None,
    }


def main() -> int:
    rows = [benchkit.timed(counters(argv), lambda: run(argv)) for argv in homology_argvs()]
    for r in rows:
        sphere = r["sphere_dimension"]
        outcome = r["error"] or ("not a sphere" if sphere is None else f"S^{sphere}")
        cell = {k: "-" if v is None else str(v) for k, v in r.items()}
        print(f"{r['spec']:18s} t={r['t']:2d} simplices {r['simplices']:>16,d} "
              f"built {cell['built']:>7} collapsed {cell['collapsed']:>6} "
              f"core {cell['core_vertices']:>4} "
              f"pivots {cell['unit_pivots']:>4}/{cell['nonunit_pivots']} "
              f"{r['seconds']:.4f} s  {outcome}")
    benchkit.write("homology", "specs", rows, simplex_budget=topology.DEFAULT_SIMPLEX_BUDGET)
    return 0


if __name__ == "__main__":
    sys.exit(main())
