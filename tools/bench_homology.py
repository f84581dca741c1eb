"""Time `racklab homology` in process and write BENCH_homology.json at the
root of the checkout.

    python3 tools/bench_homology.py

The specs are every alternate of every job of perfbench's `homology`
workload, and D8xZ3 and S3xS3, whose complexes exceed the default simplex
budget.  `racklab homology` builds the order complex of the factor
L(R - T) only and shifts its homology by t = |T|; each row records t, the
simplex counts of L(R)'s complex (what `--budget-simplices` counts, counted
here without a budget), the simplices built and those left after the
collapse (null when the budget stops the command first), the budget error or
the sphere dimension, and the time of the whole command in process, min of
3 runs.  `tests/test_bench_files.py` recomputes every field but the times
with `counters` and compares them with the committed file.
"""

from __future__ import annotations

import contextlib
import io
import json
import platform
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import jobs  # noqa: E402  perfbench's job lists
from racklab import cli, topology  # noqa: E402
from racklab.lattice import BudgetExceeded, enumerate_subracks  # noqa: E402
from racklab.racks import rack_from_spec  # noqa: E402

REPEATS = 3
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
    """Every field of a row but its time, from one run of the command."""
    spec = argv[1]
    max_order = int(argv[argv.index("--max-order") + 1]) if "--max-order" in argv else None
    kwargs = {} if max_order is None else {"max_order": max_order}
    code, out, err = run(argv)
    P, t = enumerate_subracks(rack_from_spec(spec, **kwargs)).product_form()
    counts = topology._count_simplices(P, 10**30, t)[2]
    built = collapsed = None
    try:
        K = topology.order_complex(P, topology.DEFAULT_SIMPLEX_BUDGET, t)
    except BudgetExceeded:
        pass
    else:
        built = K.size()
        collapsed = topology.collapse_complex(K).size()
    return {
        "spec": spec,
        "t": t,
        "simplex_counts": counts,
        "simplices": sum(counts),
        "built": built,
        "collapsed": collapsed,
        "exit": code,
        "error": err.strip() or None,
        "sphere_dimension": json.loads(out)["sphere_dimension"] if code == 0 else None,
    }


def measure(argv: tuple[str, ...]) -> dict:
    row = counters(argv)
    best = float("inf")
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        run(argv)
        best = min(best, time.perf_counter() - t0)
    row["seconds"] = round(best, 6)
    return row


def main() -> int:
    rows = [measure(argv) for argv in homology_argvs()]
    report = {
        "benchmark": "homology",
        "python": platform.python_version(),
        "machine": platform.machine(),
        "repeats": REPEATS,
        "simplex_budget": topology.DEFAULT_SIMPLEX_BUDGET,
        "seconds": round(sum(r["seconds"] for r in rows), 6),
        "specs": rows,
    }
    path = ROOT / "BENCH_homology.json"
    path.write_text(json.dumps(report, indent=2) + "\n")
    for r in rows:
        sphere = r["sphere_dimension"]
        outcome = r["error"] or ("not a sphere" if sphere is None else f"S^{sphere}")
        print(f"{r['spec']:18s} t={r['t']:2d} simplices {r['simplices']:>16,d} "
              f"built {r['built'] if r['built'] is not None else '-':>7} "
              f"collapsed {r['collapsed'] if r['collapsed'] is not None else '-':>6} "
              f"{r['seconds']:.4f} s  {outcome}")
    print(f"total {report['seconds']:.3f} s -> {path.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
