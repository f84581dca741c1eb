"""Time `racklab homology` in process and write BENCH_homology.json at the
root of the checkout.

    python3 tools/bench_homology.py

The specs are every alternate of every job of perfbench's `homology`
workload, and D8xZ3 and S3xS3, whose complexes exceed the default simplex
budget.  `racklab homology` builds the order complex of the factor
L(R - T) only and shifts its homology by t = |T|; each row records t, the
simplex counts of L(R)'s complex (what `--budget-simplices` counts, counted
here without a budget), the simplices built and those left after the
collapse (null when the budget stops the command first), all read off one
run of the command, the budget error or the sphere dimension, and the time
of the whole command in process, min of 3 runs.  `tests/test_bench_files.py`
recomputes every field but the times with `counters` and compares them with
the committed file.
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
    """Every field of a row but its time, from one run of the command.

    The run's own `order_complex` and `collapse_complex` calls are wrapped:
    the first gives the factor P and t, from which L(R)'s simplex counts are
    counted without a budget, and the size of the complex it builds; the
    second the size after the collapse.  Neither is set when the budget
    stops the command first."""
    seen: dict = {}
    build, collapse = cli.order_complex, topology.collapse_complex

    def building(P, budget, t):
        seen["P"], seen["t"] = P, t
        K = build(P, budget, t)
        seen["built"] = K.size()
        if K.is_empty():  # its own collapse, which `reduced_homology` skips
            seen["collapsed"] = 0
        return K

    def collapsing(K):
        K = collapse(K)
        seen["collapsed"] = K.size()
        return K

    cli.order_complex, topology.collapse_complex = building, collapsing
    try:
        code, out, err = run(argv)
    finally:
        cli.order_complex, topology.collapse_complex = build, collapse
    counts = topology._count_simplices(seen["P"], 10**30, seen["t"])[2]
    return {
        "spec": argv[1],
        "t": seen["t"],
        "simplex_counts": counts,
        "simplices": sum(counts),
        "built": seen.get("built"),
        "collapsed": seen.get("collapsed"),
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
