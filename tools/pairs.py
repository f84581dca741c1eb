"""Compare two commits on one perfbench workload in alternating pairs.

    python3 tools/pairs.py PARENT_REF CHANGE_REF --workload verify-all --pairs 10 --seed 401

Run it from inside the racklab git repository.  Each ref is exported with
`git archive` into a fresh temporary tree, so neither side reads the working
tree, its bytecode caches or the other side's files.  Pair i runs
`perfbench/run.py --workload W --seed S+i --seconds N --trace 0` once in each
tree, the parent first in even pairs and the change first in odd ones, so a
drift of the machine's speed falls on both sides alike.  Both sides run with
PYTHONDONTWRITEBYTECODE=1, so every pass compiles the package at import on
both sides, whatever the environment or perfbench would otherwise leave to
chance.  A run that fails or whose jobs differ from their pins stops the
comparison.

For each end-to-end metric it prints both sides' medians and quartiles
(q1-q3, inclusive method) and the number of pairs in which the change read
lower.  Uses the standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path


def quartiles(values: list[float]) -> tuple[float, ...]:
    """(q1, median, q3) of two or more values, inclusive method."""
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def summarize(pairs: list[tuple[dict[str, float], dict[str, float]]]) -> list[dict]:
    """One row per metric of the first pair's parent run, in its order:
    the parent's and the change's (q1, median, q3), and in how many of the
    two or more pairs (parent metrics, change metrics) the change read
    lower."""
    rows = []
    for name in pairs[0][0]:
        before = [p[name] for p, _ in pairs]
        after = [c[name] for _, c in pairs]
        rows.append({
            "metric": name,
            "parent": quartiles(before),
            "change": quartiles(after),
            "lower": sum(c < p for p, c in zip(before, after)),
            "pairs": len(pairs),
        })
    return rows


def format_row(row: dict) -> str:
    """One printed line of a `summarize` row."""
    (p1, pm, p3), (c1, cm, c3) = row["parent"], row["change"]
    return (f"{row['metric']:12s} median {pm:.4g} -> {cm:.4g}  "
            f"q1-q3 {p1:.4g}-{p3:.4g} -> {c1:.4g}-{c3:.4g}  "
            f"lower in {row['lower']}/{row['pairs']}")


def export(ref: str, dest: Path) -> None:
    """The committed files of `ref`, unpacked into the empty directory `dest`."""
    archive = subprocess.run(["git", "archive", "--format=tar", ref],
                             capture_output=True, check=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def run_once(tree: Path, workload: str, seed: int, seconds: int) -> dict[str, float]:
    """The end-to-end metrics of one untraced perfbench run in `tree`."""
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, env=env, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    if not result or not result["correct"]:
        raise SystemExit(f"pairs: run in {tree} at seed {seed} failed:\n{proc.stderr}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description="alternating perfbench pairs of two commits")
    p.add_argument("parent")
    p.add_argument("change")
    p.add_argument("--workload", required=True)
    p.add_argument("--pairs", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, default=10)
    args = p.parse_args(argv)
    if args.pairs < 2:
        p.error("--pairs must be at least 2")
    with tempfile.TemporaryDirectory(prefix="racklab-pairs-") as tmp:
        trees = Path(tmp) / "parent", Path(tmp) / "change"
        for ref, tree in zip((args.parent, args.change), trees):
            tree.mkdir()
            export(ref, tree)
        pairs = []
        for i in range(args.pairs):
            seed = args.seed + i
            order = (0, 1) if i % 2 == 0 else (1, 0)
            got: list[dict] = [{}, {}]
            for side in order:
                got[side] = run_once(trees[side], args.workload, seed, args.seconds)
            pairs.append((got[0], got[1]))
            print(f"pair {i + 1}/{args.pairs} seed {seed}: "
                  + ", ".join(f"{k} {got[0][k]:.4g} -> {got[1][k]:.4g}" for k in got[0]),
                  flush=True)
    print(f"{args.workload}: {args.parent} -> {args.change}, "
          f"{args.pairs} pairs from seed {args.seed}")
    for row in summarize(pairs):
        print(format_row(row))
    return 0


if __name__ == "__main__":
    sys.exit(main())
