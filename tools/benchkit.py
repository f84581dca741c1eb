"""What the four `bench_*.py` scripts share: the best-of-`REPEATS` timing
and the report each writes to BENCH_<name>.json at the root of the checkout.
Importing it puts the checkout's `src` and `perfbench` first on `sys.path`,
so a script runs from a bare checkout."""

from __future__ import annotations

import json
import platform
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from racklab.racks import Rack, rack_from_spec  # noqa: E402

REPEATS = 3


def rack_of(argv: tuple[str, ...]) -> Rack:
    """The rack of the command line `argv`, "COMMAND SPEC [--max-order N]"."""
    if "--max-order" in argv:
        return rack_from_spec(argv[1], max_order=int(argv[argv.index("--max-order") + 1]))
    return rack_from_spec(argv[1])


def timed(row: dict, run) -> dict:
    """`row` with its "seconds": the best of `REPEATS` calls of `run()`."""
    best = float("inf")
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - t0)
    row["seconds"] = round(best, 6)
    return row


def write(name: str, key: str, rows: list[dict], seconds=None, **extra) -> None:
    """Write BENCH_<name>.json, the `rows` under `key` after the envelope and
    any `extra` fields, and print its total `seconds`, by default the sum of
    the rows' times."""
    if seconds is None:
        seconds = round(sum(r["seconds"] for r in rows), 6)
    report = {
        "benchmark": name,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "repeats": REPEATS,
        **extra,
        "seconds": seconds,
        key: rows,
    }
    path = ROOT / f"BENCH_{name}.json"
    path.write_text(json.dumps(report, indent=2) + "\n")
    parts = seconds.items() if isinstance(seconds, dict) else [("total", seconds)]
    print(", ".join(f"{k} {v:.3f} s" for k, v in parts), "->", path.name)
