"""Record pins.json: the invariants of every job alternate of every workload.

    PYTHONPATH=src python3 perfbench/pin.py

Run only on a commit whose outputs are known to be right; the pins are what
every later run is checked against.  Per-job times go to stderr.
"""

from __future__ import annotations

import json
import sys
import time

import jobs
from worker import run_job

# outcomes accepted besides the recorded one: SL(2,3) exhausts the default
# simplex budget today; an engine that fits must return the 5-sphere
EXTRA_OUTCOMES = {
    "homology SL(2,3)": [{"exit": 0, "homology": {"5": [1, []]}, "sphere_dimension": 5}],
}


def main() -> int:
    pins: dict[str, list[dict]] = {}
    for slots in jobs.WORKLOADS.values():
        for slot in slots:
            for argv in slot:
                t0 = time.perf_counter()
                key = jobs.job_key(argv)
                pins[key] = [jobs.invariants(argv, *run_job(argv))] + EXTRA_OUTCOMES.get(key, [])
                print(f"{key}: {time.perf_counter() - t0:.2f} s", file=sys.stderr)
    with open(jobs.PINS_PATH, "w", encoding="utf-8") as fh:
        json.dump(pins, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
