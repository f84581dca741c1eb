"""Workload job lists and the output oracle that checks each job against the
invariants pinned in pins.json.

A job is one `racklab` command line.  Some slots list two equal-cost
alternates; the workload seed picks one per slot and shuffles the order.
"""

from __future__ import annotations

import json
import random
import re
from pathlib import Path

PINS_PATH = Path(__file__).with_name("pins.json")

# each slot is a tuple of alternates; the seed picks one of them
WORKLOADS: dict[str, tuple[tuple[tuple[str, ...], ...], ...]] = {
    "lattice": (
        (("lattice", "D8xZ3"), ("lattice", "Q8xZ3")),
        (("lattice", "Z4xZ2xZ2"),),
        (("lattice", "Z15"),),
        (("lattice", "D24"),),
        (("lattice", "A6:cycles(3)", "--max-order", "360"),),
        (("lattice", "S3xZ3"),),
        (("lattice", "D8xZ2"),),
        (("lattice", "SL(2,3)"),),
        (("lattice", "D8xZ3:noncentral"),),
        (("lattice", "A5:cycles(5)"),),
        (("lattice", "S5:transpositions"),),
    ),
    "homology": (
        (("homology", "D12"), ("homology", "DIC3")),
        (("homology", "S4"),),
        (("homology", "Z6"),),
        (("homology", "A6:cycles(3)", "--max-order", "360"),),
        (("homology", "D16:noncentral"),),
        (("homology", "D8"),),
        (("homology", "Q8"),),
        (("homology", "D10"),),
        (("homology", "A4"),),
        (("homology", "A5:cycles(5)"),),
        (("homology", "S5:transpositions"),),
        (("homology", "S5:cycles(4)"),),
        (("homology", "SL(2,3)"),),
    ),
    "verify-all": (
        (("verify", "--all"),),
    ),
}

# passes every run makes, so that a slower commit is never measured with
# fewer passes than its parent; verify-all takes about 40 s a pass, and a
# run must end within 180 s
MIN_PASSES = {"lattice": 4, "homology": 2, "verify-all": 1}

_SIMPLEX_BUDGET_RE = re.compile(r"simplex budget \d+ exceeded")


def jobs_for(workload: str, seed: int) -> list[tuple[str, ...]]:
    """The seeded job list: one alternate per slot, in a seeded order."""
    rng = random.Random(seed)
    jobs = [rng.choice(slot) for slot in WORKLOADS[workload]]
    rng.shuffle(jobs)
    return jobs


def job_key(argv: tuple[str, ...]) -> str:
    return " ".join(argv)


def invariants(argv: tuple[str, ...], code: int, out: str, err: str) -> dict:
    """The engine-independent facts of one job's outcome.

    Timings and simplex counts are left out on purpose: a different homology
    engine legitimately changes them.
    """
    if code != 0 and argv[0] != "verify":
        kind = "simplex budget exceeded" if _SIMPLEX_BUDGET_RE.search(err) else err.strip()
        return {"exit": code, "error": kind}
    data = json.loads(out)
    if argv[0] == "lattice":
        keys = ("nodes", "cover_edges", "chain_lengths", "graded", "atoms", "coatoms")
        return {"exit": code, **{k: data[k] for k in keys}}
    if argv[0] == "homology":
        nonzero = {
            d: [v["rank"], v["torsion"]]
            for d, v in data["dims"].items()
            if v["rank"] or v["torsion"]
        }
        return {
            "exit": code,
            "homology": nonzero,
            "euler_characteristic": data["euler_characteristic"],
            "empty_complex": data["empty_complex"],
            "sphere_dimension": data["sphere_dimension"],
        }
    if argv[0] == "verify":
        return {
            "exit": code,
            "status": data["status"],
            "checks": {
                c["id"]: {"status": c["status"], "computed": c["computed"]}
                for c in data["checks"]
            },
        }
    raise ValueError(f"no oracle for command {argv[0]!r}")


def load_pins() -> dict[str, list[dict]]:
    with open(PINS_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def matches(pins: dict[str, list[dict]], argv: tuple[str, ...], got: dict) -> bool:
    """True when `got` agrees with one accepted outcome on every pinned key."""
    accepted = pins.get(job_key(argv))
    if not accepted:
        return False
    return any(all(got.get(k) == v for k, v in want.items()) for want in accepted)
