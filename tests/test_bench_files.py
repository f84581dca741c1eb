"""The committed BENCH files hold the current program's work counters: every
field of every row but the times is recomputed here with the benchmark
scripts' own `counters` and compared, so a change that alters a counter
fails until the file is rewritten (`python3 tools/bench_enumeration.py`,
`python3 tools/bench_homology.py`, `python3 tools/bench_groups.py`,
`python3 tools/bench_verify.py`)."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

from test_groups import TABLE_DIGESTS

ROOT = Path(__file__).resolve().parent.parent


def _tool(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _committed_rows(name, key):
    report = json.loads((ROOT / f"BENCH_{name}.json").read_text(encoding="utf-8"))
    return [{k: v for k, v in row.items() if k != "seconds"} for row in report[key]]


def test_enumeration_counters_match_the_committed_file():
    bench = _tool("bench_enumeration")
    assert [bench.counters(*row) for row in bench.workload()] == _committed_rows(
        "enumeration", "racks"
    )


def test_homology_counters_match_the_committed_file():
    bench = _tool("bench_homology")
    assert [bench.counters(argv) for argv in bench.homology_argvs()] == _committed_rows(
        "homology", "specs"
    )


def test_group_counters_match_the_committed_file():
    bench = _tool("bench_groups")
    assert list(bench.SPECS) == list(TABLE_DIGESTS)
    assert [bench.counters(spec) for spec in bench.SPECS] == _committed_rows("groups", "specs")
    assert [bench.rack_counters(spec) for spec in bench.RACK_SPECS] == _committed_rows(
        "groups", "racks"
    )


def test_verify_counters_match_the_committed_file():
    bench = _tool("bench_verify")
    report = json.loads((ROOT / "BENCH_verify.json").read_text(encoding="utf-8"))
    assert {k: v for k, v in report["warm_up"].items() if k != "seconds"} == (
        bench.warm_up_counters()
    )
    rows = _committed_rows("verify", "checks")
    assert [bench.counters(row["check"]) for row in rows] == rows
    assert [row["check"] for row in rows] == sorted(bench.verify.CHECKS)
