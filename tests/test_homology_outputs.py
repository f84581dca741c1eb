"""`racklab homology` keeps its bytes: exit code, stdout and stderr on every
alternate of perfbench's `homology` jobs and on `tools/bench_homology.py`'s
extra specs, against `tests/data/homology_outputs.json`.  Rewrite the file
with `python3 tests/test_homology_outputs.py` only when a change of output
is meant."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "data" / "homology_outputs.json"


def _bench():
    spec = importlib.util.spec_from_file_location(
        "bench_homology", ROOT / "tools" / "bench_homology.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench = _bench()


def record(argv: tuple[str, ...]) -> dict:
    code, out, err = bench.run(argv)
    return {"argv": list(argv), "exit": code, "stdout": out, "stderr": err}


def _golden() -> list[dict]:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_the_golden_file_covers_every_homology_spec():
    assert [row["argv"] for row in _golden()] == [list(a) for a in bench.homology_argvs()]


@pytest.mark.parametrize("argv", bench.homology_argvs(), ids=lambda argv: " ".join(argv[1:]))
def test_homology_bytes_match_the_golden_file(argv):
    golden = {tuple(row["argv"]): row for row in _golden()}
    assert record(argv) == golden[argv]


if __name__ == "__main__":
    rows = [record(argv) for argv in bench.homology_argvs()]
    GOLDEN.write_text(json.dumps(rows, indent=1) + "\n", encoding="utf-8")
