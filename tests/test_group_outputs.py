"""`racklab group` keeps its bytes: exit code, stdout and stderr on every
`CATALOG` spec, on larger and product groups, and on the one-element and
small edge cases, against `tests/data/group_outputs.json`.  Rewrite the file
with `python3 tests/test_group_outputs.py` only when a change of output is
meant."""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "data" / "group_outputs.json"

sys.path.insert(0, str(ROOT / "src"))
from racklab import cli  # noqa: E402
from racklab.catalog import CATALOG  # noqa: E402

EXTRA_SPECS = (
    "A5", "S5", "S3xS3", "D8xZ3", "Q8xZ3", "A4xZ2", "A4xZ3", "S4xZ2", "SL(2,3)xZ2",
    "D8xS3", "TV18xZ2", "D18", "D24", "DIC5", "DIC6",
)
EDGE_SPECS = ("A1", "S2", "A3", "D4")

# A6 is refused at the default order cap and simple under a raised one
ARGVS = tuple(("group", s) for s in CATALOG + EXTRA_SPECS + EDGE_SPECS) + (
    ("group", "A6"),
    ("group", "A6", "--max-order", "360"),
)


def record(argv: tuple[str, ...]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return {"argv": list(argv), "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _golden() -> list[dict]:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_the_golden_file_covers_every_group_command():
    assert [row["argv"] for row in _golden()] == [list(a) for a in ARGVS]


@pytest.mark.parametrize("argv", ARGVS, ids=lambda argv: " ".join(argv[1:]))
def test_group_bytes_match_the_golden_file(argv):
    golden = {tuple(row["argv"]): row for row in _golden()}
    assert record(argv) == golden[argv]


if __name__ == "__main__":
    rows = [record(argv) for argv in ARGVS]
    GOLDEN.write_text(json.dumps(rows, indent=1) + "\n", encoding="utf-8")
