"""`tools/pairs.py`'s summary of alternating benchmark pairs, on canned
numbers; no benchmark runs here."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _pairs_tool():
    spec = importlib.util.spec_from_file_location("pairs", ROOT / "tools" / "pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


pairs = _pairs_tool()


def test_summary_of_five_pairs():
    parent = [1.0, 2.0, 3.0, 4.0, 5.0]
    change = [0.5, 2.5, 1.5, 4.0, 0.5]  # lower in pairs 1, 3 and 5; a tie in 4
    runs = [({"wall_s": p, "peak_rss_mb": 20.0}, {"wall_s": c, "peak_rss_mb": 20.0 + c})
            for p, c in zip(parent, change)]
    wall, rss = pairs.summarize(runs)
    assert wall == {"metric": "wall_s", "parent": (2.0, 3.0, 4.0),
                    "change": (0.5, 1.5, 2.5), "lower": 3, "pairs": 5}
    assert rss["metric"] == "peak_rss_mb"
    assert rss["lower"] == 0
    assert rss["parent"] == (20.0, 20.0, 20.0)
    assert rss["change"] == pytest.approx((20.5, 21.5, 22.5))
    assert pairs.format_row(wall) == (
        "wall_s       median 3 -> 1.5  q1-q3 2-4 -> 0.5-2.5  lower in 3/5"
    )


def test_quartiles_interpolate_between_readings():
    assert pairs.quartiles([4.0, 1.0, 3.0, 2.0]) == (1.75, 2.5, 3.25)
    assert pairs.quartiles([0.5, 0.7]) == pytest.approx((0.55, 0.6, 0.65))
