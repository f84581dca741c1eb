"""Tests of the benchmark itself (not part of the library's test suite).

    python3 -m pytest -q perfbench/selftest.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import jobs  # noqa: E402
import worker  # noqa: E402
from tracer import Tracer  # noqa: E402

SMALL = {
    "small": (
        (("lattice", "S3"),),
        (("homology", "D8"),),
        (("lattice", "Z4xZ2"),),
    ),
}


@pytest.fixture
def small_workload(monkeypatch):
    monkeypatch.setattr(jobs, "WORKLOADS", {**jobs.WORKLOADS, **SMALL})
    pins = {}
    for slot in SMALL["small"]:
        for argv in slot:
            pins[jobs.job_key(argv)] = [jobs.invariants(argv, *worker.run_job(argv))]
    return pins


def test_seed_fixes_job_order_and_alternates():
    for name, slots in jobs.WORKLOADS.items():
        a, b = jobs.jobs_for(name, 7), jobs.jobs_for(name, 7)
        assert a == b
        assert len(a) == len(slots)
        assert all(any(job in slot for slot in slots) for job in a)
    orders = {tuple(jobs.jobs_for("homology", s)) for s in range(8)}
    assert len(orders) > 1


def test_every_job_alternate_is_pinned():
    pins = jobs.load_pins()
    for slots in jobs.WORKLOADS.values():
        for slot in slots:
            for argv in slot:
                assert pins.get(jobs.job_key(argv)), argv


def test_wrong_pin_raises_error_rate(small_workload):
    ok = worker.run_pass("small", 1, small_workload)
    assert (ok["attempted"], ok["failed"]) == (3, 0)
    wrong = json.loads(json.dumps(small_workload))
    wrong["lattice S3"][0]["nodes"] += 1
    bad = worker.run_pass("small", 1, wrong)
    assert (bad["attempted"], bad["failed"]) == (3, 1)
    assert [j["job"] for j in bad["jobs"] if not j["ok"]] == ["lattice S3"]


def test_budget_error_or_sphere_both_pass_for_sl23():
    pins = jobs.load_pins()
    argv = ("homology", "SL(2,3)")
    budget = jobs.invariants(argv, 2, "", "racklab: simplex budget 1000000 exceeded at dimension 5\n")
    assert jobs.matches(pins, argv, budget)
    sphere = {"5": {"rank": 1, "torsion": []}}
    out = json.dumps({"dims": sphere, "euler_characteristic": -1, "empty_complex": False,
                      "sphere_dimension": 5})
    assert jobs.matches(pins, argv, jobs.invariants(argv, 0, out, ""))
    other = json.dumps({"dims": {"5": {"rank": 2, "torsion": []}}, "euler_characteristic": -2,
                        "empty_complex": False, "sphere_dimension": None})
    assert not jobs.matches(pins, argv, jobs.invariants(argv, 0, other, ""))
    assert not jobs.matches(pins, argv, jobs.invariants(argv, 2, "", "racklab: unknown group\n"))


def traced_pass(workload, pins):
    import racklab.cli

    original_main = racklab.cli.main
    tracer = Tracer()
    tracer.install()
    try:
        result = worker.run_pass(workload, 3, pins, tracer)
    finally:
        tracer.uninstall()
    assert racklab.cli.main is original_main
    return result, tracer, tracer.layer_metrics(sorted(racklab.cli.CHECKS))


def test_traced_self_times_account_for_wall_time(small_workload):
    result, tracer, m = traced_pass("small", small_workload)
    assert result["failed"] == 0
    assert abs(m["trace.unaccounted_s"]) < 1e-6
    assert m["trace.wall_s"] == pytest.approx(tracer.wall_s)
    from racklab.lattice import enumerate_subracks
    from racklab.racks import rack_from_spec

    assert m["lattice.nodes"] == sum(
        enumerate_subracks(rack_from_spec(spec)).n for spec in ("S3", "D8", "Z4xZ2")
    )
    assert m["racks.closure_calls"] > 0 and m["racks.closure_s"] > 0
    assert m["topology.simplices"] > m["topology.simplices_reduced"] > 0
    ids = {s[0] for s in tracer.spans}
    assert all(parent is None or parent in ids for _, parent, *_ in tracer.spans)
    assert sum(name == "bench.job" for _, _, name, *_ in tracer.spans) == 3


def test_catalog_warm_up_is_not_charged_to_the_first_check(monkeypatch):
    argv = ("verify", "--check", "boolean-iff-abelian", "--check", "m-of-g", "--max-order", "8")
    monkeypatch.setattr(jobs, "WORKLOADS", {"v": ((argv,),)})
    pins = {jobs.job_key(argv): [jobs.invariants(argv, *worker.run_job(argv))]}
    import racklab.catalog

    racklab.catalog.analyze_group.cache_clear()
    _, _, m = traced_pass("v", pins)
    first = m["verify.check.boolean-iff-abelian_s"]
    assert m["catalog.analyze_s"] > 5 * first
    assert m["catalog.cache_hits"] >= m["catalog.analyze_calls"] / 2
    assert abs(m["trace.unaccounted_s"]) < 1e-6


def test_budget_exhaustion_is_recorded(monkeypatch):
    argv = ("homology", "D8", "--budget-simplices", "100")
    monkeypatch.setattr(jobs, "WORKLOADS", {"b": ((argv,),)})
    pins = {jobs.job_key(argv): [{"exit": 2, "error": "simplex budget exceeded"}]}
    result, tracer, m = traced_pass("b", pins)
    assert result["failed"] == 0
    assert m["topology.budget_exceeded"] == 1
    (event,) = tracer.budget_events
    assert event["span"] == "topology.order_complex"
    assert event["partial"] > 100 and event["dimension"] == m["topology.budget_dimension"] >= 1


def copy_benchmark(dst: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", dst / "BENCHMARK.json")
    shutil.copytree(HERE, dst / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))


def test_run_fails_without_a_checkout(tmp_path):
    copy_benchmark(tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "lattice", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_run_exits_nonzero_on_a_wrong_pin(tmp_path):
    copy_benchmark(tmp_path)
    (tmp_path / "src").symlink_to(ROOT / "src")
    pins_path = tmp_path / "perfbench" / "pins.json"
    pins = json.loads(pins_path.read_text())
    pins["homology Z6"][0]["homology"] = {"4": [2, []]}
    pins_path.write_text(json.dumps(pins))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "homology", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 1
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    # one failure per pass: the Z6 job, every time
    assert result["correct"] is False
    assert result["failed"] * len(jobs.WORKLOADS["homology"]) == result["attempted"]
    assert "homology Z6" in proc.stderr
