"""racklab benchmark: run one workload at one seed and print its metrics.

    python3 perfbench/run.py --workload lattice --seed 1 --seconds 10 --trace 0

Run from the root of a racklab checkout.  Workloads, metrics and their units
are listed in BENCHMARK.json; the job lists are in perfbench/jobs.py.

--trace 0  measures the end-to-end metrics with tracing off: set-up time as
           the median of several fresh interpreter starts up to a ready
           `racklab.cli`, and passes of the job list, each in a fresh
           interpreter, until --seconds have elapsed and the workload's
           minimum number of passes is done.  wall_s sums each job's
           fastest pass; peak_rss_mb is the median over passes.
--trace 1  runs one untraced and one traced pass and reports the per-layer
           metrics of the traced pass, plus the tracing overhead.  Spans are
           written to perfbench/out/.

Every job's output is checked against perfbench/pins.json.  The last line of
stdout is one JSON object {correct, attempted, failed, metrics}; the exit
code is 0 only when every job matched its pins.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import jobs  # perfbench/ is sys.path[0] when this file runs as a script

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_STARTS = 10
DEADLINE_S = 170.0  # the whole run, set-up included, ends before this
# self times must add up to the traced wall time up to float rounding
ACCOUNTING_TOLERANCE_S = 1e-6


class BenchError(RuntimeError):
    pass


def child_env(seed: int) -> dict[str, str]:
    # RACKLAB_* variables would change budgets and caps; the jobs use defaults
    env = {k: v for k, v in os.environ.items() if not k.startswith("RACKLAB_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = str(seed % 2**32)
    return env


def remaining(deadline: float) -> float:
    left = deadline - time.monotonic()
    if left <= 0:
        raise BenchError(f"run exceeded its {DEADLINE_S:.0f} s deadline")
    return left


def time_setup(env: dict[str, str], deadline: float) -> float:
    """One fresh interpreter, from start until `racklab.cli` is imported."""
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", "import racklab.cli"],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=remaining(deadline),
    )
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise BenchError(f"importing racklab.cli failed:\n{proc.stderr}")
    return elapsed


def run_worker(workload: str, seed: int, env: dict[str, str], deadline: float,
               spans_path: Path | None = None) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed)]
    if spans_path is not None:
        cmd += ["--trace", str(spans_path)]
    # subprocess.run kills the worker and waits for it when the timeout expires
    proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                          timeout=remaining(deadline))
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(workload: str, seed: int, seconds: int, deadline: float) -> tuple[dict, list[dict]]:
    env = child_env(seed)
    # half the set-up samples before the passes and half after, so that one
    # slow spell of a shared machine does not set them all
    setup = [time_setup(env, deadline) for _ in range(SETUP_STARTS // 2)]
    passes: list[dict] = []
    start = time.monotonic()
    while len(passes) < jobs.MIN_PASSES[workload] or time.monotonic() - start < seconds:
        # start another pass only if one more fits before the deadline
        if passes and max(p["wall_s"] for p in passes) * 1.5 > deadline - time.monotonic():
            break
        passes.append(run_worker(workload, seed, env, deadline))
    setup += [time_setup(env, deadline) for _ in range(SETUP_STARTS - len(setup))]
    metrics = {
        "wall_s": job_list_seconds(passes),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    return metrics, passes


def job_list_seconds(passes: list[dict]) -> float:
    """Wall time of the job list, each job taken at its fastest pass.

    Every pass runs the same seeded list in a fresh interpreter.  Other load
    on the machine only ever slows a job down, so the fastest of its passes
    is the least disturbed reading of it.
    """
    best: dict[str, float] = {}
    for p in passes:
        for job in p["jobs"]:
            best[job["job"]] = min(job["seconds"], best.get(job["job"], float("inf")))
    return sum(best.values())


def measure_traced(workload: str, seed: int, deadline: float) -> tuple[dict, list[dict]]:
    env = child_env(seed)
    untraced = run_worker(workload, seed, env, deadline)
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    traced = run_worker(workload, seed, env, deadline,
                        spans_path=out_dir / f"spans-{workload}-{seed}.jsonl")
    metrics = dict(traced["layers"])
    metrics["trace.overhead_s"] = traced["wall_s"] - untraced["wall_s"]
    if abs(metrics["trace.unaccounted_s"]) > ACCOUNTING_TOLERANCE_S:
        raise BenchError(
            f"self times miss the traced wall time by {metrics['trace.unaccounted_s']:.3g} s"
        )
    passes = [untraced, traced]
    attempted = sum(p["attempted"] for p in passes)
    metrics["error_rate"] = sum(p["failed"] for p in passes) / attempted
    return metrics, passes


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description="racklab benchmark")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "racklab" / "cli.py").is_file() or not spec_path.is_file():
        print(f"perfbench: no racklab checkout at {ROOT}", file=sys.stderr)
        return 2
    if args.workload not in jobs.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"one of {', '.join(sorted(jobs.WORKLOADS))}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    try:
        if args.trace:
            values, passes = measure_traced(args.workload, args.seed, deadline)
        else:
            values, passes = measure(args.workload, args.seed, args.seconds, deadline)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    for p_ in passes:
        for job in p_["jobs"]:
            if not job["ok"]:
                print(f"perfbench: job {job['job']!r} differs from its pins: {job['detail']}",
                      file=sys.stderr)
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"perfbench: metrics not measured: {', '.join(missing)}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    print(f"workload {args.workload}, seed {args.seed}, {len(passes)} pass(es), "
          f"{attempted} jobs attempted, {failed} failed "
          f"(error_rate {failed / attempted:g} of {attempted} jobs)")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
