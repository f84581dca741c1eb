"""One pass of a workload's job list, in a fresh interpreter.

    PYTHONPATH=src python3 perfbench/worker.py --workload lattice --seed 1 [--trace SPANS.jsonl]

Each job calls `racklab.cli.main(argv)` in process with stdout and stderr
captured, and its outcome is checked against the pinned invariants.  The
last line of stdout is one JSON object: wall time of the job list, peak RSS,
per-job outcomes and, with --trace, the per-layer metrics (the spans go to
the named file).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
import traceback

import jobs


def run_job(argv: tuple[str, ...]) -> tuple[int, str, str]:
    import racklab.cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = racklab.cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    return code, out.getvalue(), err.getvalue()


def run_pass(workload: str, seed: int, pins: dict, tracer=None) -> dict:
    job_list = jobs.jobs_for(workload, seed)
    outcomes = []
    clock = time.perf_counter
    if tracer is not None:
        tracer.start_root()
    start = clock()
    for argv in job_list:
        t0 = clock()
        with tracer.span("bench.job") if tracer is not None else contextlib.nullcontext():
            try:
                code, out, err = run_job(argv)
                got = jobs.invariants(argv, code, out, err)
                detail = None if jobs.matches(pins, argv, got) else got
            except Exception:  # any crash is a failed job, recorded with its traceback
                detail = traceback.format_exc(limit=4)
        outcomes.append({
            "job": jobs.job_key(argv),
            "ok": detail is None,
            "seconds": clock() - t0,
            "detail": detail,
        })
    wall = clock() - start
    if tracer is not None:
        tracer.stop_root()
    return {
        "wall_s": wall,
        "attempted": len(outcomes),
        "failed": sum(not o["ok"] for o in outcomes),
        "jobs": outcomes,
    }


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(jobs.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trace", metavar="SPANS_PATH", help="trace the pass; write spans here")
    args = p.parse_args(argv)
    pins = jobs.load_pins()

    import racklab.cli  # set-up: not part of the timed pass
    import racklab.verify

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    result = run_pass(args.workload, args.seed, pins, tracer)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracer.layer_metrics(sorted(racklab.verify.CHECKS))
        tracer.write_spans(args.trace)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
