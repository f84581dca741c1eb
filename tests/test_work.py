"""The work ledger counts what an independent counter counts: the closures
the Lindig walk adds to `racklab.work.ledger` equal the `Rack.closure` calls
that perfbench's tracer counts by wrapping the method from outside the
package.  The tracer also charges each stage's time to that stage."""

from __future__ import annotations

import contextlib
import io
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import jobs  # noqa: E402  perfbench's job lists
import worker  # noqa: E402  perfbench's pass over a job list
from racklab import cli  # noqa: E402
from racklab.lattice import BudgetExceeded, enumerate_subracks  # noqa: E402
from racklab.racks import rack_from_spec  # noqa: E402
from racklab.work import ledger  # noqa: E402
from tracer import CLOSURE, Tracer  # noqa: E402

LATTICE_JOBS = [argv for slot in jobs.WORKLOADS["lattice"] for argv in slot]


def _trace(run) -> Tracer:
    """The tracer that traced `run()`, with the ledger cleared before it."""
    tracer = Tracer()
    tracer.install()
    ledger.clear()
    tracer.start_root()
    try:
        run()
    finally:
        tracer.stop_root()
        tracer.uninstall()
    return tracer


def _traced(run):
    """(the ledger's closures, the tracer's closure calls) during `run()`."""
    tracer = _trace(run)
    return ledger["closures"], tracer.hot[CLOSURE][0]


@pytest.mark.parametrize("argv", LATTICE_JOBS, ids=jobs.job_key)
def test_the_ledger_counts_the_closures_of_every_lattice_job(argv):
    def run():
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(list(argv)) == 0

    counted, traced = _traced(run)
    assert counted == traced


def test_the_ledger_counts_the_closures_of_a_traced_lattice_pass():
    # perfbench's own traced pass; seed 1 makes 7,082 closure calls, 11 of
    # them the generator closures of validating A6's, A5's and S5's cycle
    # racks (5 + 2 + 4), and rejects 32,734 outside elements on their first
    # step with no call
    result = {}

    def run():
        result.update(worker.run_pass("lattice", 1, jobs.load_pins()))

    counted, traced = _traced(run)
    assert result["failed"] == 0
    assert counted == traced > 0


def test_a_walk_over_its_budget_leaves_its_closures_in_the_ledger():
    rack = rack_from_spec("A6:cycles(3)", max_order=360)

    def run():
        with pytest.raises(BudgetExceeded):
            enumerate_subracks(rack, 100)

    counted, traced = _traced(run)
    assert counted == traced > 0


@pytest.mark.parametrize("spec", ["D8", "Z4xZ2", "S3xZ3"])
def test_expanding_a_centred_rack_adds_one_walk_to_the_ledger(spec):
    L = enumerate_subracks(rack_from_spec(spec))
    assert L.t
    ledger.clear()
    E = L.expand()
    assert (ledger["nodes"], ledger["covers"]) == (L.n, L.edge_count()) == (E.n, E.edge_count())


@pytest.mark.parametrize("spec", ["S4:cycles(4)", "A5:cycles(5)"])
def test_expanding_a_rack_with_no_trivial_part_adds_nothing(spec):
    L = enumerate_subracks(rack_from_spec(spec))
    assert not L.t
    ledger.clear()
    assert L.expand() is L.factor
    assert not ledger


def test_the_homology_boundary_build_is_charged_to_its_stage():
    # the reduction builds its columns in `boundary_matrices`, so the tracer
    # books that time as `topology.boundary_s`, not as topology's self time
    def run():
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["homology", "D8"]) == 0

    metrics = _trace(run).layer_metrics(())
    assert metrics["topology.boundary_s"] > 0
    assert metrics["trace.unaccounted_s"] == pytest.approx(0, abs=1e-9)
