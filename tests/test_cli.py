from __future__ import annotations

import concurrent.futures
import json
import os

import pytest

from conftest import full_lattice
from racklab import cli
from racklab.cli import main
from racklab.lattice import (
    LatticeInvariantError, ProductLattice, export_lattice_text, load_lattice_export,
)
from racklab.work import ledger


def run(capsys, argv):
    rc = main(argv)
    out = capsys.readouterr()
    return rc, out.out, out.err


def test_group_info(capsys):
    rc, out, _ = run(capsys, ["group", "S3"])
    assert rc == 0
    data = json.loads(out)
    assert data["class_sizes"] == [1, 2, 3]
    assert data["properties"]["solvable"] is True


def test_group_info_sl23(capsys):
    rc, out, _ = run(capsys, ["group", "SL(2,3)"])
    assert rc == 0
    assert json.loads(out)["class_sizes"] == [1, 1, 4, 4, 4, 4, 6]


def test_parse_error_exit_code(capsys):
    rc, _, err = run(capsys, ["group", "Zoo"])
    assert rc == 2
    assert "Zoo" in err


def test_order_cap_exit_code(capsys):
    rc, _, err = run(capsys, ["group", "S6"])
    assert rc == 2
    assert "cap" in err


def test_rack_cap_exit_code(capsys):
    rc, out, err = run(capsys, ["lattice", "A5"])
    assert (rc, out) == (2, "")
    assert err == "racklab: rack size 60 exceeds the enumeration cap 40\n"


@pytest.mark.parametrize("spec, max_order, size", [
    ("A8:cycles(3)", "20160", 112),
    ("S8:cycles(8)", "40320", 5040),
])
def test_cycle_class_over_the_cap_is_refused_before_any_table(capsys, spec, max_order, size):
    # building A8's table before the refusal took 83 s
    ledger.clear()
    rc, out, err = run(capsys, ["lattice", spec, "--max-order", max_order])
    assert (rc, out) == (2, "")
    assert err == f"racklab: rack size {size} exceeds the enumeration cap 40\n"
    assert ledger["direct_products"] == 0
    assert ledger["associativity_rows"] == 0


def test_lattice_z4(capsys):
    rc, out, _ = run(capsys, ["lattice", "Z4"])
    data = json.loads(out)
    assert rc == 0
    assert data["nodes"] == 16
    assert data["graded"] is True
    assert data["chain_lengths"] == [4]


def test_lattice_four_cycles(capsys):
    rc, out, _ = run(capsys, ["lattice", "S4:cycles(4)"])
    data = json.loads(out)
    assert data["nodes"] == 11 and data["coatoms"] == 3


def test_lattice_five_cycles(capsys):
    rc, out, _ = run(capsys, ["lattice", "A5:cycles(5)"])
    data = json.loads(out)
    assert data["nodes"] == 94
    assert data["graded"] is False


def test_lattice_export(tmp_path, capsys):
    path = tmp_path / "lat.txt"
    rc, out, _ = run(capsys, ["lattice", "S4:cycles(4)", "--export", str(path)])
    assert rc == 0
    loaded = load_lattice_export(path.read_text())
    assert loaded.n == 11


def test_homology_s3_and_d8(capsys):
    rc, out, _ = run(capsys, ["homology", "S3"])
    data = json.loads(out)
    assert data["sphere_dimension"] == 1
    assert data["dims"]["1"] == {"rank": 1, "torsion": []}
    rc, out, _ = run(capsys, ["homology", "D8"])
    assert json.loads(out)["sphere_dimension"] == 3


@pytest.mark.parametrize("spec", ["Z4:noncentral", "Z2xZ2:noncentral", "Z1:noncentral"])
def test_homology_of_an_empty_rack_is_a_usage_error(capsys, spec):
    rc, out, err = run(capsys, ["homology", spec])
    assert (rc, out) == (2, "")
    assert err == (
        f"racklab: rack {spec} is empty: its subrack lattice has one node and no order complex\n"
    )


def test_a_colon_with_no_filter_is_refused(capsys):
    rc, out, err = run(capsys, ["lattice", "S3:"])
    assert (rc, out) == (2, "")
    assert err == "racklab: empty rack filter\n"
    outputs = []
    for spec in ("S3", "S3:all"):
        rc, out, _ = run(capsys, ["lattice", spec])
        assert rc == 0
        data = json.loads(out)
        assert data.pop("spec") == spec and data["nodes"] == 18
        outputs.append(data)
    assert outputs[0] == outputs[1]


def test_lattice_of_an_empty_rack(capsys):
    rc, out, _ = run(capsys, ["lattice", "Z4:noncentral"])
    assert rc == 0
    assert out == json.dumps({
        "atoms": 0, "chain_lengths": [0], "coatoms": 0, "cover_edges": 0, "graded": True,
        "max_maximal_chain": 0, "min_maximal_chain": 0, "nodes": 1, "rack_size": 0,
        "spec": "Z4:noncentral",
    }, indent=2, sort_keys=True) + "\n"


def test_verify_single_check(capsys):
    rc, out, _ = run(capsys, ["verify", "--check", "d8-q8-rack-iso"])
    assert rc == 0
    data = json.loads(out)
    assert data["status"] == "pass"
    assert [c["id"] for c in data["checks"]] == ["d8-q8-rack-iso"]
    assert data["checks"][0]["seconds"] is None


def test_verify_unknown_check(capsys):
    rc, _, err = run(capsys, ["verify", "--check", "nope"])
    assert rc == 2


def test_verify_deterministic_output(capsys):
    argv = ["verify", "--check", "fourcycle-rack", "--check", "closure-laws"]
    _, a, _ = run(capsys, argv)
    _, b, _ = run(capsys, argv)
    assert a == b


def test_verify_csv_format(capsys):
    rc, out, _ = run(capsys, ["verify", "--check", "d8-q8-rack-iso", "--format", "csv"])
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("id,status")
    assert lines[1].startswith("d8-q8-rack-iso,pass")


def test_verify_runs_a_repeated_check_once(capsys):
    argv = ["verify", "--check", "rack-axioms", "--check", "rack-axioms", "--max-order", "2"]
    rc, out, _ = run(capsys, argv)
    assert rc == 0
    data = json.loads(out)
    assert [c["id"] for c in data["checks"]] == ["rack-axioms"]
    assert data["counts"] == {"pass": 1, "fail": 0, "skipped": 0}
    rc, out, _ = run(capsys, argv + ["--format", "csv"])
    assert rc == 0
    assert [line.split(",")[0] for line in out.splitlines()] == ["id", "rack-axioms"]


def test_group_check_budget_counts_the_full_lattice(capsys):
    # Z4 and Z2xZ2 have 16 subracks each, read off a one-node factor
    argv = ["verify", "--check", "boolean-iff-abelian", "--max-order", "4"]
    rc, out, err = run(capsys, argv + ["--budget-nodes", "15"])
    assert (rc, out) == (2, "")
    assert err == "racklab: node budget 15 exceeded; 15 subracks enumerated so far\n"
    rc, out, _ = run(capsys, argv + ["--budget-nodes", "16"])
    assert rc == 0
    assert json.loads(out)["status"] == "pass"


def test_product_decomposition_budget_counts_the_full_lattice(capsys):
    # Z10's 1,024 subracks are the first of CENTRAL_CATALOG over 1,000
    argv = ["verify", "--check", "product-decomposition", "--budget-nodes", "1000"]
    rc, out, err = run(capsys, argv)
    assert (rc, out) == (2, "")
    assert err == "racklab: node budget 1000 exceeded; 1000 subracks enumerated so far\n"


@pytest.mark.parametrize("check", ["m-of-g", "class-avoidance"])
def test_subgroup_checks_run_under_the_node_budget(capsys, check):
    # both read catalog.analyze_group, whose budget counts L(G): Z10 has 1,024 subracks
    rc, out, err = run(capsys, ["verify", "--check", check, "--budget-nodes", "1000"])
    assert (rc, out) == (2, "")
    assert err == "racklab: node budget 1000 exceeded; 1000 subracks enumerated so far\n"


def test_verify_max_order_skips(capsys):
    rc, out, _ = run(capsys, ["verify", "--check", "kequal-fibers", "--max-order", "12"])
    assert rc == 0
    data = json.loads(out)
    assert data["checks"][0]["status"] == "skipped"
    assert data["checks"][0]["skip_reason"]


def test_budget_nodes_flag(capsys):
    rc, out, _ = run(capsys, ["lattice", "D8", "--budget-nodes", "100000"])
    assert rc == 0
    assert json.loads(out)["nodes"] == 56


def test_verify_max_order_flag(capsys):
    rc, out, _ = run(capsys, ["verify", "--check", "fourcycle-rack", "--max-order", "24"])
    assert rc == 0
    assert json.loads(out)["checks"][0]["status"] == "pass"


def test_verify_max_order_defaults_to_no_limit():
    # the other commands default to DEFAULT_MAX_ORDER; verify must not, since
    # its catalog reaches A6 (order 360)
    assert cli.build_parser().parse_args(["verify", "--all"]).max_order is None
    assert cli.build_parser().parse_args(["lattice", "S3"]).max_order == cli.DEFAULT_MAX_ORDER


@pytest.mark.parametrize("argv", [
    ["lattice", "D8"], ["homology", "D8"], ["verify", "--check", "fourcycle-rack"],
])
def test_racklab_variables_are_ignored(capsys, monkeypatch, argv):
    # a flag is the only way to set a budget or cap
    names = ["RACKLAB_MAX_ORDER", "RACKLAB_BUDGET_NODES", "RACKLAB_BUDGET_SIMPLICES"]
    for name in names:
        monkeypatch.delenv(name, raising=False)
    unset = run(capsys, argv)
    for name in names:
        monkeypatch.setenv(name, "1")
    assert run(capsys, argv)[:2] == unset[:2]
    assert unset[0] == 0


def test_verify_workers_output_identical(capsys):
    argv = ["verify", "--check", "d8-q8-rack-iso", "--check", "fourcycle-rack"]
    _, a, _ = run(capsys, argv)
    _, b, _ = run(capsys, argv + ["--workers", "2"])
    assert a == b


def test_verify_bytes_identical_across_processes():
    # fresh interpreters with different hash seeds must emit identical reports
    import subprocess
    import sys

    cmd = [sys.executable, "-m", "racklab.cli", "verify",
           "--check", "fourcycle-rack", "--check", "homology-consistency"]
    outs = []
    for seed in ("0", "12345"):
        env = dict(__import__("os").environ, PYTHONHASHSEED=seed)
        outs.append(subprocess.run(cmd, capture_output=True, env=env).stdout)
    assert outs[0] == outs[1] and outs[0]


def test_unknown_class_label_is_a_usage_error(capsys):
    rc, _, err = run(capsys, ["lattice", "S3:class(zz)"])
    assert rc == 2
    assert "zz" in err


def test_internal_key_error_is_not_a_usage_error(capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise KeyError("internal")

    monkeypatch.setattr(cli, "enumerate_subracks", broken)
    with pytest.raises(KeyError):
        main(["lattice", "S3"])


def test_verify_rejects_nonpositive_workers(capsys):
    for value in ("0", "-3"):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--check", "d8-q8-rack-iso", "--workers", value])
        assert exc.value.code == 2
        assert "--workers" in capsys.readouterr().err


class _InlinePool:
    """Stands in for ProcessPoolExecutor and runs everything in process."""

    sizes: list[int] = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        return map(fn, *iterables)


def test_verify_workers_capped_at_cpu_count(capsys, monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _InlinePool)
    _InlinePool.sizes = []
    argv = ["verify", "--check", "d8-q8-rack-iso", "--check", "fourcycle-rack"]
    rc, out, _ = run(capsys, argv + ["--workers", "64"])
    assert rc == 0
    assert _InlinePool.sizes == [2]
    assert out == run(capsys, argv)[1]


def test_verify_all_with_check_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--all", "--check", "sphere-theorem"])
    assert exc.value.code == 2
    assert "not allowed with" in capsys.readouterr().err


def test_lattice_export_file_equals_export_text(tmp_path, capsys):
    path = tmp_path / "lat.txt"
    rc, _, _ = run(capsys, ["lattice", "D8", "--export", str(path)])
    assert rc == 0
    want = export_lattice_text(full_lattice("D8"))
    assert path.read_bytes() == want.encode("utf-8")


def test_unwritable_export_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "missing" / "lat.txt"
    rc, out, err = run(capsys, ["lattice", "S3", "--export", str(path)])
    assert rc == 2
    assert out == ""
    assert err == f"racklab: cannot write export {path}: No such file or directory\n"
    rc, out, err = run(capsys, ["lattice", "S3", "--export", str(tmp_path)])
    assert (rc, out) == (2, "")
    assert err.startswith(f"racklab: cannot write export {tmp_path}: ")


def test_budget_failure_leaves_an_existing_export_untouched(tmp_path, capsys):
    path = tmp_path / "lat.txt"
    path.write_text("earlier export\n")
    rc, out, err = run(capsys, ["lattice", "D8", "--budget-nodes", "5", "--export", str(path)])
    assert rc == 2 and out == "" and "budget" in err
    assert path.read_text() == "earlier export\n"


def test_failing_expansion_leaves_an_existing_export_untouched(tmp_path, monkeypatch):
    path = tmp_path / "lat.txt"
    path.write_text("earlier export\n")

    def failing_expand(self):
        raise LatticeInvariantError("expansion failed")

    monkeypatch.setattr(ProductLattice, "expand", failing_expand)
    with pytest.raises(LatticeInvariantError, match="^expansion failed$"):
        main(["lattice", "D8", "--export", str(path)])
    assert path.read_text() == "earlier export\n"


# the flags a command does not read, which its parser does not accept
_UNREAD_FLAGS = {
    ("group", "--budget-nodes"), ("group", "--budget-simplices"), ("group", "--timings"),
    ("lattice", "--budget-simplices"), ("lattice", "--timings"),
}


@pytest.mark.parametrize(
    "command", [["group", "S3"], ["lattice", "D8"], ["homology", "D8"], ["verify", "--all"]]
)
@pytest.mark.parametrize("value", ["0", "-1"])
@pytest.mark.parametrize("flag", ["--max-order", "--budget-nodes", "--budget-simplices"])
def test_nonpositive_flag_is_a_usage_error(capsys, flag, value, command):
    with pytest.raises(SystemExit) as exc:
        main(command + [flag, value])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    if (command[0], flag) in _UNREAD_FLAGS:
        assert f"unrecognized arguments: {flag} {value}" in err
    else:
        assert f"argument {flag}: must be at least 1, got {value}" in err


@pytest.mark.parametrize("value", ["\u0665", "1_0", " 5", "+5", "5 "])
@pytest.mark.parametrize("flag", ["--max-order", "--budget-nodes", "--budget-simplices"])
def test_flag_takes_ascii_digits_only(capsys, flag, value):
    # int() reads the Arabic-Indic five, "1_0" and " 5" as 5, 10 and 5
    with pytest.raises(SystemExit) as exc:
        main(["homology", "D8", flag, value])
    assert exc.value.code == 2
    assert f"argument {flag}: invalid int value: {value!r}" in capsys.readouterr().err


@pytest.mark.parametrize("command, flag", sorted(_UNREAD_FLAGS))
def test_unread_flag_is_unrecognized(capsys, command, flag):
    argv = [command, "S3", flag] + ([] if flag == "--timings" else ["5"])
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(argv[2:])}" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# the parser is built once per process and shared by every `main` call


def test_the_parser_is_built_once():
    assert cli.build_parser() is cli.build_parser()


def test_a_usage_error_leaves_the_shared_parser_as_a_fresh_process_has_it(capsys):
    import subprocess
    import sys

    with pytest.raises(SystemExit) as exc:
        main(["lattice", "S3", "--budget-nodes", "0"])
    assert exc.value.code == 2
    capsys.readouterr()
    rc, out, err = run(capsys, ["lattice", "S3"])
    fresh = subprocess.run([sys.executable, "-m", "racklab.cli", "lattice", "S3"],
                           capture_output=True, text=True)
    assert (rc, out, err) == (fresh.returncode, fresh.stdout, fresh.stderr)
    assert rc == 0 and out


def test_two_verify_calls_do_not_share_their_check_lists():
    first = cli.build_parser().parse_args(["verify", "--check", "m-of-g"])
    second = cli.build_parser().parse_args(["verify", "--check", "fourcycle-rack"])
    assert (first.check, second.check) == (["m-of-g"], ["fourcycle-rack"])
    assert cli.build_parser().parse_args(["verify", "--all"]).check is None


def test_a_command_replaced_after_the_parser_was_built_is_the_one_that_runs(monkeypatch):
    cli.build_parser()
    seen = []
    monkeypatch.setattr(cli, "cmd_lattice", lambda args: seen.append(args.spec) or 7)
    assert main(["lattice", "S3"]) == 7
    assert seen == ["S3"]
