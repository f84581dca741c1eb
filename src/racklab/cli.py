"""Command-line front end: group info, lattice stats/export, homology, and
the verification suite.  Output is deterministic JSON (or CSV tables)."""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import re
import sys
import time

from .groups import (
    DEFAULT_MAX_ORDER,
    CapExceeded,
    GroupSpecError,
    build_group,
    conjugacy_classes,
    group_properties,
)
from .lattice import (
    DEFAULT_NODE_BUDGET,
    BudgetExceeded,
    enumerate_subracks,
    export_lattice_lines,
    product_statistics,
)
from .racks import RackAxiomError, rack_from_spec
from .topology import DEFAULT_SIMPLEX_BUDGET, order_complex, reduced_homology
from .verify import (
    CHECKS,
    UnknownCheckError,
    VerifyConfig,
    report_to_csv,
    report_to_json,
    run_checks,
)

_USAGE_ERROR = 2


def _positive_int(text: str) -> int:
    """argparse type of counts, budgets and caps: an integer of at least 1,
    in ASCII digits only, as in the spec grammar; `int` would also take
    Unicode digits, underscores, a plus sign and surrounding spaces."""
    if not re.fullmatch("-?[0-9]+", text):
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _emit(obj: dict) -> None:
    sys.stdout.write(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def cmd_group(args: argparse.Namespace) -> int:
    G = build_group(args.spec, max_order=args.max_order)
    cd = conjugacy_classes(G)
    _emit({
        "spec": args.spec,
        "order": G.order,
        "class_sizes": list(cd.sizes),
        "class_count": len(cd.classes),
        "center_size": cd.center.bit_count(),
        "labels": list(G.labels),
        "properties": dataclasses.asdict(group_properties(G)),
    })
    return 0


def cmd_lattice(args: argparse.Namespace) -> int:
    rack = rack_from_spec(args.spec, max_order=args.max_order)
    lat = enumerate_subracks(rack, args.budget_nodes)
    # read off the factor of L(R) = L(R - T) x 2^T; only the export expands
    stats = product_statistics(*lat.product_form())
    out = {
        "spec": args.spec,
        "rack_size": rack.size,
        "nodes": stats.nodes,
        "cover_edges": stats.cover_edges,
        "atoms": stats.atoms,
        "coatoms": stats.coatoms,
        "graded": stats.graded,
        "min_maximal_chain": stats.lengths[0],
        "max_maximal_chain": stats.lengths[-1],
        "chain_lengths": list(stats.lengths),
    }
    if args.export is not None:
        # L(R) is built before the file is opened, so a failure leaves it as it was
        full = lat.expand()
        try:
            with open(args.export, "w", encoding="utf-8") as fh:
                fh.writelines(export_lattice_lines(full))
        except OSError as exc:
            print(f"racklab: cannot write export {args.export}: {exc.strerror or exc}",
                  file=sys.stderr)
            return _USAGE_ERROR
        out["export"] = args.export
    _emit(out)
    return 0


def cmd_homology(args: argparse.Namespace) -> int:
    t0 = time.monotonic()
    rack = rack_from_spec(args.spec, max_order=args.max_order)
    if rack.size == 0:
        print(f"racklab: rack {args.spec} is empty: its subrack lattice has one node "
              "and no order complex", file=sys.stderr)
        return _USAGE_ERROR
    lat = enumerate_subracks(rack, args.budget_nodes)
    P, t = lat.product_form()
    H = reduced_homology(order_complex(P, args.budget_simplices, t))
    out = {"spec": args.spec, "rack_size": rack.size, "nodes": lat.n}
    out.update(H.to_jsonable())
    out["sphere_dimension"] = H.sphere_dimension
    out["seconds"] = round(time.monotonic() - t0, 3) if args.timings else None
    _emit(out)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    ids = None if args.all or not args.check else list(args.check)
    cfg = VerifyConfig(
        max_order=args.max_order,
        node_budget=args.budget_nodes,
        simplex_budget=args.budget_simplices,
        timings=args.timings,
    )
    report = run_checks(ids, cfg, workers=args.workers)
    if args.format == "json":
        sys.stdout.write(report_to_json(report))
    else:
        sys.stdout.write(report_to_csv(report))
    return 1 if report["status"] == "fail" else 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The `racklab` argument parser, built once per process and shared by
    every `main` call.  It holds no function: `main` looks the command's
    `cmd_*` up on the module at each call, so a `cmd_*` replaced after the
    parser was built is the one that runs.  Parsing leaves the parser as it
    was, and each parse returns a new namespace with new lists."""
    p = argparse.ArgumentParser(
        prog="racklab",
        description="finite groups, conjugation racks, subrack lattices and their homology",
    )
    sub = p.add_subparsers(dest="command", required=True)

    # each command takes only the flags it reads
    flags = {
        "--max-order": dict(type=_positive_int, default=DEFAULT_MAX_ORDER,
                            help="largest group order to construct"),
        "--budget-nodes": dict(type=_positive_int, default=DEFAULT_NODE_BUDGET,
                               help="lattice node budget"),
        "--budget-simplices": dict(type=_positive_int, default=DEFAULT_SIMPLEX_BUDGET,
                                   help="most simplices the order complex of the full "
                                        "lattice L(R) may have; they are counted "
                                        "before any is built"),
        "--timings": dict(action="store_true",
                          help="include wall-clock timings (non-deterministic output)"),
    }

    def add_flags(sp, *names):
        for name in names:
            sp.add_argument(name, **flags[name])

    g = sub.add_parser("group", help="order, classes, center and properties of a group")
    g.add_argument("spec", help='group spec, e.g. "S4", "D8xZ3", "SL(2,3)"')
    add_flags(g, "--max-order")

    l = sub.add_parser("lattice", help="enumerate the subrack lattice of a rack spec")
    l.add_argument("spec", help='rack spec, e.g. "S4:cycles(4)", "D8:noncentral", "Z4"')
    l.add_argument("--export", metavar="PATH", help="write the line-oriented lattice export")
    add_flags(l, "--max-order", "--budget-nodes")

    h = sub.add_parser("homology", help="reduced integer homology of the order complex")
    h.add_argument("spec", help="rack spec")
    add_flags(h, "--max-order", "--budget-nodes", "--budget-simplices", "--timings")

    v = sub.add_parser("verify", help="run the verification suite")
    which = v.add_mutually_exclusive_group()
    which.add_argument("--all", action="store_true", help="run every check")
    which.add_argument("--check", action="append", metavar="ID",
                       help=f"run a single check (repeatable); one of: {', '.join(sorted(CHECKS))}")
    v.add_argument("--format", choices=("json", "csv"), default="json")
    # unset, verify keeps its full catalog: A6 (order 360) is above DEFAULT_MAX_ORDER
    v.add_argument("--max-order", type=_positive_int,
                   help="restrict every check to groups of at most this order "
                        "(default: no limit)")
    add_flags(v, "--budget-nodes", "--budget-simplices", "--timings")
    v.add_argument("--workers", type=_positive_int, default=1,
                   help="run checks concurrently in this many processes "
                        "(at least 1, at most the CPU count)")
    return p


def main(argv: list[str] | None = None) -> int:
    """Run one command line (default `sys.argv[1:]`) and return its exit
    code: 0, 1 when `verify` has a failing check, and 2 on a refused input
    or an export that cannot be written; a malformed command line exits 2
    from the parser."""
    args = build_parser().parse_args(argv)
    # the names are read at this call: a patched `cmd_*` is the one that runs
    commands = {"group": cmd_group, "lattice": cmd_lattice, "homology": cmd_homology,
                "verify": cmd_verify}
    try:
        return commands[args.command](args)
    except (GroupSpecError, RackAxiomError, CapExceeded, BudgetExceeded) as exc:
        print(f"racklab: {exc}", file=sys.stderr)
        return _USAGE_ERROR
    except UnknownCheckError as exc:
        print(f"racklab: {exc.args[0]}", file=sys.stderr)
        return _USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
