"""The claim-verification suite behind `racklab verify`.

Each check is a pure function from a budget/filter configuration to a result
record carrying the claim text, how the expected values were obtained
("stated-result" for published values, "derived-oracle" for values computed by
an independent method, "definition" for direct consequences of definitions),
the computed values, and a pass/fail/skipped status.
"""

from __future__ import annotations

import json
import os
import random
import time
from dataclasses import dataclass
from typing import Callable

from . import catalog
from .groups import (
    build_group,
    conjugacy_classes,
    parse_group_spec,
    spec_order,
    subgroup_closure_mask,
)
from .lattice import (
    BudgetExceeded,
    DEFAULT_NODE_BUDGET,
    all_maximal_chain_lengths,
    brute_force_covers,
    brute_force_subracks,
    connected_components_proper,
    enumerate_subracks,
    gradedness,
    iter_closed_sets_lectic,
)
from .partitions import (
    k_equal_lattice,
    pcycle_rack_and_lattice,
    quillen_fiber_check,
    transposition_rack_isomorphism,
)
from .racks import (
    closure_forward_only,
    conjugation_rack,
    is_quandle,
    rack_from_spec,
    rack_isomorphism,
    validate_rack,
)
from .topology import (
    DEFAULT_SIMPLEX_BUDGET,
    OrderComplex,
    boundary_matrices,
    is_homology_sphere,
    order_complex,
    reduced_homology,
)


@dataclass(frozen=True)
class VerifyConfig:
    max_order: int | None = None
    node_budget: int = DEFAULT_NODE_BUDGET
    simplex_budget: int = DEFAULT_SIMPLEX_BUDGET
    timings: bool = False


class UnknownCheckError(KeyError):
    """A requested check id is not in the registry."""


@dataclass
class CheckResult:
    id: str
    claim: str
    source: str
    status: str  # pass | fail | skipped
    expected: object
    computed: object
    skip_reason: str | None = None
    seconds: float | None = None

    def to_jsonable(self) -> dict:
        return {
            "id": self.id,
            "claim": self.claim,
            "source": self.source,
            "status": self.status,
            "expected": self.expected,
            "computed": self.computed,
            "skip_reason": self.skip_reason,
            "seconds": self.seconds,
        }


def _filter_specs(specs, cfg: VerifyConfig) -> list[str]:
    if cfg.max_order is None:
        return list(specs)
    return [s for s in specs if spec_order(parse_group_spec(s)) <= cfg.max_order]


def _skipped(check_id, claim, source, reason) -> CheckResult:
    return CheckResult(check_id, claim, source, "skipped", None, None, skip_reason=reason)


# ---------------------------------------------------------------------------
# checks


def check_sphere_theorem(cfg: VerifyConfig) -> CheckResult:
    claim = (
        "the order complex of the full subrack lattice of a group with c "
        "conjugacy classes has the reduced homology of a (c-2)-sphere"
    )
    specs = _filter_specs(catalog.SPHERE_LIST, cfg)
    if not specs:
        return _skipped("sphere-theorem", claim, "stated-result", "max-order excludes all instances")
    computed = {}
    ok = True
    for spec in specs:
        G = build_group(spec)
        c = len(conjugacy_classes(G).classes)
        lat = enumerate_subracks(
            conjugation_rack(G, provenance=spec), cfg.node_budget
        )
        H = reduced_homology(order_complex(lat, cfg.simplex_budget))
        good = is_homology_sphere(H, c - 2)
        ok &= good
        computed[spec] = {
            "classes": c,
            "betti": {str(d): b for d, b in sorted(H.betti.items())},
            "torsion_free": not any(H.torsion.values()),
            "is_sphere": good,
        }
    expected = {spec: "single Z in dimension c-2, no torsion" for spec in specs}
    return CheckResult(
        "sphere-theorem", claim, "stated-result", "pass" if ok else "fail", expected, computed
    )


def check_graded_classification(cfg: VerifyConfig) -> CheckResult:
    claim = (
        "the full subrack lattice is graded exactly for abelian groups and "
        "the three smallest non-abelian groups"
    )
    specs = _filter_specs(catalog.CATALOG, cfg)
    if not specs:
        return _skipped("graded-classification", claim, "stated-result", "max-order excludes all instances")
    expected = {}
    computed = {}
    ok = True
    for spec in specs:
        a = catalog.analyze_group(spec, cfg.node_budget)
        want = a.properties.abelian or spec in catalog.GRADED_NONABELIAN
        expected[spec] = want
        computed[spec] = a.graded
        ok &= a.graded == want
    return CheckResult(
        "graded-classification", claim, "stated-result", "pass" if ok else "fail", expected, computed
    )


def check_maxsg_chains(cfg: VerifyConfig) -> CheckResult:
    claim = (
        "maximal chains of the stated cover-lengths exist in the full subrack "
        "lattices of the listed groups"
    )
    items = {
        spec: req
        for spec, req in catalog.CHAIN_WITNESSES.items()
        if spec in _filter_specs(list(catalog.CHAIN_WITNESSES), cfg)
    }
    if not items:
        return _skipped("maxsg-chains", claim, "stated-result", "max-order excludes all instances")
    expected = {}
    computed = {}
    ok = True
    for spec, required in sorted(items.items()):
        lat = enumerate_subracks(rack_from_spec(spec), cfg.node_budget)
        lengths = all_maximal_chain_lengths(lat)
        expected[spec] = sorted(required)
        computed[spec] = list(lengths)
        ok &= set(required) <= set(lengths)
    return CheckResult(
        "maxsg-chains", claim, "stated-result", "pass" if ok else "fail", expected, computed
    )


def check_coatom_int_structure(cfg: VerifyConfig) -> CheckResult:
    claim = (
        "coatoms of the full subrack lattice are the all-but-one-class unions "
        "and the meet-closure of the coatoms is Boolean with 2^c elements"
    )
    specs = _filter_specs(catalog.CATALOG, cfg)
    if not specs:
        return _skipped("coatom-int-structure", claim, "stated-result", "max-order excludes all instances")
    computed = {}
    ok = True
    for spec in specs:
        a = catalog.analyze_group(spec, cfg.node_budget)
        good = a.coatoms_are_class_complements and a.int_is_boolean
        computed[spec] = {
            "coatoms_ok": a.coatoms_are_class_complements,
            "int_size": a.int_size,
            "int_boolean": a.int_is_boolean,
        }
        ok &= good
    return CheckResult(
        "coatom-int-structure", claim, "stated-result", "pass" if ok else "fail",
        {spec: "coatoms = class complements; |Int| = 2^c, Boolean" for spec in specs}, computed,
    )


def check_m_of_g(cfg: VerifyConfig) -> CheckResult:
    claim = (
        "the M-set is empty exactly for nilpotent groups; for solvable groups "
        "it is the set of non-normal maximal subgroups; members are non-normal "
        "subgroups; maximal members are self-normalizing; non-conjugate "
        "maximal subgroups have distinct class-union closures"
    )
    specs = _filter_specs(catalog.CATALOG, cfg)
    if not specs:
        return _skipped("m-of-g", claim, "stated-result", "max-order excludes all instances")
    computed = {}
    ok = True
    for spec in specs:
        a = catalog.analyze_group(spec, cfg.node_budget)
        nilp_agree = a.properties.nilpotent == a.nilpotent_lcs
        empty_iff_nilpotent = (len(a.m_member_sets) == 0) == a.properties.nilpotent
        solv_eq = a.m_equals_nonnormal_maximal if a.properties.solvable else True
        rec = {
            "members": len(a.m_member_sets),
            "empty_iff_nilpotent": empty_iff_nilpotent,
            "nilpotency_criteria_agree": nilp_agree,
            "equals_nonnormal_maximal": solv_eq,
            "members_are_nonnormal_subgroups": a.m_members_are_nonnormal_subgroups,
            "maximal_members_self_normalizing": a.maximal_m_self_normalizing,
            "nonconjugate_maximal_closures_distinct": a.nonconjugate_maximal_closures_distinct,
        }
        computed[spec] = rec
        ok &= (
            empty_iff_nilpotent
            and nilp_agree
            and solv_eq
            and a.m_members_are_nonnormal_subgroups
            and a.maximal_m_self_normalizing
            and a.nonconjugate_maximal_closures_distinct
        )
    return CheckResult(
        "m-of-g", claim, "stated-result", "pass" if ok else "fail",
        {spec: "all five M-set facts" for spec in specs}, computed,
    )


def check_boolean_iff_abelian(cfg: VerifyConfig) -> CheckResult:
    claim = "the full subrack lattice is a Boolean algebra exactly for abelian groups"
    specs = _filter_specs(catalog.CATALOG, cfg)
    if not specs:
        return _skipped("boolean-iff-abelian", claim, "stated-result", "max-order excludes all instances")
    computed = {}
    ok = True
    for spec in specs:
        a = catalog.analyze_group(spec, cfg.node_budget)
        computed[spec] = {"abelian": a.properties.abelian, "boolean": a.lattice_is_boolean}
        ok &= a.lattice_is_boolean == a.properties.abelian
    return CheckResult(
        "boolean-iff-abelian", claim, "stated-result", "pass" if ok else "fail",
        {spec: "boolean == abelian" for spec in specs}, computed,
    )


def check_partition_iso(cfg: VerifyConfig) -> CheckResult:
    claim = (
        "the subrack lattice of the transposition rack of the symmetric group "
        "on n letters is order-isomorphic to the partition lattice"
    )
    bell = {3: 5, 4: 15, 5: 52}
    ns = [n for n in (3, 4, 5) if cfg.max_order is None or _factorial(n) <= cfg.max_order]
    if not ns:
        return _skipped("partition-iso", claim, "stated-result", "max-order excludes all instances")
    computed = {}
    ok = True
    for n in ns:
        rep = transposition_rack_isomorphism(n, cfg.node_budget)
        good = rep.ok and rep.count_left == bell[n] == rep.count_right
        computed[f"n={n}"] = {
            "subracks": rep.count_left,
            "partitions": rep.count_right,
            "order_isomorphism": rep.ok,
        }
        ok &= good
    return CheckResult(
        "partition-iso", claim, "derived-oracle", "pass" if ok else "fail",
        {f"n={n}": {"count": bell[n]} for n in ns}, computed,
    )


def check_fourcycle_rack(cfg: VerifyConfig) -> CheckResult:
    claim = (
        "the rack of 4-cycles in S4 has 11 subracks; the proper part of its "
        "lattice has 3 components, reduced H0 of rank 2, and dimension 1"
    )
    if cfg.max_order is not None and cfg.max_order < 24:
        return _skipped("fourcycle-rack", claim, "derived-oracle", "max-order excludes S4")
    lat = enumerate_subracks(rack_from_spec("S4:cycles(4)"), cfg.node_budget)
    K = order_complex(lat, cfg.simplex_budget)
    H = reduced_homology(K)
    computed = {
        "subracks": lat.n,
        "components": connected_components_proper(lat),
        "h0_rank": H.betti.get(0, 0),
        "dimension": K.dim,
    }
    expected = {"subracks": 11, "components": 3, "h0_rank": 2, "dimension": 1}
    ok = computed == expected
    return CheckResult(
        "fourcycle-rack", claim, "derived-oracle", "pass" if ok else "fail", expected, computed
    )


def check_fivecycle_rack(cfg: VerifyConfig) -> CheckResult:
    claim = (
        "the rack of 5-cycles in A5 has 94 subracks and its lattice is not "
        "graded, with maximal chains of cover-lengths 4 and 5"
    )
    if cfg.max_order is not None and cfg.max_order < 60:
        return _skipped("fivecycle-rack", claim, "derived-oracle", "max-order excludes A5")
    lat = enumerate_subracks(rack_from_spec("A5:cycles(5)"), cfg.node_budget)
    grad = gradedness(lat)
    computed = {
        "subracks": lat.n,
        "graded": grad.is_graded,
        "chain_lengths": list(grad.lengths),
        "note": (
            "lengths count cover steps; under an elements-between-the-bounds "
            "convention the same witness chains read 5 and 3"
        ),
    }
    expected = {"subracks": 94, "graded": False, "chain_lengths_include": [4, 5]}
    ok = lat.n == 94 and not grad.is_graded and {4, 5} <= set(grad.lengths)
    return CheckResult(
        "fivecycle-rack", claim, "derived-oracle", "pass" if ok else "fail", expected, computed
    )


def check_kequal_fibers(cfg: VerifyConfig) -> CheckResult:
    claim = (
        "for 3-cycles in A6: the orbit map image is the 3-equal partition "
        "lattice, every lower fiber has a unique maximum, the 3-equal lattice "
        "has at least two nonzero reduced Betti dimensions, and both order "
        "complexes have equal homology"
    )
    if cfg.max_order is not None and cfg.max_order < 360:
        return _skipped("kequal-fibers", claim, "stated-result", "max-order excludes A6")
    rep = quillen_fiber_check(6, 3, cfg.node_budget)
    ke = k_equal_lattice(6, 3)
    H_ke = reduced_homology(order_complex(ke, cfg.simplex_budget))
    nonzero = H_ke.nonzero_dimensions()
    computed = {
        "image_equals_kequal": rep.image_equals_kequal,
        "fibers_with_unique_max": f"{rep.fibers_with_unique_max}/{rep.fibers_total}",
        "kequal_betti": {str(d): b for d, b in sorted(H_ke.betti.items())},
        "nonzero_dimensions": nonzero,
    }
    comparison = "skipped(budget)"
    comparison_ok = True
    try:
        _, _, lat = pcycle_rack_and_lattice(6, 3, cfg.node_budget)
        H_rack = reduced_homology(order_complex(lat, cfg.simplex_budget))
        comparison_ok = (H_rack.betti, H_rack.torsion) == (H_ke.betti, H_ke.torsion)
        comparison = "equal" if comparison_ok else "different"
        computed["rack_betti"] = {str(d): b for d, b in sorted(H_rack.betti.items())}
    except BudgetExceeded:
        pass
    computed["homology_comparison"] = comparison
    ok = rep.ok and len(nonzero) >= 2 and comparison_ok
    expected = {
        "image_equals_kequal": True,
        "all_fibers_unique_max": True,
        "nonzero_betti_dimensions": ">= 2",
        "homology_comparison": "equal or skipped(budget)",
    }
    return CheckResult(
        "kequal-fibers", claim, "stated-result", "pass" if ok else "fail", expected, computed
    )


def check_d8_q8_rack_iso(cfg: VerifyConfig) -> CheckResult:
    claim = "the conjugation racks of the two non-abelian groups of order 8 are isomorphic"
    if cfg.max_order is not None and cfg.max_order < 8:
        return _skipped("d8-q8-rack-iso", claim, "stated-result", "max-order excludes order 8")
    f = rack_isomorphism(rack_from_spec("D8"), rack_from_spec("Q8"))
    computed = {"isomorphism": list(f) if f is not None else None}
    ok = f is not None
    return CheckResult(
        "d8-q8-rack-iso", claim, "stated-result", "pass" if ok else "fail",
        {"isomorphism": "exists"}, computed,
    )


def check_class_avoidance(cfg: VerifyConfig) -> CheckResult:
    claim = "every proper subgroup misses at least one conjugacy class entirely"
    specs = _filter_specs(catalog.CATALOG, cfg)
    if not specs:
        return _skipped("class-avoidance", claim, "stated-result", "max-order excludes all instances")
    computed = {}
    ok = True
    for spec in specs:
        a = catalog.analyze_group(spec, cfg.node_budget)
        computed[spec] = a.class_avoidance_ok
        ok &= a.class_avoidance_ok
    return CheckResult(
        "class-avoidance", claim, "stated-result", "pass" if ok else "fail",
        {spec: True for spec in specs}, computed,
    )


def check_product_decomposition(cfg: VerifyConfig) -> CheckResult:
    claim = (
        "splitting off central elements decomposes the subrack lattice as the "
        "product of the non-central lattice and a Boolean factor"
    )
    specs = [
        s for s in _filter_specs(catalog.CATALOG, cfg)
        if catalog.analyze_group(s, cfg.node_budget).product_ok is not None
    ]
    if not specs:
        return _skipped("product-decomposition", claim, "stated-result", "no group with nontrivial center in range")
    computed = {}
    ok = True
    for spec in specs:
        good = catalog.analyze_group(spec, cfg.node_budget).product_ok
        computed[spec] = good
        ok &= bool(good)
    return CheckResult(
        "product-decomposition", claim, "stated-result", "pass" if ok else "fail",
        {spec: True for spec in specs}, computed,
    )


def check_rack_axioms(cfg: VerifyConfig) -> CheckResult:
    claim = "every constructed conjugation rack satisfies the rack axioms and is a quandle"
    specs = _filter_specs(catalog.CATALOG, cfg)
    if not specs:
        return _skipped("rack-axioms", claim, "definition", "max-order excludes all instances")
    computed = {}
    ok = True
    for spec in specs:
        rack = rack_from_spec(spec)
        revalidated = validate_rack(rack.op, rack.labels)
        good = is_quandle(revalidated) and revalidated.inv_op == rack.inv_op
        computed[spec] = good
        ok &= good
    return CheckResult(
        "rack-axioms", claim, "definition", "pass" if ok else "fail",
        {spec: True for spec in specs}, computed,
    )


def check_closure_laws(cfg: VerifyConfig) -> CheckResult:
    claim = (
        "subrack closure is extensive, monotone and idempotent; closure under "
        "the operation alone agrees; a seed generating the whole group closes "
        "to a union of conjugacy classes"
    )
    rng = random.Random(20260810)
    specs = [s for s in ("S3", "S4", "A4", "D10", "Q8", "TV18") if s in _filter_specs(("S3", "S4", "A4", "D10", "Q8", "TV18"), cfg)]
    if not specs:
        return _skipped("closure-laws", claim, "definition", "max-order excludes all instances")
    trials = 0
    ok = True
    for spec in specs:
        G = build_group(spec)
        cd = conjugacy_classes(G)
        rack = conjugation_rack(G, provenance=spec)
        full = rack.full_mask()
        for _ in range(40):
            seed = rng.getrandbits(rack.size) & full
            extra = rng.getrandbits(rack.size) & full
            c1 = rack.closure(seed)
            ok &= c1 & seed == seed  # extensive
            ok &= rack.closure(c1) == c1  # idempotent
            ok &= rack.closure(seed | extra) & c1 == c1  # monotone
            ok &= closure_forward_only(rack, seed) == c1
            if subgroup_closure_mask(G, seed) == full:
                bar = 0
                for cm in cd.classes:
                    if cm & c1:
                        bar |= cm
                ok &= c1 == bar
            trials += 1
    computed = {"trials": trials, "all_laws_hold": ok}
    return CheckResult(
        "closure-laws", claim, "definition", "pass" if ok else "fail",
        {"all_laws_hold": True}, computed,
    )


BRUTEFORCE_RACKS = (
    "S3", "S4:cycles(4)", "D8", "Q8", "D8:noncentral", "D10", "A4", "Z6",
    "D12:noncentral", "S4:transpositions", "DIC3",
)


def check_lattice_bruteforce(cfg: VerifyConfig) -> CheckResult:
    claim = (
        "lattice enumeration equals the brute-force subset scan and the "
        "lectic enumeration on every rack of size at most 14"
    )
    computed = {}
    expected = {}
    ok = True
    for spec in BRUTEFORCE_RACKS:
        rack = rack_from_spec(spec)
        if rack.size > 14:
            computed[spec] = {"skipped": "rack too large for the subset scan", "size": rack.size}
            continue
        lat = enumerate_subracks(rack, cfg.node_budget)
        bf = brute_force_subracks(rack)
        lectic = sorted(iter_closed_sets_lectic(rack), key=lambda m: (m.bit_count(), m))
        # the covers must also be the Hasse diagram of the scanned family
        good = lat.sets == bf == lectic and list(lat.edges()) == brute_force_covers(bf)
        computed[spec] = {"nodes": lat.n, "agree": good}
        expected[spec] = "three enumerations agree"
        ok &= good
    return CheckResult(
        "lattice-bruteforce", claim, "derived-oracle", "pass" if ok else "fail",
        expected, computed,
    )


def _relabeled(K: OrderComplex, perm: dict[int, int]) -> OrderComplex:
    levels = []
    for level in K.simplices:
        levels.append(sorted(tuple(sorted(perm[v] for v in s)) for s in level))
    return OrderComplex([perm[v] for v in K.vertices], levels)


def check_homology_consistency(cfg: VerifyConfig) -> CheckResult:
    claim = (
        "boundary-of-boundary vanishes; Betti numbers reproduce the Euler "
        "characteristic; collapse preprocessing does not change homology; "
        "homology is invariant under vertex relabeling"
    )
    rng = random.Random(0xBADA)
    specs = ["S3", "Z4", "D8", "S4:cycles(4)", "D10"]
    computed = {}
    ok = True
    for spec in specs:
        lat = enumerate_subracks(rack_from_spec(spec), cfg.node_budget)
        K = order_complex(lat, cfg.simplex_budget)
        mats = boundary_matrices(K)
        dd_zero = True
        for d in range(len(mats) - 1):
            lower, upper = mats[d], mats[d + 1]
            for c, col in upper.cols.items():
                acc: dict[int, int] = {}
                for r, v in col.items():
                    for rr, vv in lower.cols.get(r, {}).items():
                        acc[rr] = acc.get(rr, 0) + v * vv
                if any(acc.values()):
                    dd_zero = False
        a = reduced_homology(K, collapse=True)
        b = reduced_homology(K, collapse=False)
        same = (a.betti, a.torsion, a.euler_characteristic) == (b.betti, b.torsion, b.euler_characteristic)
        verts = list(K.vertices)
        shuffled = verts[:]
        rng.shuffle(shuffled)
        perm = dict(zip(verts, shuffled))
        c_res = reduced_homology(_relabeled(K, perm))
        relabel_same = (c_res.betti, c_res.torsion) == (a.betti, a.torsion)
        euler_ok = a.euler_characteristic == sum(
            (1 if d % 2 == 0 else -1) * n for d, n in enumerate(K.counts())
        ) - 1
        good = dd_zero and same and relabel_same and euler_ok
        computed[spec] = {
            "boundary_squared_zero": dd_zero,
            "collapse_invariant": same,
            "relabel_invariant": relabel_same,
            "euler_consistent": euler_ok,
        }
        ok &= good
    return CheckResult(
        "homology-consistency", claim, "definition", "pass" if ok else "fail",
        {spec: True for spec in specs}, computed,
    )


def _factorial(n: int) -> int:
    out = 1
    for i in range(2, n + 1):
        out *= i
    return out


CHECKS: dict[str, Callable[[VerifyConfig], CheckResult]] = {
    "sphere-theorem": check_sphere_theorem,
    "graded-classification": check_graded_classification,
    "maxsg-chains": check_maxsg_chains,
    "coatom-int-structure": check_coatom_int_structure,
    "m-of-g": check_m_of_g,
    "boolean-iff-abelian": check_boolean_iff_abelian,
    "partition-iso": check_partition_iso,
    "fourcycle-rack": check_fourcycle_rack,
    "fivecycle-rack": check_fivecycle_rack,
    "kequal-fibers": check_kequal_fibers,
    "d8-q8-rack-iso": check_d8_q8_rack_iso,
    "class-avoidance": check_class_avoidance,
    "product-decomposition": check_product_decomposition,
    "rack-axioms": check_rack_axioms,
    "closure-laws": check_closure_laws,
    "lattice-bruteforce": check_lattice_bruteforce,
    "homology-consistency": check_homology_consistency,
}


def _run_one(cid: str, cfg: VerifyConfig) -> CheckResult:
    t0 = time.monotonic()
    res = CHECKS[cid](cfg)
    if cfg.timings:
        res.seconds = round(time.monotonic() - t0, 3)
    return res


def run_checks(
    check_ids: list[str] | None = None,
    cfg: VerifyConfig | None = None,
    workers: int = 1,
) -> dict:
    """Run the selected checks (all when None) and assemble the report.

    With workers > 1 the checks run in separate processes, at most one per
    CPU; the report is assembled in check-id order either way, so the output
    is identical.
    """
    cfg = cfg or VerifyConfig()
    ids = sorted(CHECKS) if not check_ids else sorted(check_ids)
    unknown = [i for i in ids if i not in CHECKS]
    if unknown:
        raise UnknownCheckError(f"unknown check ids: {', '.join(unknown)}")
    workers = min(workers, os.cpu_count() or 1)
    if workers > 1 and len(ids) > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_one, ids, [cfg] * len(ids)))
    else:
        results = [_run_one(cid, cfg) for cid in ids]
    counts = {
        "pass": sum(r.status == "pass" for r in results),
        "fail": sum(r.status == "fail" for r in results),
        "skipped": sum(r.status == "skipped" for r in results),
    }
    return {
        "suite": "racklab-verify",
        "version": 1,
        "status": "fail" if counts["fail"] else "pass",
        "counts": counts,
        "checks": [r.to_jsonable() for r in results],
    }


def report_to_json(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def report_to_csv(report: dict) -> str:
    import csv
    import io

    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["id", "status", "skip_reason", "seconds", "claim"])
    for c in report["checks"]:
        w.writerow([c["id"], c["status"], c["skip_reason"] or "", c["seconds"] if c["seconds"] is not None else "", c["claim"]])
    return buf.getvalue()
