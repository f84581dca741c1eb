"""The claim-verification suite behind `racklab verify`.

Each check is a declaration: an id, how the expected values were obtained
("stated-result" for published values, "derived-oracle" for values computed by
an independent method, "definition" for direct consequences of definitions),
the claim text, the rack specs it runs on, and a body that turns the specs in
range into (expected, computed, ok).  One runner applies `--max-order` to the
specs, skips a check none of whose specs is left, and builds every result
record.
"""

from __future__ import annotations

import json
import os
import random
import time
from dataclasses import asdict, dataclass
from typing import Callable

from . import catalog, groups
from .groups import (
    build_group,
    conjugacy_classes,
    core_and_normalizer,
    parse_group_spec,
    spec_order,
    subgroup_closure_mask,
    subgroup_conjugates,
)
from .lattice import (
    BudgetExceeded,
    DEFAULT_NODE_BUDGET,
    all_maximal_chain_lengths,
    brute_force_covers,
    brute_force_subracks,
    closure_bar,
    coatoms,
    compute_M,
    connected_components_proper,
    enumerate_subracks,
    int_lattice,
    is_boolean,
    iter_closed_sets_lectic,
    product_decomposition_check,
    product_statistics,
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
    order_complex,
    reduced_homology,
)
from .work import ledger


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
        return asdict(self)


# ---------------------------------------------------------------------------
# the registry and the one instance runner

CHECKS: dict[str, Callable[[VerifyConfig], CheckResult]] = {}


def _group_order(spec: str) -> int:
    """Order of the group a rack spec "GROUP[:FILTER]" is built from."""
    return spec_order(parse_group_spec(spec.partition(":")[0]))


def _run_check(check_id, source, claim, instances, cfg: VerifyConfig, body) -> CheckResult:
    specs = list(instances() if callable(instances) else instances)
    if cfg.max_order is not None:
        specs = [s for s in specs if _group_order(s) <= cfg.max_order]
    if not specs:
        return CheckResult(
            check_id, claim, source, "skipped", None, None,
            skip_reason="max-order excludes all instances",
        )
    ledger["instances"] += len(specs)
    expected, computed, ok = body(specs, cfg)
    return CheckResult(check_id, claim, source, "pass" if ok else "fail", expected, computed)


def _check(check_id: str, source: str, instances, claim: str):
    """Declare and register a check.

    `instances` is a sequence of rack specs, or a callable returning one when
    the sequence must be read at call time.  The decorated body takes
    (specs, cfg), with specs the instances within `cfg.max_order`, and returns
    (expected, computed, ok); the module-level name then holds the public
    `check_<name>(cfg) -> CheckResult` that CHECKS maps the id to.
    """

    def declare(body) -> Callable[[VerifyConfig], CheckResult]:
        def check(cfg: VerifyConfig) -> CheckResult:
            return _run_check(check_id, source, claim, instances, cfg, body)

        check.__name__ = check.__qualname__ = "check_" + check_id.replace("-", "_")
        CHECKS[check_id] = check
        return check

    return declare


def _each(one):
    """A body that sweeps `one(spec, cfg) -> (expected, computed, ok)` over
    the specs, keying expected and computed by spec."""

    def body(specs, cfg):
        expected, computed, ok = {}, {}, True
        for spec in specs:
            expected[spec], computed[spec], good = one(spec, cfg)
            ok &= good
        return expected, computed, ok

    return body


# ---------------------------------------------------------------------------
# checks
#
# The group checks read L(G) = P x 2^Z off the factor P = L(G - Z) that
# `enumerate_subracks` splits off at the center Z, the trivial part of the
# group's rack, through `catalog.analyze_group` or `product_form()`; the lemma
# is what `product-decomposition` verifies.  A maximal chain of L(G) is one
# of P plus |Z| center steps, and intervals of a Boolean lattice are Boolean,
# so L(G) is graded, or Boolean, exactly when P is; `sphere-theorem` shifts
# P's homology by |Z|.  `expand()` gives L(R) to `lattice-bruteforce` and
# `homology-consistency` by a lemma-free walk of the whole rack, held to the
# product's node count, and to `fourcycle-rack`, `fivecycle-rack`,
# `partition-iso` and `kequal-fibers`, whose racks have T empty, as the factor.
# `product-decomposition` walks each distinct (rack table, center) once and
# gives that verdict to every spec with the same pair: the oracle reads a
# group only through those two, so equal pairs give equal reports (the five
# order-16 abelian groups all have the trivial 16-element rack).


@_check(
    "sphere-theorem", "stated-result", lambda: catalog.SPHERE_LIST,
    "the order complex of the full subrack lattice of a group with c "
    "conjugacy classes has the reduced homology of a (c-2)-sphere",
)
@_each
def check_sphere_theorem(spec, cfg):
    """L(G)'s homology, read off the complex of P = L(G - Z) shifted by
    t = |Z| as in `racklab homology`, with P, Z and the non-central classes
    taken from `catalog.analyze_group`, rests on the product lemma, which
    `product-decomposition` checks, and on the suspension, which
    `tests/test_homology_shift.py::test_shifted_homology_equals_the_full_complex`
    checks on every `catalog.SPHERE_LIST` group."""
    a = catalog.analyze_group(spec, cfg.node_budget)
    t = a.center.bit_count()
    c = len(a.classes) + t  # each central element is a class of its own
    H = reduced_homology(order_complex(a.factor, cfg.simplex_budget, t))
    good = H.sphere_dimension == c - 2
    computed = {
        "classes": c,
        "betti": {str(d): b for d, b in sorted(H.betti.items())},
        "torsion_free": not any(H.torsion.values()),
        "is_sphere": good,
    }
    return "single Z in dimension c-2, no torsion", computed, good


@_check(
    "graded-classification", "stated-result", lambda: catalog.CATALOG,
    "the full subrack lattice is graded exactly for abelian groups and "
    "the three smallest non-abelian groups",
)
@_each
def check_graded_classification(spec, cfg):
    a = catalog.analyze_group(spec, cfg.node_budget)
    want = a.properties.abelian or spec in catalog.GRADED_NONABELIAN
    graded = len(all_maximal_chain_lengths(a.factor)) == 1
    return want, graded, graded == want


@_check(
    "maxsg-chains", "stated-result", lambda: catalog.CHAIN_WITNESSES,
    "maximal chains of the stated cover-lengths exist in the full subrack "
    "lattices of the listed groups",
)
@_each
def check_maxsg_chains(spec, cfg):
    required = catalog.CHAIN_WITNESSES[spec]
    lat = enumerate_subracks(rack_from_spec(spec), cfg.node_budget)
    lengths = list(product_statistics(*lat.product_form()).lengths)
    return sorted(required), lengths, set(required) <= set(lengths)


@_check(
    "coatom-int-structure", "stated-result", lambda: catalog.CATALOG,
    "coatoms of the full subrack lattice are the all-but-one-class unions "
    "and the meet-closure of the coatoms is Boolean with 2^c elements",
)
@_each
def check_coatom_int_structure(spec, cfg):
    # the coatoms of P x 2^Z are (coatom of P) + Z and G - {z} for z in Z, and
    # Int(P x 2^Z) = Int(P) x 2^Z, Boolean when P's k coatoms have 2^k meets
    a = catalog.analyze_group(spec, cfg.node_budget)
    P = a.factor
    got = sorted(P.sets[v] for v in coatoms(P))
    coatoms_ok = got == sorted(P.sets[-1] & ~c for c in a.classes)
    ints = int_lattice(P)
    int_ok = len(ints) == 1 << len(a.classes) == 1 << len(got)
    computed = {
        "coatoms_ok": coatoms_ok,
        "int_size": len(ints) << a.center.bit_count(),
        "int_boolean": int_ok,
    }
    return "coatoms = class complements; |Int| = 2^c, Boolean", computed, coatoms_ok and int_ok


@_check(
    "m-of-g", "stated-result", lambda: catalog.CATALOG,
    "the M-set is empty exactly for nilpotent groups; for solvable groups "
    "it is the set of non-normal maximal subgroups; members are non-normal "
    "subgroups; maximal members are self-normalizing; non-conjugate "
    "maximal subgroups have distinct class-union closures",
)
@_each
def check_m_of_g(spec, cfg):
    a = catalog.analyze_group(spec, cfg.node_budget)
    G, props = a.group, a.properties
    # M(G) = {S + Z : S in M(P)}; compute_M gives the proof
    m_sets = [a.factor.sets[v] | a.center for v in compute_M(a.factor, a.classes).members]
    subs = a.subgroups
    sub_masks = {h.elems: h for h in subs}
    nonnormal_maximal = sorted(h.elems for h in subs if h.maximal and not h.normal)
    # maximal members of M under inclusion are self-normalizing
    self_normalizing = all(
        core_and_normalizer(G, s)[1] == s
        for s in m_sets
        if not any(t != s and t & s == s for t in m_sets)
    )
    # non-conjugate maximal subgroups have distinct class-union closures
    orbits, seen = [], set()
    for h in subs:
        if h.maximal and h.elems not in seen:
            conj = subgroup_conjugates(G, h.elems)
            seen |= conj
            orbits.append(min(conj))
    cd = conjugacy_classes(G)
    closures = [closure_bar(cd.classes, m) for m in orbits]
    computed = {
        "members": len(m_sets),
        "empty_iff_nilpotent": (not m_sets) == props.nilpotent,
        # the lower central series against "every maximal subgroup is normal"
        "nilpotency_criteria_agree": props.nilpotent == all(h.normal for h in subs if h.maximal),
        "equals_nonnormal_maximal": sorted(m_sets) == nonnormal_maximal if props.solvable else True,
        "members_are_nonnormal_subgroups": all(
            s in sub_masks and not sub_masks[s].normal for s in m_sets
        ),
        "maximal_members_self_normalizing": self_normalizing,
        "nonconjugate_maximal_closures_distinct": len(set(closures)) == len(closures),
    }
    ok = all(v for k, v in computed.items() if k != "members")
    return "all five M-set facts", computed, ok


@_check(
    "boolean-iff-abelian", "stated-result", lambda: catalog.CATALOG,
    "the full subrack lattice is a Boolean algebra exactly for abelian groups",
)
@_each
def check_boolean_iff_abelian(spec, cfg):
    a = catalog.analyze_group(spec, cfg.node_budget)
    boolean = is_boolean(a.factor)
    computed = {"abelian": a.properties.abelian, "boolean": boolean}
    return "boolean == abelian", computed, boolean == a.properties.abelian


@_check(
    "partition-iso", "derived-oracle",
    ("S3:transpositions", "S4:transpositions", "S5:transpositions"),
    "the subrack lattice of the transposition rack of the symmetric group "
    "on n letters is order-isomorphic to the partition lattice",
)
def check_partition_iso(specs, cfg):
    bell = {3: 5, 4: 15, 5: 52}
    expected, computed, ok = {}, {}, True
    for spec in specs:
        (term,) = parse_group_spec(spec.partition(":")[0])
        n = term.param
        rep = transposition_rack_isomorphism(n, cfg.node_budget)
        expected[f"n={n}"] = {"count": bell[n]}
        computed[f"n={n}"] = {
            "subracks": rep.count_left,
            "partitions": rep.count_right,
            "order_isomorphism": rep.ok,
        }
        ok &= rep.ok and rep.count_left == bell[n] == rep.count_right
    return expected, computed, ok


@_check(
    "fourcycle-rack", "derived-oracle", ("S4:cycles(4)",),
    "the rack of 4-cycles in S4 has 11 subracks; the proper part of its "
    "lattice has 3 components, reduced H0 of rank 2, and dimension 1",
)
def check_fourcycle_rack(specs, cfg):
    (spec,) = specs
    lat = enumerate_subracks(rack_from_spec(spec), cfg.node_budget).expand()
    K = order_complex(lat, cfg.simplex_budget)
    H = reduced_homology(K)
    computed = {
        "subracks": lat.n,
        "components": connected_components_proper(lat),
        "h0_rank": H.betti.get(0, 0),
        "dimension": K.dim,
    }
    expected = {"subracks": 11, "components": 3, "h0_rank": 2, "dimension": 1}
    return expected, computed, computed == expected


@_check(
    "fivecycle-rack", "derived-oracle", ("A5:cycles(5)",),
    "the rack of 5-cycles in A5 has 94 subracks and its lattice is not "
    "graded, with maximal chains of cover-lengths 4 and 5",
)
def check_fivecycle_rack(specs, cfg):
    (spec,) = specs
    lat = enumerate_subracks(rack_from_spec(spec), cfg.node_budget).expand()
    lengths = all_maximal_chain_lengths(lat)
    computed = {
        "subracks": lat.n,
        "graded": len(lengths) == 1,
        "chain_lengths": list(lengths),
        "note": (
            "lengths count cover steps; under an elements-between-the-bounds "
            "convention the same witness chains read 5 and 3"
        ),
    }
    expected = {"subracks": 94, "graded": False, "chain_lengths_include": [4, 5]}
    ok = lat.n == 94 and len(lengths) > 1 and {4, 5} <= set(lengths)
    return expected, computed, ok


@_check(
    "kequal-fibers", "stated-result", ("A6:cycles(3)",),
    "for 3-cycles in A6: the orbit map image is the 3-equal partition "
    "lattice, every lower fiber has a unique maximum, the 3-equal lattice "
    "has at least two nonzero reduced Betti dimensions, and both order "
    "complexes have equal homology",
)
def check_kequal_fibers(specs, cfg):
    pcycles = pcycle_rack_and_lattice(6, 3, cfg.node_budget)
    rep = quillen_fiber_check(6, 3, pcycles=pcycles)
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
        H_rack = reduced_homology(order_complex(pcycles[1], cfg.simplex_budget))
        comparison_ok = (H_rack.betti, H_rack.torsion) == (H_ke.betti, H_ke.torsion)
        comparison = "equal" if comparison_ok else "different"
        computed["rack_betti"] = {str(d): b for d, b in sorted(H_rack.betti.items())}
    except BudgetExceeded:
        pass
    computed["homology_comparison"] = comparison
    expected = {
        "image_equals_kequal": True,
        "all_fibers_unique_max": True,
        "nonzero_betti_dimensions": ">= 2",
        "homology_comparison": "equal or skipped(budget)",
    }
    return expected, computed, rep.ok and len(nonzero) >= 2 and comparison_ok


@_check(
    "d8-q8-rack-iso", "stated-result", ("D8", "Q8"),
    "the conjugation racks of the two non-abelian groups of order 8 are isomorphic",
)
def check_d8_q8_rack_iso(specs, cfg):
    f = rack_isomorphism(*(rack_from_spec(s) for s in specs))
    computed = {"isomorphism": list(f) if f is not None else None}
    return {"isomorphism": "exists"}, computed, f is not None


@_check(
    "class-avoidance", "stated-result", lambda: catalog.CATALOG,
    "every proper subgroup misses at least one conjugacy class entirely",
)
@_each
def check_class_avoidance(spec, cfg):
    a = catalog.analyze_group(spec, cfg.node_budget)
    rep = groups.check_class_avoidance(a.group, a.subgroups)  # the bare name is this check
    return True, True if rep.ok else rep.detail, rep.ok


@_check(
    "product-decomposition", "stated-result", lambda: catalog.CENTRAL_CATALOG,
    "splitting off central elements decomposes the subrack lattice as the "
    "product of the non-central lattice and a Boolean factor",
)
def check_product_decomposition(specs, cfg):
    """Run the oracle once per distinct (rack table, center) and give each
    spec its key's verdict.

    The sharing is exact.  The oracle is given the rack and center of the
    key and reads the rack only through `op`: its `inv_op` and
    `trivial_part` are functions of `op`, the walk and the factor
    enumeration see only those tables, and the report carries counts and a
    detail string, never a label.  Two specs with equal keys therefore get
    equal reports.  An abelian group's rack is the trivial rack on its
    elements, so the five order-16 abelian groups share one 65,536-node
    walk; over `CENTRAL_CATALOG` 36 specs make 25 walks.
    """
    verdicts: dict[tuple, bool] = {}
    computed, ok = {}, True
    for spec in specs:
        G = build_group(spec)
        rack, center = conjugation_rack(G), conjugacy_classes(G).center
        key = (rack.op, center)
        if key not in verdicts:
            report = product_decomposition_check(rack, center, node_budget=cfg.node_budget)
            verdicts[key] = report.ok
        computed[spec] = verdicts[key]
        ok &= computed[spec]
    return dict.fromkeys(specs, True), computed, ok


@_check(
    "rack-axioms", "definition", lambda: catalog.CATALOG,
    "every constructed conjugation rack satisfies the rack axioms and is a quandle",
)
@_each
def check_rack_axioms(spec, cfg):
    rack = rack_from_spec(spec)
    revalidated = validate_rack(rack.op, rack.labels)
    good = is_quandle(revalidated) and revalidated.inv_op == rack.inv_op
    return True, good, good


@_check(
    "closure-laws", "definition", ("S3", "S4", "A4", "D10", "Q8", "TV18"),
    "subrack closure is extensive, monotone and idempotent; closure under "
    "the operation alone agrees; a seed generating the whole group closes "
    "to a union of conjugacy classes",
)
def check_closure_laws(specs, cfg):
    rng = random.Random(20260810)
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
                ok &= c1 == closure_bar(cd.classes, c1)
            trials += 1
    return {"all_laws_hold": True}, {"trials": trials, "all_laws_hold": ok}, ok


BRUTEFORCE_RACKS = (
    "S3", "S4:cycles(4)", "D8", "Q8", "D8:noncentral", "D10", "A4", "Z6",
    "D12:noncentral", "S4:transpositions", "DIC3",
)


@_check(
    "lattice-bruteforce", "derived-oracle", lambda: BRUTEFORCE_RACKS,
    "lattice enumeration equals the brute-force subset scan and the "
    "lectic enumeration on every rack of size at most 14",
)
def check_lattice_bruteforce(specs, cfg):
    expected, computed, ok = {}, {}, True
    for spec in specs:
        rack = rack_from_spec(spec)
        lat = enumerate_subracks(rack, cfg.node_budget).expand()
        bf = brute_force_subracks(rack)
        lectic = sorted(iter_closed_sets_lectic(rack), key=lambda m: (m.bit_count(), m))
        # the covers must also be the Hasse diagram of the scanned family
        good = lat.sets == bf == lectic and list(lat.edges()) == brute_force_covers(bf)
        computed[spec] = {"nodes": lat.n, "agree": good}
        expected[spec] = "three enumerations agree"
        ok &= good
    return expected, computed, ok


def _relabeled(K: OrderComplex, perm: dict[int, int]) -> OrderComplex:
    levels = []
    for level in K.simplices:
        levels.append(sorted(tuple(sorted(perm[v] for v in s)) for s in level))
    return OrderComplex([perm[v] for v in K.vertices], levels)


def _boundary_squared_zero(K: OrderComplex) -> bool:
    """Whether every composite of two boundary maps of K is zero.  The
    columns are freed on return, before the caller reduces K."""
    mats = boundary_matrices(K)
    for lower, upper in zip(mats, mats[1:]):
        for col in upper:
            acc: dict[int, int] = {}
            for r, v in col.items():
                for rr, vv in lower[r].items():
                    acc[rr] = acc.get(rr, 0) + v * vv
            if any(acc.values()):
                return False
    return True


@_check(
    "homology-consistency", "definition", ("S3", "Z4", "D8", "S4:cycles(4)", "D10"),
    "boundary-of-boundary vanishes; Betti numbers reproduce the Euler "
    "characteristic; collapse preprocessing does not change homology; "
    "homology is invariant under vertex relabeling",
)
@_each
def check_homology_consistency(spec, cfg):
    lat = enumerate_subracks(rack_from_spec(spec), cfg.node_budget).expand()
    K = order_complex(lat, cfg.simplex_budget)
    dd_zero = _boundary_squared_zero(K)
    a = reduced_homology(K, collapse=True)
    b = reduced_homology(K, collapse=False)
    same = (a.betti, a.torsion, a.euler_characteristic) == (b.betti, b.torsion, b.euler_characteristic)
    verts = list(K.vertices)
    shuffled = verts[:]
    random.Random(0xBADA).shuffle(shuffled)
    c_res = reduced_homology(_relabeled(K, dict(zip(verts, shuffled))))
    relabel_same = (c_res.betti, c_res.torsion) == (a.betti, a.torsion)
    euler_ok = a.euler_characteristic == sum(
        (1 if d % 2 == 0 else -1) * n for d, n in enumerate(K.counts())
    ) - 1
    computed = {
        "boundary_squared_zero": dd_zero,
        "collapse_invariant": same,
        "relabel_invariant": relabel_same,
        "euler_consistent": euler_ok,
    }
    return True, computed, dd_zero and same and relabel_same and euler_ok


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
    ids = sorted(set(check_ids or CHECKS))  # a repeated id runs once
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
