"""The named group catalog the verification suite sweeps, and a one-pass
per-group analysis bundle so each lattice is enumerated once."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .groups import (
    GroupProperties,
    all_subgroups,
    build_group,
    check_class_avoidance,
    conjugacy_classes,
    core_and_normalizer,
    group_properties,
    is_nilpotent_lcs,
    subgroup_conjugates,
)
from .lattice import (
    DEFAULT_NODE_BUDGET,
    closure_bar,
    compute_M,
    coatoms,
    enumerate_subracks,
    gradedness,
    int_lattice,
    is_boolean,
    is_boolean_sets,
    product_decomposition_check,
)
from .racks import conjugation_rack

# every abelian group of order <= 16, one spec per isomorphism class
ABELIAN_LE16 = (
    "Z1", "Z2", "Z3", "Z4", "Z2xZ2", "Z5", "Z6", "Z7",
    "Z8", "Z4xZ2", "Z2xZ2xZ2", "Z9", "Z3xZ3", "Z10", "Z11",
    "Z12", "Z6xZ2", "Z13", "Z14", "Z15",
    "Z16", "Z8xZ2", "Z4xZ4", "Z4xZ2xZ2", "Z2xZ2xZ2xZ2",
)

NONABELIAN_CATALOG = (
    "S3", "D8", "Q8", "D10", "D12", "A4", "DIC3", "D14", "D16", "Q16",
    "SD16", "S3xZ2", "S3xZ3", "D8xZ2", "Q8xZ2", "TV18", "S4", "SL(2,3)",
)

CATALOG = ABELIAN_LE16 + NONABELIAN_CATALOG

GRADED_NONABELIAN = ("S3", "D8", "Q8")

# the catalog groups with a nontrivial center, whose lattices split off a
# Boolean factor
CENTRAL_CATALOG = ABELIAN_LE16[1:] + (
    "D8", "Q8", "D12", "DIC3", "D16", "Q16", "SD16", "S3xZ2", "S3xZ3",
    "D8xZ2", "Q8xZ2", "SL(2,3)",
)

# groups whose order complex is checked against a (c-2)-sphere
SPHERE_LIST = ("Z2", "Z3", "Z4", "Z5", "Z6", "S3", "D8", "Q8", "D10", "A4", "D12", "DIC3")

# required maximal-chain cover-lengths per group
CHAIN_WITNESSES = {
    "SL(2,3)": (8, 10),
    "D18": (8, 10),
    "TV18": (8, 10),
    "S3xZ2": (7, 8),
    "D8xZ3": (16, 18),
    "Q8xZ3": (16, 18),
}


@dataclass(frozen=True)
class GroupAnalysis:
    properties: GroupProperties
    nilpotent_lcs: bool
    graded: bool
    coatoms_are_class_complements: bool
    int_size: int
    int_is_boolean: bool
    lattice_is_boolean: bool
    m_member_sets: tuple[int, ...]
    m_members_are_nonnormal_subgroups: bool
    m_equals_nonnormal_maximal: bool
    maximal_m_self_normalizing: bool
    nonconjugate_maximal_closures_distinct: bool
    class_avoidance_ok: bool
    product_ok: bool | None  # None when the center is trivial


@lru_cache(maxsize=None)
def analyze_group(spec: str, node_budget: int = DEFAULT_NODE_BUDGET) -> GroupAnalysis:
    G = build_group(spec)
    cd = conjugacy_classes(G)
    props = group_properties(G)
    L = enumerate_subracks(conjugation_rack(G, provenance=spec), node_budget)

    full = (1 << G.order) - 1
    expected_coat = sorted(
        (full & ~c for c in cd.classes), key=lambda s: (s.bit_count(), s)
    )
    got_coat = sorted((L.sets[v] for v in coatoms(L)), key=lambda s: (s.bit_count(), s))
    coatoms_ok = got_coat == expected_coat

    ints = int_lattice(L)
    int_ok = len(ints) == 2 ** len(cd.classes) and is_boolean_sets(ints)

    mrep = compute_M(L, cd)
    m_sets = tuple(L.sets[v] for v in mrep.members)
    subs = all_subgroups(G)
    sub_masks = {h.elems: h for h in subs}
    m_are_nonnormal_subgroups = all(
        s in sub_masks and not sub_masks[s].normal for s in m_sets
    )
    nn_maximal = sorted(h.elems for h in subs if h.maximal and not h.normal)
    m_eq_nnmax = sorted(m_sets) == nn_maximal

    # maximal members of M under inclusion are self-normalizing
    self_nor = True
    for s in m_sets:
        if any(t != s and t & s == s for t in m_sets):
            continue
        _, normalizer = core_and_normalizer(G, s)
        if normalizer.elems != s:
            self_nor = False

    # non-conjugate maximal subgroups have distinct class-union closures
    orbits = []
    seen = set()
    for h in subs:
        if not h.maximal or h.elems in seen:
            continue
        conj = subgroup_conjugates(G, h.elems)
        seen |= conj
        orbits.append(min(conj))
    closures = [closure_bar(cd, m) for m in orbits]
    diffclo_ok = len(set(closures)) == len(closures)

    avoid_ok = check_class_avoidance(G).ok

    product_ok = None
    if cd.center.bit_count() > 1:
        product_ok = product_decomposition_check(G, lattice=L, node_budget=node_budget).ok

    return GroupAnalysis(
        properties=props,
        nilpotent_lcs=is_nilpotent_lcs(G),
        graded=gradedness(L).is_graded,
        coatoms_are_class_complements=coatoms_ok,
        int_size=len(ints),
        int_is_boolean=int_ok,
        lattice_is_boolean=is_boolean(L),
        m_member_sets=m_sets,
        m_members_are_nonnormal_subgroups=m_are_nonnormal_subgroups,
        m_equals_nonnormal_maximal=m_eq_nnmax,
        maximal_m_self_normalizing=self_nor,
        nonconjugate_maximal_closures_distinct=diffclo_ok,
        class_avoidance_ok=avoid_ok,
        product_ok=product_ok,
    )
