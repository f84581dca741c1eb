"""The named group catalog the verification suite sweeps, and the cached
inputs of its group checks: each group, its properties, its subgroups,
enumerated once for every check that reads them, and the factor of
L(G) = L(G - Z) x 2^Z, taken unexpanded through `product_form()`.  Every set
the checks read, the subgroups, the factor's nodes and the classes among
them, is a mask of group elements."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .groups import (
    FiniteGroup, GroupProperties, SubgroupHandle, all_subgroups, build_group, conjugacy_classes,
    group_properties,
)
from .lattice import DEFAULT_NODE_BUDGET, SubrackLattice, enumerate_subracks
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
    """A group, its properties, its subgroups and the factor P of
    L(G) = P x 2^Z; only P is kept, not the `ProductLattice` with its rack's
    closure tables."""

    group: FiniteGroup
    properties: GroupProperties
    subgroups: tuple[SubgroupHandle, ...]  # all_subgroups(group)
    factor: SubrackLattice  # L(G - Z) on the group rack, its top G - Z
    center: int  # Z as a group mask
    classes: tuple[int, ...]  # the non-central classes, as group masks


@lru_cache(maxsize=None)
def analyze_group(spec: str, node_budget: int = DEFAULT_NODE_BUDGET) -> GroupAnalysis:
    """The group checks' shared inputs, built once per group.  `node_budget`
    counts the nodes of L(G), as it does for every lattice."""
    G = build_group(spec)
    rack = conjugation_rack(G, provenance=spec)
    factor, _ = enumerate_subracks(rack, node_budget).product_form()
    center = rack.trivial_part
    classes = tuple(c for c in conjugacy_classes(G).classes if not c & center)
    return GroupAnalysis(G, group_properties(G), tuple(all_subgroups(G)), factor, center, classes)
