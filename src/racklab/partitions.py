"""Set partition lattices, the k-equal sublattices, and the orbit-partition
machinery for racks of p-cycles in alternating groups."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import factorial
from typing import Iterable, Sequence

from .bitsets import bits, mask_of
from .groups import FiniteGroup, build_group
from .lattice import (
    DEFAULT_NODE_BUDGET,
    CoverPoset,
    SubrackLattice,
    _csr_from_edges,
    _union_find_roots,
    enumerate_subracks,
)
from .racks import Rack, conjugation_rack, filter_mask

MAX_PARTITION_N = 8


@dataclass(frozen=True)
class SetPartition:
    """Partition of {0..n-1}; blocks sorted internally and by minimum."""

    n: int
    blocks: tuple[tuple[int, ...], ...]

    @staticmethod
    def from_blocks(n: int, blocks: Iterable[Iterable[int]]) -> "SetPartition":
        canon = tuple(sorted((tuple(sorted(b)) for b in blocks if b), key=lambda b: b[0]))
        seen = [v for b in canon for v in b]
        if sorted(seen) != list(range(n)):
            raise ValueError("blocks must partition 0..n-1")
        return SetPartition(n, canon)

    @staticmethod
    def discrete(n: int) -> "SetPartition":
        return SetPartition(n, tuple((i,) for i in range(n)))

    @staticmethod
    def one_block(n: int) -> "SetPartition":
        return SetPartition(n, (tuple(range(n)),))

    def block_of(self, x: int) -> tuple[int, ...]:
        for b in self.blocks:
            if x in b:
                return b
        raise KeyError(x)

    def refines(self, other: "SetPartition") -> bool:
        """self <= other in the refinement order."""
        lookup = {}
        for i, b in enumerate(other.blocks):
            for v in b:
                lookup[v] = i
        return all(len({lookup[v] for v in b}) == 1 for b in self.blocks)

    def meet(self, other: "SetPartition") -> "SetPartition":
        """Common refinement."""
        lookup = {}
        for i, b in enumerate(other.blocks):
            for v in b:
                lookup[v] = i
        pieces: dict[tuple[int, int], list[int]] = {}
        for i, b in enumerate(self.blocks):
            for v in b:
                pieces.setdefault((i, lookup[v]), []).append(v)
        return SetPartition.from_blocks(self.n, pieces.values())

    def block_sizes(self) -> tuple[int, ...]:
        return tuple(sorted((len(b) for b in self.blocks), reverse=True))

    def __str__(self) -> str:
        return "|".join("".join(str(v + 1) for v in b) for b in self.blocks)


def all_partitions(n: int) -> list[SetPartition]:
    """Every set partition of {0..n-1} (Bell(n) of them), deterministically."""
    if n > MAX_PARTITION_N:
        raise ValueError(f"partition enumeration capped at n = {MAX_PARTITION_N}")
    out: list[SetPartition] = []

    def rec(i: int, blocks: list[list[int]]) -> None:
        if i == n:
            out.append(SetPartition.from_blocks(n, [list(b) for b in blocks]))
            return
        for b in blocks:
            b.append(i)
            rec(i + 1, blocks)
            b.pop()
        blocks.append([i])
        rec(i + 1, blocks)
        blocks.pop()

    rec(0, [])
    # bottom (discrete) first, top (one block) last; ids topological in refinement
    return sorted(out, key=lambda p: (-len(p.blocks), p.blocks))


class PartitionLattice(CoverPoset):
    """A family of set partitions under refinement, with cover relations."""

    __slots__ = ("elements", "index")

    def __init__(self, elements: list[SetPartition], edges):
        super().__init__(*_csr_from_edges(len(elements), edges))
        self.elements = elements
        self.index = {p: i for i, p in enumerate(elements)}


def partition_lattice(n: int) -> PartitionLattice:
    """The full partition lattice: covers merge exactly two blocks."""
    elements = all_partitions(n)
    index = {p: i for i, p in enumerate(elements)}
    edges = []
    for i, p in enumerate(elements):
        r = len(p.blocks)
        for a, b in combinations(range(r), 2):
            merged = [list(blk) for k, blk in enumerate(p.blocks) if k not in (a, b)]
            merged.append(list(p.blocks[a]) + list(p.blocks[b]))
            q = SetPartition.from_blocks(n, merged)
            edges.append((i, index[q]))
    return PartitionLattice(elements, edges)


def k_equal_lattice(n: int, k: int) -> PartitionLattice:
    """Partitions whose blocks all have size 1 or >= k, as an induced
    subposet of the partition lattice (discrete partition is the bottom, the
    one-block partition the top)."""
    if not 1 <= k <= n or n > MAX_PARTITION_N:
        raise ValueError("need 1 <= k <= n <= 8")
    elements = [
        p for p in all_partitions(n)
        if all(len(b) == 1 or len(b) >= k for b in p.blocks)
    ]
    m = len(elements)
    leq = [0] * m
    for i, p in enumerate(elements):
        row = 0
        for j, q in enumerate(elements):
            if i != j and p.refines(q):
                row |= 1 << j
        leq[i] = row
    edges = []
    for i in range(m):
        above = leq[i]
        for j in bits(above):
            # j covers i when nothing qualifying sits strictly between
            between = above & ~(1 << j)
            if not any((leq[t] >> j) & 1 for t in bits(between)):
                edges.append((i, j))
    return PartitionLattice(elements, edges)


# ---------------------------------------------------------------------------
# the transposition rack of S_n versus the partition lattice


@dataclass(frozen=True)
class IsomorphismReport:
    ok: bool
    count_left: int
    count_right: int
    detail: str


def _components_partition(n: int, perms: Sequence[tuple[int, ...]]) -> SetPartition:
    roots = _union_find_roots(n, ((i, p[i]) for p in perms for i in range(n)))
    groups: dict[int, list[int]] = {}
    for i, r in enumerate(roots):
        groups.setdefault(r, []).append(i)
    return SetPartition.from_blocks(n, groups.values())


def transposition_rack_isomorphism(
    n: int, node_budget: int = DEFAULT_NODE_BUDGET
) -> IsomorphismReport:
    """Check that mapping a subrack of transpositions to the partition of its
    connected components is an order isomorphism onto the partition lattice."""
    if not 3 <= n <= 5:
        raise ValueError("checked for n in 3..5 (rack size n(n-1)/2)")
    G = build_group(f"S{n}")
    rack = conjugation_rack(G, filter_mask(G, "transpositions"), provenance=f"S{n}:transpositions")
    lat = enumerate_subracks(rack, node_budget)
    perm_of_label = {G.labels[i]: G.perms[i] for i in range(G.order)}
    parts = all_partitions(n)
    part_index = {p: i for i, p in enumerate(parts)}
    if lat.n != len(parts):
        return IsomorphismReport(False, lat.n, len(parts), "element counts differ")
    images = []
    for s in lat.sets:
        perms = [perm_of_label[rack.labels[i]] for i in bits(s)]
        images.append(_components_partition(n, perms))
    if len(set(images)) != len(parts) or set(images) != set(parts):
        return IsomorphismReport(False, lat.n, len(parts), "image is not all partitions")
    for i in range(lat.n):
        for j in range(lat.n):
            left = lat.sets[i] & lat.sets[j] == lat.sets[i]
            right = images[i].refines(images[j])
            if left != right:
                return IsomorphismReport(
                    False, lat.n, len(parts), f"order disagrees at nodes {i}, {j}"
                )
    return IsomorphismReport(True, lat.n, len(parts), "order isomorphism verified")


# ---------------------------------------------------------------------------
# p-cycles in A_n: orbit map and lower fibers


def orbit_partition_map(
    n: int, rack: Rack, group: FiniteGroup, subrack_mask: int
) -> SetPartition:
    """Partition of {0..n-1} into orbits of the subgroup generated by the
    chosen cycles."""
    perm_of_label = {group.labels[i]: group.perms[i] for i in range(group.order)}
    perms = [perm_of_label[rack.labels[i]] for i in bits(subrack_mask)]
    return _components_partition(n, perms)


@dataclass(frozen=True)
class FiberReport:
    ok: bool
    image_equals_kequal: bool
    fibers_with_unique_max: int
    fibers_total: int
    lattice_nodes: int
    detail: str


def pcycle_rack_and_lattice(
    n: int, p: int, node_budget: int = DEFAULT_NODE_BUDGET
) -> tuple[FiniteGroup, Rack, SubrackLattice]:
    G = build_group(f"A{n}", max_order=max(120, factorial(n) // 2))
    rack = conjugation_rack(G, filter_mask(G, f"cycles({p})"), provenance=f"A{n}:cycles({p})")
    lat = enumerate_subracks(rack, node_budget)
    return G, rack, lat


def quillen_fiber_check(
    n: int,
    p: int,
    node_budget: int = DEFAULT_NODE_BUDGET,
    pcycles: tuple[FiniteGroup, Rack, SubrackLattice] | None = None,
) -> FiberReport:
    """For every proper tau in the k-equal lattice, the subracks mapping below
    tau must have the set of p-cycles supported inside tau's blocks as their
    unique maximal element; the image of the orbit map must be the whole
    k-equal lattice.

    `pcycles` is `pcycle_rack_and_lattice(n, p, node_budget)` when the caller
    has already built it; otherwise it is built here."""
    if p % 2 == 0 or p >= n - 2 or n > 6:
        raise ValueError("need an odd prime p < n-2 with n <= 6")
    G, rack, lat = pcycles or pcycle_rack_and_lattice(n, p, node_budget)
    kequal = k_equal_lattice(n, p)
    perm_of_label = {G.labels[i]: G.perms[i] for i in range(G.order)}
    cycle_perms = [perm_of_label[lab] for lab in rack.labels]
    images = [_components_partition(n, [cycle_perms[i] for i in bits(s)]) for s in lat.sets]
    image_ok = set(images) == set(kequal.elements)
    fibers_ok = 0
    total = 0
    detail = ""
    for tau in kequal.elements:
        if len(tau.blocks) in (n, 1):
            continue  # proper part only
        total += 1
        block_of = {}
        for bi, b in enumerate(tau.blocks):
            for v in b:
                block_of[v] = bi
        q_h = mask_of(
            i
            for i, perm in enumerate(cycle_perms)
            if len({block_of[v] for v in range(n) if perm[v] != v}) == 1
        )
        if q_h not in lat.index:
            detail = f"expected maximum of the fiber below {tau} is not a subrack"
            continue
        members = [
            v for v in range(lat.n) if images[v].refines(tau)
        ]
        if all(lat.sets[v] & q_h == lat.sets[v] for v in members):
            fibers_ok += 1
        elif not detail:
            detail = f"fiber below {tau} has an element outside its claimed maximum"
    ok = image_ok and fibers_ok == total
    if ok:
        detail = "image and lower fibers verified"
    elif not image_ok and not detail:
        detail = "orbit map image differs from the k-equal lattice"
    return FiberReport(ok, image_ok, fibers_ok, total, lat.n, detail)
