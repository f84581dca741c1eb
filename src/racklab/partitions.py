"""Set partition lattices, the k-equal sublattices, and the orbit-partition
machinery for racks of p-cycles in alternating groups.

The racks here are classes of cycles, which `rack_from_spec` builds from
their permutations and which carry them (`Rack.perms`), so no group is
built."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from math import factorial
from typing import Iterable, Sequence

from .bitsets import bits, mask_of
from .lattice import (
    DEFAULT_NODE_BUDGET,
    CoverPoset,
    SubrackLattice,
    _csr_from_edges,
    _union_find_roots,
    enumerate_subracks,
)
from .racks import Rack, rack_from_spec

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

    @cached_property
    def pairs(self) -> int:
        """The equivalence relation as a pair set: bit i * n + j for each
        i < j in one block."""
        return mask_of(i * self.n + j for b in self.blocks for i, j in combinations(b, 2))

    def refines(self, other: "SetPartition") -> bool:
        """self <= other in the refinement order: every block of self lies in
        a block of other, that is, its relation is inside other's."""
        return self.pairs & ~other.pairs == 0

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
    """The full partition lattice: covers merge exactly two blocks.

    Independent oracle: no library code calls it.  It builds the covers by
    definition, where `k_equal_lattice` filters the partitions and finds its
    covers by refinement, so the tests compare the two for k <= 2."""
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
    pairs = [p.pairs for p in elements]
    leq = [
        mask_of(j for j, q in enumerate(pairs) if j != i and p & ~q == 0)
        for i, p in enumerate(pairs)
    ]
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
    """Check that the subracks of the transposition rack of S_n are exactly
    the sets T(p), over the partitions p of {0..n-1}, of the transpositions
    whose swapped pair lies inside a block of p.

    Then p -> T(p) is an order isomorphism onto the subrack lattice, with
    inverse the partition into connected components.  It is onto by the
    check, and p <= q iff T(p) <= T(q): if p refines q, a pair inside a block
    of p lies inside a block of q; conversely, if T(p) <= T(q), then for
    i < j in one block of p the transposition (i j) is in T(q), so i and j
    share a block of q.  So T is injective as well, and the check also
    demands one set per partition and as many subracks as partitions."""
    if not 3 <= n <= 5:
        raise ValueError("checked for n in 3..5 (rack size n(n-1)/2)")
    rack = rack_from_spec(f"S{n}:transpositions")
    lat = enumerate_subracks(rack, node_budget).expand()  # T is empty
    parts = all_partitions(n)
    if lat.n != len(parts):
        return IsomorphismReport(False, lat.n, len(parts), "element counts differ")
    swapped = [orbit_partition_map(n, rack, 1 << i) for i in range(rack.size)]
    images = {mask_of(i for i, t in enumerate(swapped) if t.refines(p)) for p in parts}
    if len(images) != len(parts) or images != set(lat.sets):
        return IsomorphismReport(False, lat.n, len(parts), "the sets T(p) are not the subracks")
    return IsomorphismReport(True, lat.n, len(parts), "order isomorphism verified")


# ---------------------------------------------------------------------------
# p-cycles in A_n: orbit map and lower fibers


def orbit_partition_map(n: int, rack: Rack, subrack_mask: int) -> SetPartition:
    """Partition of {0..n-1} into orbits of the subgroup generated by the
    chosen cycles, read off `rack.perms`."""
    return _components_partition(n, [rack.perms[i] for i in bits(subrack_mask)])


@dataclass(frozen=True)
class FiberReport:
    ok: bool
    image_equals_kequal: bool
    fibers_with_unique_max: int
    fibers_total: int
    detail: str


def pcycle_rack_and_lattice(
    n: int, p: int, node_budget: int = DEFAULT_NODE_BUDGET
) -> tuple[Rack, SubrackLattice]:
    """The rack of p-cycles of A_n and its subrack lattice.

    `rack_from_spec` counts the rack before it lists it, so one over the
    enumeration cap is refused at once."""
    rack = rack_from_spec(f"A{n}:cycles({p})", max_order=max(120, factorial(n) // 2))
    lat = enumerate_subracks(rack, node_budget).expand()  # T is empty
    return rack, lat


def quillen_fiber_check(
    n: int, p: int, pcycles: tuple[Rack, SubrackLattice]
) -> FiberReport:
    """For every proper tau in the k-equal lattice, the subracks mapping below
    tau must have the set q_h of p-cycles supported inside tau's blocks as
    their unique maximal element; the image of the orbit map must be the
    whole k-equal lattice.

    `pcycles` is `pcycle_rack_and_lattice(n, p)`.  A cycle is supported
    inside a block of tau exactly when its own orbit partition refines tau,
    so q_h is found by pair-set inclusion.  Only q_h being a subrack needs a
    test.  Proof: each cycle of a subrack S lies in <S>, and it moves the
    points of its support transitively, so its support lies in one orbit of
    <S>.  If the orbit partition of S refines tau, that support lies in a
    block of tau, so S is inside q_h.  Conversely, the cycles of q_h map
    each block of tau to itself, so the orbits of <q_h> lie in blocks of
    tau, and q_h maps below tau once it is a subrack."""
    if p % 2 == 0 or p >= n - 2 or n > 6:
        raise ValueError("need an odd prime p < n-2 with n <= 6")
    rack, lat = pcycles
    kequal = k_equal_lattice(n, p)
    images = {orbit_partition_map(n, rack, s) for s in lat.sets}
    supports = [orbit_partition_map(n, rack, 1 << i).pairs for i in range(rack.size)]
    image_ok = images == set(kequal.elements)
    fibers_ok = 0
    total = 0
    detail = ""
    for tau in kequal.elements:
        if len(tau.blocks) in (n, 1):
            continue  # proper part only
        total += 1
        outside = ~tau.pairs
        q_h = mask_of(i for i, sp in enumerate(supports) if sp & outside == 0)
        if q_h in lat.index:
            fibers_ok += 1
        else:
            detail = f"expected maximum of the fiber below {tau} is not a subrack"
    ok = image_ok and fibers_ok == total
    if ok:
        detail = "image and lower fibers verified"
    elif not image_ok and not detail:
        detail = "orbit map image differs from the k-equal lattice"
    return FiberReport(ok, image_ok, fibers_ok, total, detail)
