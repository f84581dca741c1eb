from __future__ import annotations

from math import comb

import pytest

from racklab import partitions, racks
from racklab.bitsets import mask_of
from racklab.groups import CapExceeded
from racklab.lattice import ProductLattice, SubrackLattice, _csr_from_edges
from racklab.partitions import (
    SetPartition,
    all_partitions,
    k_equal_lattice,
    orbit_partition_map,
    partition_lattice,
    pcycle_rack_and_lattice,
    quillen_fiber_check,
    transposition_rack_isomorphism,
)

BELL = {1: 1, 2: 2, 3: 5, 4: 15, 5: 52, 6: 203}


def test_bell_counts():
    for n, b in BELL.items():
        assert len(all_partitions(n)) == b


def test_partition_lattice_counts_and_bounds():
    lat = partition_lattice(3)
    assert lat.n == 5
    assert lat.elements[0] == SetPartition.from_blocks(3, [[0], [1], [2]])
    assert lat.elements[-1] == SetPartition.from_blocks(3, [[0, 1, 2]])
    assert partition_lattice(4).n == 15


def test_covers_of_discrete_partition():
    lat = partition_lattice(4)
    discrete = lat.index[SetPartition.from_blocks(4, [[0], [1], [2], [3]])]
    ups = lat.parents(discrete)
    assert len(ups) == comb(4, 2)
    for v in ups:
        assert sorted(len(b) for b in lat.elements[v].blocks) == [1, 1, 2]


def test_refinement_and_meet():
    a = SetPartition.from_blocks(4, [[0, 1], [2, 3]])
    b = SetPartition.from_blocks(4, [[0, 1, 2], [3]])
    assert not a.refines(b) and not b.refines(a)
    m = SetPartition.from_blocks(4, [[0, 1], [2], [3]])
    assert m.refines(a) and m.refines(b)
    assert str(SetPartition.from_blocks(6, [[0, 1, 2], [3, 4], [5]])) == "123|45|6"


def test_refines_is_block_containment():
    # the block definition: every block of p lies inside one block of q
    parts = all_partitions(6)
    for p in parts:
        for q in parts:
            by_blocks = all(any(set(b) <= set(c) for c in q.blocks) for b in p.blocks)
            assert p.refines(q) == by_blocks, (p, q)


def test_k_equal_degenerate_cases():
    for n in (4, 5):
        full = partition_lattice(n)
        for k in (1, 2):
            ke = k_equal_lattice(n, k)
            assert ke.n == full.n
            assert ke.elements == full.elements
            assert sorted(ke.edges()) == sorted(full.edges())
    assert k_equal_lattice(4, 4).n == 2


def test_k_equal_4_3_covers():
    ke = k_equal_lattice(4, 3)
    assert ke.n == 6
    # discrete -> each 3-block (4 covers), each 3-block -> top (4 covers)
    assert ke.edge_count() == 8


def test_pi63_count_by_block_type():
    # block-size profiles with every block of size 1 or >= 3 on six points:
    # 1^6; 3,1^3; 4,1^2; 5,1; 6; 3,3
    expected = 1 + comb(6, 3) + comb(6, 4) + comb(6, 5) + 1 + comb(6, 3) // 2
    assert expected == 53
    assert k_equal_lattice(6, 3).n == 53


@pytest.mark.parametrize("n", [3, 4, 5])
def test_transposition_rack_isomorphism(n):
    rep = transposition_rack_isomorphism(n)
    assert rep.ok, rep.detail
    assert rep.count_left == rep.count_right == BELL[n]


def test_transposition_isomorphism_rejects_a_changed_lattice(monkeypatch):
    enumerate_subracks = partitions.enumerate_subracks

    def one_set_changed(rack, node_budget):
        lat = enumerate_subracks(rack, node_budget).expand()
        sets = list(lat.sets)
        sets[1] |= sets[2]  # two transpositions with a common point: not a subrack
        changed = SubrackLattice(sets, lat._pstart, lat._pflat, lat.labels, lat.spec)
        return ProductLattice(rack, changed, 0)  # T is empty

    monkeypatch.setattr(partitions, "enumerate_subracks", one_set_changed)
    rep = transposition_rack_isomorphism(4)
    assert not rep.ok
    assert rep.count_left == rep.count_right == BELL[4]


def test_orbit_partition_map_examples():
    rack, lat = pcycle_rack_and_lattice(6, 3)
    one = 1 << rack.labels.index("(123)")
    assert str(orbit_partition_map(6, rack, one)) == "123|4|5|6"
    assert orbit_partition_map(6, rack, 0) == SetPartition.from_blocks(6, [[v] for v in range(6)])
    both_blocks = mask_of(
        i for i, lab in enumerate(rack.labels)
        if set(lab) <= set("(123)") or set(lab) <= set("(456)")
    )
    assert str(orbit_partition_map(6, rack, both_blocks)) == "123|456"


def test_fiber_maxima_sizes():
    rack, lat = pcycle_rack_and_lattice(6, 3)
    # tau = 123|4|5|6: the fiber maximum is the two 3-cycles on {1,2,3}
    tau_small = SetPartition.from_blocks(6, [[0, 1, 2], [3], [4], [5]])
    tau_big = SetPartition.from_blocks(6, [[0, 1, 2], [3, 4, 5]])
    for tau, size in [(tau_small, 2), (tau_big, 4)]:
        block_of = {}
        for bi, b in enumerate(tau.blocks):
            for v in b:
                block_of[v] = bi
        q_h = mask_of(
            i for i, perm in enumerate(rack.perms)
            if len({block_of[v] for v in range(6) if perm[v] != v}) == 1
        )
        assert q_h.bit_count() == size
        assert q_h in lat.index
        members = [
            s for s in lat.sets
            if orbit_partition_map(6, rack, s).refines(tau)
        ]
        assert all(s & q_h == s for s in members)


def test_orbit_map_is_order_preserving():
    rack, lat = pcycle_rack_and_lattice(6, 3)
    images = [orbit_partition_map(6, rack, s) for s in lat.sets]
    for c, p in lat.edges():
        assert images[c].refines(images[p])


def test_quillen_fiber_check():
    pcycles = pcycle_rack_and_lattice(6, 3)
    rep = quillen_fiber_check(6, 3, pcycles)
    assert rep.ok, rep.detail
    assert rep.image_equals_kequal
    assert rep.fibers_total == rep.fibers_with_unique_max == 51
    assert pcycles[1].n == 203


def test_quillen_fiber_check_rejects_a_missing_node():
    rack, lat = pcycle_rack_and_lattice(6, 3)

    def without(mask):
        sets = [s for s in lat.sets if s != mask]
        rows = _csr_from_edges(len(sets), ())
        return rack, SubrackLattice(sets, *rows, rack.labels, rack.provenance)

    # the two 3-cycles on {1,2,3}: the fiber maximum below 123|4|5|6
    q_h = mask_of(i for i, lab in enumerate(rack.labels) if set(lab) <= set("(123)"))
    rep = quillen_fiber_check(6, 3, without(q_h))
    assert not rep.ok and rep.image_equals_kequal
    assert (rep.fibers_with_unique_max, rep.fibers_total) == (50, 51)
    assert "123|4|5|6" in rep.detail
    # only the empty subrack maps to the discrete partition
    rep = quillen_fiber_check(6, 3, without(0))
    assert not rep.ok and not rep.image_equals_kequal
    assert (rep.fibers_with_unique_max, rep.fibers_total) == (51, 51)


def test_pcycle_rack_over_the_cap_is_refused_before_the_group_is_built(monkeypatch):
    # A8 has C(8, 3) * 2 = 112 three-cycles and A6 has C(6, 5) * 4! = 144
    # five-cycles; building A8 before the cap refused its rack took minutes
    def unbuilt(*args, **kwargs):
        raise AssertionError("the group was built")

    monkeypatch.setattr(racks, "build_group", unbuilt)
    monkeypatch.setattr(racks, "validate_rack", unbuilt)
    for n, p, size in [(8, 3, 112), (6, 5, 144)]:
        with pytest.raises(CapExceeded, match=rf"^rack size {size} exceeds the enumeration cap 40$"):
            pcycle_rack_and_lattice(n, p)


def test_the_partition_checks_build_no_group(monkeypatch):
    def unbuilt(*args, **kwargs):
        raise AssertionError("a group was built")

    monkeypatch.setattr(racks, "build_group", unbuilt)
    assert transposition_rack_isomorphism(4).ok
    rack, lat = pcycle_rack_and_lattice(5, 3)
    assert rack.size == 20 and rack.perms is not None


def test_quillen_parameter_guard():
    with pytest.raises(ValueError):
        quillen_fiber_check(5, 3, pcycle_rack_and_lattice(6, 3))
