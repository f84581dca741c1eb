from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from racklab.bitsets import bit_list, mask_of
from racklab.groups import CapExceeded, build_group, conjugacy_classes, subgroup_closure_mask
from racklab.racks import (
    Rack,
    RackAxiomError,
    closure_forward_only,
    conjugation_rack,
    is_quandle,
    rack_from_spec,
    rack_isomorphism,
    validate_rack,
)


def cyclic_shift_rack(n: int) -> Rack:
    # a > b = b + 1 (mod n): a valid rack that is not a quandle for n >= 2
    return validate_rack([[(b + 1) % n for b in range(n)] for _ in range(n)])


# ---------------------------------------------------------------------------
# validation


def test_singleton_table():
    r = validate_rack([[0]])
    assert r.size == 1 and is_quandle(r)


def test_conjugation_table_of_s3_validates():
    G = build_group("S3")
    table = [[G.conj(a, b) for b in range(6)] for a in range(6)]
    r = validate_rack(table)
    assert is_quandle(r)


def test_non_bijective_row_named():
    with pytest.raises(RackAxiomError, match="row 1"):
        validate_rack([[0, 1], [0, 0]])


def test_self_distributivity_failure_named():
    with pytest.raises(RackAxiomError, match=r"\(a, b, c\)"):
        validate_rack([[1, 0], [0, 1]])


def test_cyclic_shift_rack_is_not_a_quandle():
    r = cyclic_shift_rack(4)
    assert not is_quandle(r)
    assert r.trivial_part != r.full_mask()


# ---------------------------------------------------------------------------
# conjugation racks


def test_conjugation_rack_full_group_is_quandle():
    for spec in ["S3", "Q8", "TV18", "SL(2,3)"]:
        r = conjugation_rack(build_group(spec))
        assert is_quandle(r)
        assert r.size == build_group(spec).order


def test_four_cycle_rack():
    r = rack_from_spec("S4:cycles(4)")
    assert r.size == 6
    assert is_quandle(r)


def test_unclosed_subset_rejected():
    G = build_group("S4")
    bad = mask_of([G.label_index("(12)"), G.label_index("(1234)")])
    with pytest.raises(RackAxiomError, match="not closed"):
        conjugation_rack(G, bad)


def test_class_filter():
    r = rack_from_spec("S3:class((12))")
    assert sorted(r.labels) == ["(12)", "(13)", "(23)"]


def test_noncentral_filter():
    r = rack_from_spec("D8:noncentral")
    assert r.size == 6


def test_transpositions_filter_needs_permutation_group():
    with pytest.raises(RackAxiomError):
        rack_from_spec("S3xZ2:transpositions")


# ---------------------------------------------------------------------------
# closure


def test_closure_examples():
    r = rack_from_spec("S4:cycles(4)")
    one = 1 << r.labels.index("(1234)")
    assert r.closure(one) == one  # quandle singleton
    other = 1 << r.labels.index("(1324)")
    assert r.closure(one | other) == r.full_mask()
    assert r.closure(0) == 0


_RACKS = [
    rack_from_spec("S3"),
    rack_from_spec("S4:cycles(4)"),
    rack_from_spec("Q8"),
    rack_from_spec("D10:noncentral"),
    cyclic_shift_rack(5),
]


@settings(deadline=None, max_examples=150)
@given(st.data())
def test_closure_operator_laws(data):
    rack = data.draw(st.sampled_from(_RACKS))
    full = rack.full_mask()
    seed = data.draw(st.integers(min_value=0, max_value=full))
    extra = data.draw(st.integers(min_value=0, max_value=full))
    c = rack.closure(seed)
    assert c & seed == seed  # extensive
    assert rack.closure(c) == c  # idempotent
    assert rack.closure(seed | extra) & c == c  # monotone
    assert closure_forward_only(rack, seed) == c  # inverse-free closure agrees


@settings(deadline=None, max_examples=150)
@given(st.data())
def test_closure_with_stop_halts_only_on_a_stop_element(data):
    rack = data.draw(st.sampled_from(_RACKS))
    full = rack.full_mask()
    seed = data.draw(st.integers(min_value=0, max_value=full))
    stop = data.draw(st.integers(min_value=0, max_value=full))
    c = rack.closure(seed)
    r = rack.closure(seed, 0, stop)
    assert r & seed == seed and r & c == r  # between seed and its closure
    if c & stop & ~seed:
        assert r & stop & ~seed  # stopped on an added stop element
    else:
        assert r == c  # no stop element added: the full closure


@settings(deadline=None, max_examples=150)
@given(st.data())
def test_fixed_points_are_exactly_subracks(data):
    rack = data.draw(st.sampled_from(_RACKS))
    mask = data.draw(st.integers(min_value=0, max_value=rack.full_mask()))
    assert (rack.closure(mask) == mask) == rack.is_closed(mask)


@settings(deadline=None, max_examples=80)
@given(st.data())
def test_fixed_points_validate_as_racks(data):
    # a closed subset, reindexed, passes the full axiom check
    rack = data.draw(st.sampled_from(_RACKS))
    seed = data.draw(st.integers(min_value=0, max_value=rack.full_mask()))
    mask = rack.closure(seed)
    elems = bit_list(mask)
    pos = {e: i for i, e in enumerate(elems)}
    table = [[pos[rack.op[a][b]] for b in elems] for a in elems]
    restricted = validate_rack(table)
    assert restricted.size == len(elems)


@settings(deadline=None, max_examples=100)
@given(st.integers(min_value=0, max_value=(1 << 12) - 1))
def test_generating_seed_closes_to_class_union(seed):
    # a subrack generating the whole group is a union of conjugacy classes
    G = build_group("A4")
    rack = conjugation_rack(G)
    cd = conjugacy_classes(G)
    if subgroup_closure_mask(G, seed) == (1 << G.order) - 1:
        c = rack.closure(seed)
        union = 0
        for cm in cd.classes:
            if cm & c:
                union |= cm
        assert c == union


# ---------------------------------------------------------------------------
# isomorphism


def test_d8_q8_racks_isomorphic():
    f = rack_isomorphism(rack_from_spec("D8"), rack_from_spec("Q8"))
    assert f is not None


def test_trivial_racks_of_equal_size_isomorphic():
    assert rack_isomorphism(rack_from_spec("Z4"), rack_from_spec("Z2xZ2")) is not None


def test_different_sizes_not_isomorphic():
    assert rack_isomorphism(rack_from_spec("Z4"), rack_from_spec("Z2")) is None


def test_nonisomorphic_same_size():
    # the S3 conjugation rack is nontrivial, the Z6 one is trivial
    assert rack_isomorphism(rack_from_spec("S3"), rack_from_spec("Z6")) is None


def test_isomorphism_cap():
    with pytest.raises(CapExceeded, match=r"^isomorphism search capped at size 16, got 18$"):
        rack_isomorphism(rack_from_spec("TV18"), rack_from_spec("TV18"))
