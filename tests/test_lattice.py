from __future__ import annotations

import itertools
import random
import subprocess
import sys
from functools import lru_cache, reduce
from operator import and_, or_
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import all_maximal_chains, full_lattice
from racklab import lattice
from racklab.bitsets import bit_list, bits, mask_of
from racklab.catalog import CATALOG, CENTRAL_CATALOG, analyze_group
from racklab.groups import (
    DEFAULT_MAX_ORDER,
    all_subgroups,
    build_group,
    conjugacy_classes,
    parse_group_spec,
    spec_order,
)
from racklab.lattice import (
    DEFAULT_NODE_BUDGET,
    BudgetExceeded,
    CoverPoset,
    LatticeInvariantError,
    SubrackLattice,
    _csr_from_edges,
    _lindig_subracks,
    _lindig_walk,
    _meet_closure,
    _packed_fields,
    all_maximal_chain_lengths,
    atoms,
    brute_force_covers,
    brute_force_subracks,
    closure_bar,
    coatoms,
    compute_M,
    connected_components_proper,
    enumerate_subracks,
    export_lattice_text,
    int_lattice,
    is_boolean,
    iter_closed_sets_lectic,
    load_lattice_export,
    product_decomposition_check,
)
from racklab.racks import RACK_CAP, Rack, conjugation_rack, rack_from_spec, validate_rack
from racklab.topology import order_complex, reduced_homology
from racklab.work import ledger

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import jobs  # noqa: E402  perfbench's job lists

SMALL_RACKS = [
    "S3", "S4:cycles(4)", "D8", "Q8", "D8:noncentral", "D10", "A4", "Z6",
    "S4:transpositions", "DIC3",
]


@pytest.mark.parametrize("spec", SMALL_RACKS)
def test_enumeration_matches_oracles(spec):
    rack = rack_from_spec(spec)
    lat = full_lattice(rack)
    assert lat.sets == brute_force_subracks(rack)
    lectic = sorted(iter_closed_sets_lectic(rack), key=lambda m: (m.bit_count(), m))
    assert lat.sets == lectic


@lru_cache(maxsize=None)
def _small_rack(spec):
    return rack_from_spec(spec)


@lru_cache(maxsize=None)
def _small_lattice(spec):
    return full_lattice(_small_rack(spec))


@pytest.mark.parametrize("spec", SMALL_RACKS)
def test_covers_match_bruteforce_hasse_diagram(spec):
    lat = _small_lattice(spec)
    hasse = brute_force_covers(brute_force_subracks(_small_rack(spec)))
    assert list(lat.edges()) == hasse
    for v in range(lat.n):
        assert lat.children(v) == [c for c, p in hasse if p == v]


@pytest.mark.parametrize("spec", SMALL_RACKS + ["Z4xZ2"])
def test_lemma_free_enumeration_matches_bruteforce(spec):
    # D8, Q8, Z6 and DIC3 have a centre and Z4xZ2 is a trivial rack, so the
    # trivial-element step of the oracle's enumeration is compared here with
    # the closure-free scan
    rack = rack_from_spec(spec)
    lat = _lindig_subracks(rack, DEFAULT_NODE_BUDGET)
    sets = brute_force_subracks(rack)
    assert lat.sets == sets
    assert list(lat.edges()) == brute_force_covers(sets)


@pytest.mark.parametrize("spec", [
    "A5:cycles(5)", "S5:cycles(4)", "SL(2,3):noncentral", "D24:noncentral", "A6:cycles(3)",
])
def test_lemma_free_enumeration_of_larger_racks_matches_oracles(spec):
    # racks of 22 to 40 elements, where most closures of the walk stop at
    # the first element that rules out a cover; the covers are checked
    # against the definition wherever the lattice has at most 600 nodes
    rack = rack_from_spec(spec, max_order=360)
    lat = _lindig_subracks(rack, DEFAULT_NODE_BUDGET)
    assert lat.sets == sorted(iter_closed_sets_lectic(rack), key=lambda m: (m.bit_count(), m))
    if lat.n <= 600:
        assert list(lat.edges()) == brute_force_covers(lat.sets)


def _relabelled(rack, perm):
    """`rack` with its element perm[i] moved to position i."""
    pos = {e: i for i, e in enumerate(perm)}
    return Rack(
        [[pos[rack.op[a][b]] for b in perm] for a in perm],
        [[pos[rack.inv_op[a][b]] for b in perm] for a in perm],
        [rack.labels[e] for e in perm],
    )


@settings(deadline=None, max_examples=60)
@given(st.sampled_from(["D8", "Q8", "DIC3", "S3xZ2"]).flatmap(
    lambda spec: st.tuples(st.just(spec), st.permutations(range(rack_from_spec(spec).size)))))
def test_lemma_free_enumeration_of_relabelled_racks(spec_perm):
    # a row whose covers all come from T goes unsorted; any position of the
    # two central elements among the others must still give ascending rows
    spec, perm = spec_perm
    rack = _relabelled(rack_from_spec(spec), perm)
    assert rack.trivial_part.bit_count() == 2
    lat = _lindig_subracks(rack, DEFAULT_NODE_BUDGET)
    sets = brute_force_subracks(rack)
    assert lat.sets == sets
    assert list(lat.edges()) == brute_force_covers(sets)


def _dihedral_quandle_with_two_fixed_points(labels=None):
    """The 3-element dihedral quandle a > b = 2a - b mod 3, plus elements 3
    and 4 that act trivially and that every element fixes: a rack that is
    not the rack of a group, with T = {3, 4}."""
    table = [[(2 * a - b) % 3 for b in range(3)] + [3, 4] for a in range(3)]
    table += [list(range(5))] * 2
    return validate_rack(table, labels=labels, provenance="R3+2")


def _shift_rack():
    """Not a quandle, so x > x != x: 0..4 act by (0 1)(2 3 4), 5 and 6 are T."""
    sigma = [1, 0, 3, 4, 2, 5, 6]
    return validate_rack([sigma] * 5 + [list(range(7))] * 2, provenance="shift")


def _closed_subsets(rack):
    """The exhaustive reference for `brute_force_subracks`' pruned scan:
    every subset that `Rack.is_closed` accepts, in (popcount, value) order."""
    closed = (m for m in range(1 << rack.size) if rack.is_closed(m))
    return sorted(closed, key=lambda m: (m.bit_count(), m))


def _scan_cases():
    """(id, rack) of every rack of at most 12 elements that the tests compare
    with the subset scan: the CATALOG groups and their non-central racks,
    the small class racks, and two racks that are not group racks."""
    specs = sorted(set(CATALOG) | {s + ":noncentral" for s in CATALOG} | set(SMALL_RACKS)
                   | {"D12:noncentral"})
    racks = [(spec, rack_from_spec(spec)) for spec in specs]
    racks += [("shift", _shift_rack()), ("R3+2", _dihedral_quandle_with_two_fixed_points())]
    return [(name, rack) for name, rack in racks if rack.size <= 12]


SCAN_CASES = _scan_cases()


@pytest.mark.parametrize("rack", [case[1] for case in SCAN_CASES],
                         ids=[case[0] for case in SCAN_CASES])
def test_pruned_subset_scan_equals_the_exhaustive_scan(rack):
    assert brute_force_subracks(rack) == _closed_subsets(rack)


def _walk_lattice(rack):
    """The sets and (child, parent) covers of `_lindig_walk` of the whole
    rack, each row with its T covers s + t, t in `tmask`, checking every
    row's split between closure covers and T covers on the way."""
    trivial, top = rack.trivial_part, rack.full_mask()
    sets, parents = [], []
    for s, row, tmask in _lindig_walk(rack, DEFAULT_NODE_BUDGET, top):
        assert tmask == trivial & top & ~s
        # no closure cover adds an element of T, so none is an s + t
        assert not any(b & ~s & trivial for b in row)
        sets.append(s)
        parents.append(row + [s | 1 << t for t in bits(tmask)])
    index = {s: i for i, s in enumerate(sets)}
    return sets, sorted((c, index[b]) for c, row in enumerate(parents) for b in row)


@pytest.mark.parametrize("spec", ["D8", "Q8xZ2", "S3xZ3", "D8xZ2", "Z2xZ2xZ2", "R3+2"])
def test_walk_with_its_t_covers_matches_bruteforce(spec):
    # the walk yields the covers s + t, t in T, as one mask; with them put
    # back it gives the subset scan's sets and the Hasse diagram by
    # definition, on racks with T nonempty
    if spec == "R3+2":
        rack = _dihedral_quandle_with_two_fixed_points()
        assert rack.trivial_part == 0b11000
    else:
        rack = rack_from_spec(spec)
        assert rack.trivial_part
    sets, covers = _walk_lattice(rack)
    assert sets == brute_force_subracks(rack)
    assert covers == brute_force_covers(sets)


def _first_step(rack, s, x):
    """The first closure step of s + x: the products and inverse products
    of x with each element of s + x, in both argument orders, read off the
    operation tables."""
    op, inv_op = rack.op, rack.inv_op
    return mask_of(c for a in bits(s | 1 << x)
                   for c in (op[x][a], op[a][x], inv_op[x][a], inv_op[a][x]))


def _reference_walk(rack, top):
    """Test oracle for `_lindig_walk`: the same walk with one full
    `Rack.closure` of s + x per outside element x of each node, with no
    first-step test, no `closed` seed and no `stop`.  Returns the walk's
    (s, row, tmask) triples, the count of rejected elements, the count
    of those whose first step (`_first_step`) already meets mins - x, and,
    for each node with outside elements (those of top - s - T), in walk
    order, the pair (outside, word) where word holds the outside x whose
    first step meets an outside element above x or an element of
    tmask: the rejects the word-parallel test must find."""
    trivial = rack.trivial_part
    levels = [set() for _ in range(top.bit_count() + 2)]
    levels[0].add(0)
    triples, rejected, first, words = [], 0, 0, []
    for k in range(top.bit_count() + 1):
        for s in sorted(levels[k]):
            mins = top & ~s
            tmask = mins & trivial
            outside = mins ^ tmask
            if outside:
                words.append((outside, mask_of(
                    x for x in bits(outside)
                    if _first_step(rack, s, x) & (outside & -2 << x | tmask))))
            row = []
            for x in bits(outside):
                b = rack.closure(s | 1 << x)
                if b & ~s & ~(1 << x) & mins:
                    first += bool(_first_step(rack, s, x) & mins & ~(1 << x))
                    mins &= ~(1 << x)
                    rejected += 1
                    continue
                levels[b.bit_count()].add(b)
                row.append(b)
            high = (s & trivial).bit_length()
            for t in bits(tmask >> high << high):
                levels[k + 1].add(s | 1 << t)
            triples.append((s, row, tmask))
    return triples, rejected, first, words


def _workload_racks(workload):
    """(spec, rack) of every alternate of every job of a perfbench workload."""
    out = []
    for slot in jobs.WORKLOADS[workload]:
        for argv in slot:
            max_order = int(argv[3]) if "--max-order" in argv else DEFAULT_MAX_ORDER
            out.append((argv[1], rack_from_spec(argv[1], max_order=max_order)))
    return out


def _walk_cases():
    """(id, rack, top): every factor L(R - T) of the `lattice` workload,
    every `CENTRAL_CATALOG` rack whole and the class racks of the
    `homology` workload whole."""
    cases = [(f"factor-{spec}", rack, rack.full_mask() & ~rack.trivial_part)
             for spec, rack in _workload_racks("lattice")]
    whole = [(spec, rack_from_spec(spec)) for spec in CENTRAL_CATALOG]
    whole += [(spec, rack) for spec, rack in _workload_racks("homology") if ":" in spec]
    cases += [(f"whole-{spec}", rack, rack.full_mask()) for spec, rack in whole]
    shift = _shift_rack()
    assert shift.trivial_part == 0b1100000
    # the packing's edges: no element (n = 0), a permutation rack
    # x > y = swap(y) with T empty, and 9 elements, two 8-element chunks
    edges = [rack_from_spec("Z4:noncentral"), validate_rack([[1, 0], [1, 0]]),
             rack_from_spec("D18:class(s)")]
    assert [r.size for r in edges] == [0, 2, 9] and not edges[1].trivial_part
    cases += [(f"whole-{name}", r, r.full_mask())
              for name, r in zip(["Z4:noncentral", "swap", "D18:class(s)"], edges)]
    return cases + [("whole-shift", shift, shift.full_mask())]


WALK_CASES = _walk_cases()


def _recorded_walk(monkeypatch, rack, top, fault=lambda word: word):
    """`_lindig_walk`'s yields and the mask of each call of its
    word-parallel test (`_packed_fields`' `nonzero`), in call order; the
    test sees `fault(word)` for each word."""
    packed, masks = lattice._packed_fields, []

    def recording_packed_fields(n):
        rep, nonzero = packed(n)

        def recording_nonzero(word):
            masks.append(nonzero(fault(word)))
            return masks[-1]
        return rep, recording_nonzero

    monkeypatch.setattr(lattice, "_packed_fields", recording_packed_fields)
    return list(_lindig_walk(rack, DEFAULT_NODE_BUDGET, top)), masks


@pytest.mark.parametrize("rack,top", [case[1:] for case in WALK_CASES],
                         ids=[case[0] for case in WALK_CASES])
def test_walk_equals_the_reference_walk_of_full_closures(rack, top, monkeypatch):
    # the first-step test and the seeded, stopping closure reject exactly
    # the elements that full closures reject, and emit the same rows
    ledger.clear()
    walk, masks = _recorded_walk(monkeypatch, rack, top)
    want, rejected, first, words = _reference_walk(rack, top)
    assert walk == want
    assert ledger["first_step_rejects"] == first
    assert ledger["stopped_closures"] == rejected - first
    # the word test runs once per node with outside elements and flags
    # exactly the rejects it can see; the per-element test would catch
    # any it missed, so only this shows a word test that flags too few
    found = [m & outside for m, (outside, _) in zip(masks, words, strict=True)]
    assert found == [w for _, w in words]
    # a cover s + x, closed as it stands, takes no call
    grown = sum((b & ~s).bit_count() > 1 for s, row, _ in walk for b in row)
    assert ledger["closures"] - ledger["stopped_closures"] == grown


def test_a_word_test_with_no_elements_above_fails_only_the_word_check(monkeypatch):
    # an `above` word of 0 makes every word 0: the walk and its ledger stay
    # exact, since the per-element test takes every reject, and only the
    # recorded masks differ from the reference
    rack = rack_from_spec("D24")
    top = rack.full_mask() & ~rack.trivial_part
    want, rejected, first, words = _reference_walk(rack, top)
    ledger.clear()
    walk, masks = _recorded_walk(monkeypatch, rack, top, fault=lambda word: word & 0)
    assert walk == want
    assert ledger["first_step_rejects"] == first
    assert ledger["stopped_closures"] == rejected - first
    found = [m & outside for m, (outside, _) in zip(masks, words, strict=True)]
    assert found != [w for _, w in words]


@pytest.mark.parametrize("n", range(RACK_CAP + 1))
def test_packed_fields_flag_exactly_the_nonzero_fields(n):
    rep, nonzero = _packed_fields(n)
    field = (1 << n) - 1
    assert rep * field == (1 << n * n) - 1  # n copies of field, one per field
    rng = random.Random(n)
    # every field empty, full, its lowest or its highest bit alone, and random
    patterns = [[0] * n, [field] * n, [1] * n, [1 << n - 1 if n else 0] * n]
    patterns += [[rng.choice([0, 0, field, rng.getrandbits(n)]) for _ in range(n)]
                 for _ in range(20)]
    patterns += [[1 << n - 1 if x == k else 0 for x in range(n)] for k in range(n)]
    for fields in patterns:
        word = sum(f << n * x for x, f in enumerate(fields))
        assert nonzero(word) == mask_of(x for x, f in enumerate(fields) if f)


@settings(deadline=None, max_examples=200)
@given(st.sampled_from(SMALL_RACKS), st.data())
def test_seeded_closure_equals_plain_closure(spec, data):
    rack, lat = _small_rack(spec), _small_lattice(spec)
    s = data.draw(st.sampled_from(lat.sets))
    x = data.draw(st.integers(0, rack.size - 1))
    assert rack.closure(s | 1 << x, s) == rack.closure(s | 1 << x)


def test_s3_has_18_subracks():
    assert enumerate_subracks(rack_from_spec("S3")).n == 18


def test_four_cycle_lattice_structure():
    rack = rack_from_spec("S4:cycles(4)")
    lat = full_lattice(rack)
    assert lat.n == 11
    by_size = {}
    for s in lat.sets:
        by_size.setdefault(s.bit_count(), []).append(s)
    assert {k: len(v) for k, v in by_size.items()} == {0: 1, 1: 6, 2: 3, 6: 1}
    # each two-element node pairs a cycle with its inverse
    perms = {lab: i for i, lab in enumerate(rack.labels)}
    inverse_label = {"(1234)": "(1432)", "(1243)": "(1342)", "(1324)": "(1423)"}
    pairs = {
        tuple(sorted((perms[a], perms[b]))) for a, b in inverse_label.items()
    }
    assert {tuple(bit_list(s)) for s in by_size[2]} == pairs
    assert [lat.sets[v] for v in coatoms(lat)] == sorted(by_size[2])


def test_five_cycle_lattice_against_structured_oracle():
    # candidate subracks: subsets of the four-power sets of each 5-cycle,
    # plus the two conjugacy classes and their union
    G = build_group("A5", max_order=60)
    rack = rack_from_spec("A5:cycles(5)", max_order=60)
    cd = conjugacy_classes(G)
    elem = [G.label_index(lab) for lab in rack.labels]
    pos = {e: i for i, e in enumerate(elem)}
    candidates = {0}
    traces = set()
    for e in elem:
        powers = set()
        x = e
        while x != 0:
            powers.add(x)
            x = G.mul[x][e]
        traces.add(mask_of(pos[x] for x in powers))
    for t in traces:
        sub = t
        while True:
            candidates.add(sub)
            if sub == 0:
                break
            sub = (sub - 1) & t
    for cm in cd.classes:
        if cm.bit_count() == 12:
            candidates.add(mask_of(pos[e] for e in bits(cm)))
    candidates.add(rack.full_mask())
    assert len(traces) == 6
    assert all(rack.is_closed(c) for c in candidates)
    lat = full_lattice(rack)
    assert set(lat.sets) == candidates
    assert lat.n == 94


def test_meet_and_join():
    # the meet of two subracks is their intersection, the join the closure
    # of their union: the largest node below both and the smallest above both
    rack = rack_from_spec("S3")
    lat = full_lattice(rack)
    for a in lat.sets:
        for b in lat.sets:
            below = [s for s in lat.sets if s & a == s and s & b == s]
            above = [s for s in lat.sets if s & a == a and s & b == b]
            assert max(below, key=int.bit_count) == a & b
            assert min(above, key=int.bit_count) == rack.closure(a | b)
    G = build_group("S3")
    j = rack.closure(1 << G.label_index("(12)") | 1 << G.label_index("(13)"))
    assert sorted(lat.labels[i] for i in bits(j)) == ["(12)", "(13)", "(23)"]


def test_join_of_five_cycles_is_class_union():
    G = build_group("A5", max_order=60)
    rack = rack_from_spec("A5:cycles(5)", max_order=60)
    lat = full_lattice(rack)
    cd = conjugacy_classes(G)
    elem = [G.label_index(lab) for lab in rack.labels]
    pos = {e: i for i, e in enumerate(elem)}
    x = elem[0]
    powers = {x}
    y = G.mul[x][x]
    while y != x:
        powers.add(y)
        y = G.mul[y][x]
    other = next(e for e in elem if e not in powers)
    a = lat.index[1 << pos[x]]
    b = lat.index[1 << pos[other]]
    joined = rack.closure(lat.sets[a] | lat.sets[b])
    union = 0
    for cm in cd.classes:
        if cm & ((1 << x) | (1 << other)):
            union |= mask_of(pos[e] for e in bits(cm))
    assert joined == union


def test_meet_closure_invariant():
    lat = full_lattice("A4")
    for a in lat.sets:
        for b in lat.sets:
            assert (a & b) in lat.index


def test_atoms_are_singletons_for_group_racks():
    for spec in ["S3", "D8", "A4"]:
        lat = full_lattice(spec)
        assert sorted(lat.sets[v] for v in atoms(lat)) == [1 << i for i in range(len(lat.labels))]


def test_coatoms_of_group_lattice_are_class_complements():
    for spec in ["S3", "D8", "A4", "SL(2,3)"]:
        G = build_group(spec)
        cd = conjugacy_classes(G)
        lat = full_lattice(conjugation_rack(G))
        full = (1 << G.order) - 1
        want = sorted((full & ~c for c in cd.classes), key=lambda s: (s.bit_count(), s))
        got = sorted((lat.sets[v] for v in coatoms(lat)), key=lambda s: (s.bit_count(), s))
        assert got == want


# ---------------------------------------------------------------------------
# chains


@pytest.mark.parametrize("spec,graded,lengths", [
    ("Z5", True, (5,)),
    ("S3", True, (4,)),
    ("D8", True, (6,)),
    ("Q8", True, (6,)),
    ("A5:cycles(5)", False, (4, 5)),
    ("S4:cycles(4)", True, (3,)),
])
def test_gradedness_against_chain_enumeration(spec, graded, lengths):
    lat = full_lattice(spec, max_order=60)
    assert all_maximal_chain_lengths(lat) == lengths
    assert (len(lengths) == 1) == graded
    chains = all_maximal_chains(lat)
    assert {len(c) - 1 for c in chains} == set(lengths)


def _interval_lengths(lat, lo, hi):
    """`all_maximal_chain_lengths` of the interval [lo, hi] of `lat`, held as
    a poset on the nodes between them in id order; an interval is convex, so
    its covers are those of `lat` between its nodes."""
    low, high = lat.sets[lo], lat.sets[hi]
    pos = {}
    for v in range(lo, hi + 1):
        if lat.sets[v] & low == low and lat.sets[v] & ~high == 0:
            pos[v] = len(pos)
    edges = [(pos[c], pos[p]) for c, p in lat.edges() if c in pos and p in pos]
    return all_maximal_chain_lengths(CoverPoset(*_csr_from_edges(len(pos), edges)))


def _lengths_through(lat, node):
    """Cover-lengths of the maximal chains of `lat` through `node`."""
    lower = _interval_lengths(lat, 0, node)
    upper = _interval_lengths(lat, node, lat.n - 1)
    return {a + b for a in lower for b in upper}


@pytest.mark.parametrize("spec", SMALL_RACKS)
def test_chain_lengths_through_match_lower_row_dp(spec):
    lat = _small_lattice(spec)
    top = lat.n - 1
    below = [[] for _ in range(lat.n)]
    for c, p in lat.edges():
        below[p].append(c)

    def lengths_from(start, keep):
        # cover-path lengths from `start` to each node whose set `keep` accepts
        reach = {start: 1}
        for v in range(start + 1, lat.n):
            acc = 0
            for u in below[v]:
                acc |= reach.get(u, 0)
            if acc and keep(lat.sets[v]):
                reach[v] = acc << 1
        return reach

    for node, m in enumerate(lat.sets):
        lower = tuple(bit_list(lengths_from(0, lambda s: s & m == s)[node]))
        upper = tuple(bit_list(lengths_from(node, lambda s: s & m == m)[top]))
        assert _interval_lengths(lat, 0, node) == lower, node
        assert _interval_lengths(lat, node, top) == upper, node
        # [bottom, S] is the subrack lattice of the rack S
        below_m = _lindig_subracks(_small_rack(spec), DEFAULT_NODE_BUDGET, m)
        assert all_maximal_chain_lengths(below_m) == lower


def test_chain_lengths_through_subgroups_sl23():
    G = build_group("SL(2,3)")
    lat = full_lattice(conjugation_rack(G))
    through = {}
    for h in all_subgroups(G):
        node = lat.index[h.elems]
        through.setdefault(h.elems.bit_count(), set()).update(_lengths_through(lat, node))
    assert through[8] == {10}  # the quaternion Sylow subgroup
    assert through[6] == {8}   # the cyclic order-6 maximal subgroups
    assert all_maximal_chain_lengths(lat) == (8, 10)


def test_chain_lengths_through_d18_and_tv18():
    for spec, order_a, len_a, order_b, len_b in [
        ("D18", 9, 10, 6, 8),
        ("TV18", 9, 10, 6, 8),
    ]:
        G = build_group(spec)
        lat = full_lattice(conjugation_rack(G))
        seen = {}
        for h in all_subgroups(G):
            node = lat.index[h.elems]
            seen.setdefault(h.elems.bit_count(), set()).update(_lengths_through(lat, node))
        assert len_a in seen[order_a]
        assert len_b in seen[order_b]


def test_four_cycle_proper_part_components():
    lat = full_lattice("S4:cycles(4)")
    assert connected_components_proper(lat) == 3


# ---------------------------------------------------------------------------
# closure to class unions, Int, Boolean


def test_closure_bar():
    G = build_group("S3")
    cd = conjugacy_classes(G)
    t = 1 << G.label_index("(12)")
    bar = closure_bar(cd.classes, t)
    assert bar == cd.class_mask_of(G.label_index("(12)"))
    assert closure_bar(cd.classes, bar) == bar
    assert closure_bar(cd.classes, 0) == 0
    # extensive and monotone over all subsets of a small group
    for m in range(1 << G.order):
        b = closure_bar(cd.classes, m)
        assert b & m == m
        assert closure_bar(cd.classes, m | t) & b == b

    G = build_group("S4")
    cd = conjugacy_classes(G)
    s = (1 << G.label_index("(12)")) | (1 << G.label_index("(1234)"))
    want = cd.class_mask_of(G.label_index("(12)")) | cd.class_mask_of(G.label_index("(1234)"))
    assert closure_bar(cd.classes, s) == want


def _boolean_by_pairs(family) -> bool:
    """Oracle: the signature map over the atoms is a bijection onto 2^k and
    reflects inclusion on every pair of sets."""
    elems = set(family)
    if not elems:
        return False
    bottom = min(elems, key=lambda s: (s.bit_count(), s))
    if any(e & bottom != bottom for e in elems):
        return False
    above = elems - {bottom}
    atom_sets = [a for a in above if not any(b != a and b & a == b for b in above)]
    sig = {e: sum(1 << i for i, a in enumerate(atom_sets) if a & e == a) for e in elems}
    if len(elems) != 1 << len(atom_sets) or len(set(sig.values())) != len(elems):
        return False
    return all((sig[x] & sig[y] == sig[x]) == (x & y == x) for x in elems for y in elems)


def _lattice_of(family) -> SubrackLattice:
    """A family of distinct sets closed under intersection, with a top, as a
    lattice ordered by inclusion, its covers by definition."""
    sets = sorted(set(family), key=lambda s: (s.bit_count(), s))
    return SubrackLattice(sets, *_csr_from_edges(len(sets), brute_force_covers(sets)), (), None)


def test_int_lattice_of_group_lattices():
    for spec in ["S3", "D8", "S4"]:
        G = build_group(spec)
        cd = conjugacy_classes(G)
        lat = full_lattice(conjugation_rack(G))
        ints = int_lattice(lat)
        # Boolean by the count: the c coatoms have 2^c distinct meets
        assert len(ints) == 2 ** len(cd.classes) == 2 ** len(coatoms(lat))
        assert _boolean_by_pairs(ints)
        # Int consists exactly of the unions of conjugacy classes
        unions = {0}
        for c in cd.classes:
            unions |= {u | c for u in unions}
        assert set(ints) == unions


def test_int_of_four_cycle_lattice_not_boolean():
    lat = full_lattice("S4:cycles(4)")
    ints = int_lattice(lat)
    assert len(ints) == 5 != 2 ** len(coatoms(lat))
    assert not _boolean_by_pairs(ints)


def test_is_boolean_cases():
    # the subsets of a 3-set
    assert is_boolean(_lattice_of(range(8)))
    # a chain of length 3 is not Boolean
    assert not is_boolean(_lattice_of([0, 1, 3]))
    # a square whose top is bigger than the union of its atoms
    assert is_boolean(_lattice_of([0, 1, 2, 7]))
    # five elements can never be Boolean
    assert not is_boolean(_lattice_of([0, 1, 2, 3, 7]))


@st.composite
def near_boolean_families(draw):
    """2^k on atom bits 2.., over a bottom in bits 0-1, with extra bits 8-11
    on each member above the atoms (so the signatures biject, but may not keep
    inclusion), then maybe a member dropped or a random set added."""
    k = draw(st.integers(0, 4))
    bottom = draw(st.integers(0, 3))
    family = [
        bottom
        | sum(1 << (2 + i) for i in range(k) if s >> i & 1)
        | (draw(st.integers(0, 15)) << 8 if s.bit_count() > 1 else 0)
        for s in range(1 << k)
    ]
    if draw(st.booleans()):
        family.pop(draw(st.integers(0, len(family) - 1)))
    if draw(st.booleans()):
        family.append(draw(st.integers(0, (1 << 12) - 1)))
    return family


@settings(max_examples=300, deadline=None)
@given(st.one_of(near_boolean_families(), st.lists(st.integers(0, 63), max_size=9)))
def test_is_boolean_matches_the_pairwise_definition(family):
    # is_boolean reads lattices closed under intersection, as subrack
    # lattices are: the family's meet-closure below its union
    closed = _meet_closure(reduce(or_, family, 0), family)
    assert is_boolean(_lattice_of(closed)) == _boolean_by_pairs(closed)


@st.composite
def coatoms_below_a_top(draw):
    """(top, C): C an antichain of sets strictly below `top`, a set of at
    most 8 elements, each member of C the top less a part of at most 4
    elements; C's meets are distinct exactly when each part has an element
    of the top that no other part has."""
    top = 255 & ~mask_of(draw(st.sets(st.integers(0, 7), max_size=2)))
    parts = draw(st.lists(st.sets(st.integers(0, 7), min_size=1, max_size=4), max_size=7))
    below = {top & ~mask_of(r) for r in parts} - {top}
    return top, [c for c in below if not any(c != u and c & u == c for u in below)]


@settings(max_examples=300, deadline=None)
@given(coatoms_below_a_top())
def test_a_meet_closure_is_boolean_exactly_when_it_has_2_to_the_c_members(top_coat):
    # the count that compute_M and coatom-int-structure read
    top, coat = top_coat
    closure = _meet_closure(top, coat)
    rest = closure - {top}
    assert {c for c in rest if not any(c != u and c & u == c for u in rest)} == set(coat)
    assert (len(closure) == 1 << len(coat)) == _boolean_by_pairs(closure)
    assert is_boolean(_lattice_of(closure)) == _boolean_by_pairs(closure)


def _lower_sets(L):
    """The node ids of each interval [0, v] of L, as one mask per v."""
    down = [1 << v for v in range(L.n)]
    for c in range(L.n):
        for p in L.parents(c):
            down[p] |= down[c]
    return down


# the expansions of the CATALOG groups with at most this many subracks: all
# but S3xZ3, D8xZ2, Q8xZ2 and the abelian groups of order 10 and more, whose
# intervals the pairwise definition, quadratic in their sizes, reads slowly
COUNT_CHECK_NODES = 640


@pytest.mark.parametrize("spec", CATALOG)
def test_the_count_decides_every_interval(spec, expansion):
    # on the factor P = L(G - Z) and, where it is small, on L(G): [0, v] is
    # Boolean exactly when |[0, v]| = |Int([0, v])| = 2^c, and Int([0, v])
    # exactly when it has 2^c members, c the number of coatoms of [0, v]
    a = analyze_group(spec)
    lattices = [a.factor]
    if a.factor.n << a.center.bit_count() <= COUNT_CHECK_NODES:
        lattices.append(expansion(spec)[1])
    for L in lattices:
        ints = int_lattice(L)
        assert is_boolean(L) == _boolean_by_pairs(L.sets)
        assert (len(ints) == 1 << len(coatoms(L))) == _boolean_by_pairs(ints)
        for v, down in enumerate(_lower_sets(L)):
            interval = [L.sets[u] for u in bits(down)]
            coat = [L.sets[c] for c in L.children(v)]
            ints = _meet_closure(L.sets[v], coat)
            assert (len(ints) == 1 << len(coat)) == _boolean_by_pairs(ints)
            assert (len(interval) == len(ints) == 1 << len(coat)) == _boolean_by_pairs(interval)


def test_lattice_boolean_iff_abelian():
    for spec, want in [("Z6", True), ("Z2xZ2", True), ("S3", False), ("D8", False)]:
        lat = full_lattice(spec)
        assert is_boolean(lat) == want


# ---------------------------------------------------------------------------
# the M-set


def _m_member_sets(spec):
    G = build_group(spec)
    cd = conjugacy_classes(G)
    lat = full_lattice(conjugation_rack(G))
    rep = compute_M(lat, cd.classes)
    return G, lat, rep


def test_m_of_the_thirty_four_cycles_of_s5():
    # the four-cycles of S5 form one class, so every nonempty node's
    # class-union closure is the top and M is the coatoms: the four-cycles
    # of the maximal subgroups S4 (six each) and F20 (ten each)
    lat = full_lattice("S5:cycles(4)")
    rep = compute_M(lat, (lat.sets[-1],))
    assert rep.members == tuple(coatoms(lat))
    got = sorted(sorted(lat.labels[e] for e in bits(lat.sets[v])) for v in rep.members)
    G = build_group("S5")
    want = sorted(
        sorted(G.labels[e] for e in bits(h.elems) if G.labels[e] in lat.labels)
        for h in all_subgroups(G) if h.maximal and h.elems.bit_count() in (20, 24)
    )
    assert got == want and len(got) == 11


def test_compute_m_rejects_masks_that_do_not_partition_the_rack():
    G = build_group("S3")
    classes = conjugacy_classes(G).classes
    lat = full_lattice(conjugation_rack(G))
    assert compute_M(lat, classes).members  # the classes themselves pass
    full = lat.sets[-1]
    for bad in [
        classes[:-1],  # misses a class
        classes + (classes[1],),  # a class twice
        classes[:1] + (classes[1] | classes[0],) + classes[2:],  # overlapping
        classes + (0,),  # an empty block
        (full, 1 << G.order),  # outside the rack
        (),
    ]:
        with pytest.raises(LatticeInvariantError, match="partition"):
            compute_M(lat, bad)
    # a loaded export, which has no rack, is read through its sets and covers
    bare = load_lattice_export(export_lattice_text(lat))
    assert (bare.sets, list(bare.edges())) == (lat.sets, list(lat.edges()))
    assert compute_M(bare, classes) == compute_M(lat, classes)


def test_m_of_s3():
    G, lat, rep = _m_member_sets("S3")
    got = sorted(lat.sets[v] for v in rep.members)
    want = sorted(h.elems for h in all_subgroups(G) if h.elems.bit_count() == 2)
    assert got == want
    for e in rep.entries:
        assert e.member == (e.interval_closed and e.int_not_boolean)


def test_m_of_nilpotent_and_abelian_groups_empty():
    for spec in ["D8", "Q8", "Z6", "Z12", "D8xZ2"]:
        _, _, rep = _m_member_sets(spec)
        assert rep.members == ()


def test_m_of_a4():
    # also S3xS3, a rack of 36 elements
    for spec, count in [("A4", 4), ("S3xS3", 6)]:
        G, lat, rep = _m_member_sets(spec)
        got = sorted(lat.sets[v] for v in rep.members)
        want = sorted(h.elems for h in all_subgroups(G) if h.maximal and not h.normal)
        assert got == want and len(got) == count


def _m_entries_by_definition(lat, classes):
    """(node, elems, interval_closed, int_not_boolean) of every node s that
    is not closed and whose only upper cover is its class-union closure b,
    each condition read off the sets by its definition."""
    sets = lat.sets

    def bar(s):
        return reduce(or_, (c for c in classes if c & s), 0)

    out = []
    for v, s in enumerate(sets):
        b = bar(s)
        # b is the only upper cover of s exactly when b is a set of the
        # lattice and every set above s contains it
        if b == s or b not in sets or any(t & s == s != t and t & b != b for t in sets):
            continue
        interval_closed = all(bar(t) == t for t in sets if t & b == b)
        below = [t for t in sets if t & b == t != b]
        coat = [t for t in below if not any(t & u == t != u for u in below)]
        # Int([bottom, b]) is Boolean exactly when the 2^k meets of the
        # subsets of its k coatoms are distinct
        meets = {
            reduce(and_, combo, b)
            for r in range(len(coat) + 1)
            for combo in itertools.combinations(coat, r)
        }
        out.append((v, s, interval_closed, len(meets) != 1 << len(coat)))
    return out


@pytest.mark.parametrize(
    "spec,blocks",
    [(s, "factor") for s in CATALOG]
    + [(s, "classes") for s in ("S3", "D8", "A4", "S4")]
    + [(s, "pairs") for s in ("D8", "Q8")],
)
def test_compute_m_matches_the_definition(spec, blocks):
    # the factor L(G - Z) with the non-central classes; L(G) whole with the
    # classes; or L(G) with the blocks {0, 1}, {2, 3}, ..., a partition into
    # non-classes under which some node has an unclosed set above its closure
    if blocks == "factor":
        a = analyze_group(spec)
        lat, classes = a.factor, a.classes
    else:
        lat = full_lattice(spec)
        if blocks == "classes":
            classes = conjugacy_classes(build_group(spec)).classes
        else:
            classes = tuple(3 << i for i in range(0, lat.sets[-1].bit_length(), 2))
    got = [
        (e.node, e.elems, e.interval_closed, e.int_not_boolean)
        for e in compute_M(lat, classes).entries
    ]
    assert got == _m_entries_by_definition(lat, classes)


# ---------------------------------------------------------------------------
# product decomposition


def _oracle(G, **kwargs):
    """`product_decomposition_check` on the rack and center of G."""
    return product_decomposition_check(conjugation_rack(G), conjugacy_classes(G).center, **kwargs)


@pytest.mark.parametrize(
    "spec",
    [s for s in CENTRAL_CATALOG if spec_order(parse_group_spec(s)) <= 12]
    + ["Q8xZ2", "Z2xZ2xZ2xZ2"],
)
def test_product_decomposition(spec):
    # the walk, checked as it goes, and the lattice built from it agree
    G = build_group(spec)
    rep = _oracle(G)
    assert rep.ok, rep.detail
    full = _lindig_subracks(conjugation_rack(G), DEFAULT_NODE_BUDGET)
    assert rep == _oracle(G, lattice=full)


def test_product_decomposition_never_holds_the_whole_lattice():
    """Walking Z2xZ2xZ2xZ2's 65,536 nodes and 524,288 covers raises a fresh
    interpreter's peak RSS by under 4 MiB; building the lattice first raised
    it by 17 MiB.  tracemalloc would give the peak too, but slows this walk
    about 25-fold."""
    code = (
        "import resource, sys\n"
        "from racklab.groups import build_group, conjugacy_classes\n"
        "from racklab.lattice import product_decomposition_check as check\n"
        "from racklab.racks import conjugation_rack\n"
        "def rack_and_center(spec):\n"
        "    G = build_group(spec)\n"
        "    return conjugation_rack(G), conjugacy_classes(G).center\n"
        "args = rack_and_center('Z2xZ2xZ2xZ2')\n"
        "check(*rack_and_center('Z2'))\n"
        "peak = lambda: resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "before = peak()\n"
        "assert check(*args).ok\n"
        "print((peak() - before) * (1 if sys.platform == 'darwin' else 1024))\n"
    )
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert int(run.stdout) < 4 << 20


def test_product_decomposition_budget_contract():
    G = build_group("Z2xZ2xZ2xZ2")
    with pytest.raises(BudgetExceeded) as exc:
        _oracle(G, node_budget=65535)
    assert str(exc.value) == "node budget 65535 exceeded; 65535 subracks enumerated so far"
    assert exc.value.partial == 65535
    assert _oracle(G, node_budget=65536).nodes == 65536


def _center_missing_its_lowest(rack, center):
    return center ^ (center & -center)


def _center_plus_a_non_central(rack, center):
    other = rack.full_mask() & ~center
    return center | (other & -other)


def _center_with_one_element_swapped(rack, center):
    return _center_plus_a_non_central(rack, center) ^ (center & -center)


@pytest.mark.parametrize("spec, wrong, report", [
    ("D8", _center_missing_its_lowest, (56, 14, 1, "node count 56 != 14 * 2^1")),
    ("D8", _center_plus_a_non_central, (56, 14, 3, "node count 56 != 14 * 2^3")),
    ("D8", _center_with_one_element_swapped,
     (56, 14, 2, "projection to the non-central part is not a subrack")),
    ("Z4", _center_missing_its_lowest, (16, 1, 3, "node count 16 != 1 * 2^3")),
    ("D8xZ2", _center_missing_its_lowest, (1600, 100, 3, "node count 1600 != 100 * 2^3")),
    ("D8xZ2", _center_plus_a_non_central, (1600, 100, 5, "node count 1600 != 100 * 2^5")),
    ("D8xZ2", _center_with_one_element_swapped,
     (1600, 100, 4, "projection to the non-central part is not a subrack")),
])
def test_product_decomposition_with_a_wrong_center(spec, wrong, report):
    # a center missing an element t of T sends the walk's covers s + t
    # through the per-cover test; the reports, pinned field by field, are
    # those of the oracle that tested every cover one at a time
    G = build_group(spec)
    rack = conjugation_rack(G)
    rep = product_decomposition_check(rack, wrong(rack, conjugacy_classes(G).center))
    assert not rep.ok
    assert (rep.nodes, rep.factor_nodes, rep.center_size, rep.detail) == report


def test_product_decomposition_rejects_a_wrong_node_count():
    rep = _oracle(build_group("D8"), lattice=full_lattice("Z8"))
    assert not rep.ok
    assert rep.detail == f"node count 256 != {rep.factor_nodes} * 2^2"


def _drop_last_cover(L, edges, center):
    return edges[:-1]


def _stretch_a_cover(L, edges, center):
    # replace a cover inside one central part by a pair two steps apart
    for k, (c, p) in enumerate(edges):
        z = L.sets[c] & center
        for q in L.parents(p):
            if L.sets[p] & center == z == L.sets[q] & center:
                return edges[:k] + [(c, q)] + edges[k + 1:]
    raise AssertionError("no cover to stretch")


def _redirect_a_cover(L, edges, target):
    # replace the first cover (c, p) for which target(sets[c], sets[p]) names
    # a set q by (c, q)
    for k, (c, p) in enumerate(edges):
        q = target(L.sets[c], L.sets[p])
        if q is not None:
            return edges[:k] + [(c, L.index[q])] + edges[k + 1:]
    raise AssertionError("no cover to redirect")


def _add_the_whole_center(L, edges, center):
    # a central step that adds all of Z (|Z| = 2) at once
    def target(sc, sp):
        if sc & center == 0 and sp & ~center == sc:
            return sc | center

    return _redirect_a_cover(L, edges, target)


def _drop_a_central_element(L, edges, center):
    # a step down: the same non-central part less one central element
    def target(sc, sp):
        zc = sc & center
        if zc:
            return sc ^ (zc & -zc)

    return _redirect_a_cover(L, edges, target)


def _move_both_coordinates(L, edges, center):
    # a factor step that also adds a central element
    def target(sc, sp):
        free = center & ~sp
        if sc & center == sp & center and free:
            return sp | (free & -free)

    return _redirect_a_cover(L, edges, target)


@pytest.mark.parametrize("mutate, detail", [
    (_drop_last_cover, "cover count 139 != expected 140"),
    (_stretch_a_cover, "a cover does not project to a factor cover"),
    (_add_the_whole_center, "a cover changes the central part by != 1 element"),
    (_drop_a_central_element, "a cover changes the central part by != 1 element"),
    (_move_both_coordinates, "a cover moves in both coordinates"),
])
def test_product_decomposition_rejects_a_wrong_cover_set(mutate, detail):
    G = build_group("D8")
    L = full_lattice(conjugation_rack(G))
    edges = mutate(L, list(L.edges()), conjugacy_classes(G).center)
    wrong = SubrackLattice(L.sets, *_csr_from_edges(L.n, edges), L.labels, L.spec)
    rep = _oracle(G, lattice=wrong)
    assert (rep.ok, rep.detail) == (False, detail)


def test_product_decomposition_rejects_a_set_with_a_non_subrack_projection():
    # the top node G becomes G minus a non-central element, whose
    # non-central part is not closed under conjugation
    G = build_group("D8")
    L = full_lattice(conjugation_rack(G))
    r = G.label_index("r")
    assert not (1 << r) & conjugacy_classes(G).center
    sets = L.sets[:-1] + [L.sets[-1] ^ 1 << r]
    wrong = SubrackLattice(sets, L._pstart, L._pflat, L.labels, L.spec)
    rep = _oracle(G, lattice=wrong)
    assert (rep.ok, rep.detail) == (False, "projection to the non-central part is not a subrack")


# ---------------------------------------------------------------------------
# export format


def test_export_roundtrip():
    lat = full_lattice("S4:cycles(4)")
    text = export_lattice_text(lat)
    loaded = load_lattice_export(text)
    assert loaded.sets == lat.sets
    assert list(loaded.edges()) == list(lat.edges())
    assert loaded.labels == lat.labels
    assert loaded.spec == "S4:cycles(4)"


def test_export_roundtrip_keeps_labels_with_spaces():
    # the loader splits a `label ID TEXT` line at its first two spaces only
    labels = ["a b", " c", "d ", "e  f\tg", ""]
    lat = full_lattice(_dihedral_quandle_with_two_fixed_points(labels))
    text = export_lattice_text(lat)
    loaded = load_lattice_export(text)
    assert loaded.labels == tuple(labels)
    assert (loaded.sets, list(loaded.edges())) == (lat.sets, list(lat.edges()))
    assert export_lattice_text(loaded) == text


def test_budget_exceeded_carries_partial_count():
    with pytest.raises(BudgetExceeded) as e:
        enumerate_subracks(rack_from_spec("D8"), node_budget=5)
    assert e.value.partial == 5


def test_coatoms_of_noncentral_rack_are_class_complements():
    # for a rack holding every non-central class, the maximal subracks are
    # again the all-but-one-class unions
    for spec in ["D8", "Q8", "SL(2,3)"]:
        G = build_group(spec)
        cd = conjugacy_classes(G)
        rack = rack_from_spec(f"{spec}:noncentral")
        lat = full_lattice(rack)
        pos = {G.label_index(lab): i for i, lab in enumerate(rack.labels)}
        noncentral_classes = [c for c in cd.classes if c.bit_count() > 1]
        full = rack.full_mask()
        want = sorted(
            full & ~mask_of(pos[e] for e in bits(c)) for c in noncentral_classes
        )
        got = sorted(lat.sets[v] for v in coatoms(lat))
        assert got == want


def _without_edge_lines(text, edges_line):
    lines = [ln for ln in text.splitlines() if not ln.startswith("e ")]
    lines = [edges_line if ln.startswith("edges ") else ln for ln in lines]
    return "\n".join(lines) + "\n"


def test_export_without_covers_is_rejected():
    text = export_lattice_text(_small_lattice("S3"))
    assert "edges 33" in text
    for edges_line in ("edges 33", "edges 0"):
        stripped = _without_edge_lines(text, edges_line)
        with pytest.raises(ValueError):
            load_lattice_export(stripped)
        with pytest.raises(ValueError):
            reduced_homology(order_complex(load_lattice_export(stripped)))


def _export_lines(spec):
    return export_lattice_text(_small_lattice(spec)).splitlines()


def _replaced(lines, old, new):
    assert old in lines
    return "\n".join(new if ln == old else ln for ln in lines) + "\n"


def test_export_defects_are_rejected():
    lat = _small_lattice("S3")
    lines = _export_lines("S3")
    c, p = next(iter(lat.edges()))
    # an edge skipping a level: the top is above node c, but is no cover of it
    skip = f"e {c} {lat.n - 1}"
    cases = {
        "bottom is not empty": _replaced(lines, "n 0 0", "n 0 40"),
        "node id repeated": _replaced(lines, "n 1 1", "n 0 1"),
        "edge out of range": _replaced(lines, f"e {c} {p}", f"e {c} {lat.n}"),
        "edge not an inclusion": _replaced(lines, f"e {c} {p}", f"e {p} {c}"),
        "edge repeated": "\n".join(lines + [f"e {c} {p}"]) + "\n",
        "skipping edge": _replaced(lines, f"e {c} {p}", skip),
        "label id out of range": _replaced(lines, lines[3], "label 9 x"),
        "label repeated": _replaced(lines, lines[4], "label 1 e"),
        "bad count": _replaced(lines, f"nodes {lat.n}", f"nodes {lat.n + 1}"),
        "negative set": _replaced(lines, "n 1 1", "n 1 -1"),
        # int() reads each of these as the number written, so each export
        # would load as the same 18-node lattice
        "Arabic-Indic count": _replaced(lines, "elements 6", "elements \u0666"),
        "count with an underscore": _replaced(lines, f"nodes {lat.n}", "nodes 1_8"),
        "id with a sign": _replaced(lines, "label 0 e", "label +0 e"),
        "set with a hex prefix": _replaced(lines, "n 0 0", "n 0 0x0"),
        "set with an underscore": _replaced(lines, "n 1 1", "n 1 0_1"),
        "set with a trailing space": _replaced(lines, "n 2 2", "n 2 2 "),
        "edge with a sign": _replaced(lines, "e 0 1", "e +0 1"),
        "Arabic-Indic edge": _replaced(lines, "e 0 1", "e 0 \u0661"),
    }
    for name, text in cases.items():
        with pytest.raises(ValueError):
            load_lattice_export(text)
            pytest.fail(name)


def test_export_with_a_repeated_label_is_rejected():
    # the lattice of the 2-element trivial rack, its labels made equal
    text = (
        "racklat 1\nspec -\nelements 2\nlabel 0 e\nlabel 1 e\n"
        "nodes 4\nn 0 0\nn 1 1\nn 2 2\nn 3 3\nedges 4\ne 0 1\ne 0 2\ne 1 3\ne 2 3\n"
    )
    with pytest.raises(ValueError, match="a label is repeated"):
        load_lattice_export(text)
    assert load_lattice_export(text.replace("label 1 e", "label 1 f")).labels == ("e", "f")


@pytest.mark.parametrize(
    "text, line",
    [
        ("racklat 1\nspec -\nelements 99999999999\n", 3),
        ("racklat 1\nspec -\nelements 1\nlabel 0 e\nnodes 999999999999\n", 5),
    ],
)
def test_export_header_counting_more_lines_than_follow_is_rejected(text, line):
    # the count is checked before any table of that size is allocated
    with pytest.raises(ValueError, match=f"^line {line}: .* lines declared, 0 lines follow"):
        load_lattice_export(text)


def test_export_retargeted_to_a_larger_set_is_rejected():
    # replacing a cover (c, p) by (c, q) with q above p keeps every local
    # check happy whenever p is c's only cover inside q and p keeps another
    # lower cover; only the full Hasse check sees it
    lat = _small_lattice("A4")
    sets = lat.sets
    found = 0
    for c, p in lat.edges():
        for q in range(p + 1, lat.n):
            inside = [r for r in lat.parents(c) if sets[r] & sets[q] == sets[r]]
            if inside == [p] and len(lat.children(p)) > 1:
                text = export_lattice_text(lat).replace(f"e {c} {p}\n", f"e {c} {q}\n")
                with pytest.raises(ValueError):
                    load_lattice_export(text)
                found += 1
    assert found


FUZZ_RACKS = ["S3", "S4:cycles(4)", "D8:noncentral", "S4:transpositions"]


@settings(deadline=None, max_examples=300)
@given(st.sampled_from(FUZZ_RACKS), st.data())
def test_corrupted_export_loads_identically_or_raises(spec, data):
    lat = _small_lattice(spec)
    lines = export_lattice_text(lat).splitlines()
    i = data.draw(st.integers(0, len(lines) - 1))
    kind = data.draw(st.sampled_from(["delete", "duplicate", "swap", "number"]))
    if kind == "delete":
        del lines[i]
    elif kind == "duplicate":
        lines.insert(i, lines[i])
    elif kind == "swap":
        j = (i + 1) % len(lines)
        lines[i], lines[j] = lines[j], lines[i]
    else:
        # rewrite one numeric field; label and spec text are free-form
        parts = lines[i].split(" ")
        slots = {"label": [1], "spec": []}.get(parts[0], range(1, len(parts)))
        if not slots:
            return
        k = data.draw(st.sampled_from(list(slots)))
        if parts[0] == "n" and k == 2:
            parts[k] = format(data.draw(st.integers(-1, lat.sets[-1] + 1)), "x")
        else:
            parts[k] = str(data.draw(st.integers(-1, lat.n + 1)))
        lines[i] = " ".join(parts)
    try:
        loaded = load_lattice_export("\n".join(lines) + "\n")
    except ValueError:
        return
    assert loaded.sets == lat.sets
    assert list(loaded.edges()) == list(lat.edges())
    assert (loaded.labels, loaded.spec) == (lat.labels, lat.spec)
