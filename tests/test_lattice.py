from __future__ import annotations

import subprocess
import sys
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import all_maximal_chains, full_lattice
from racklab.bitsets import bit_list, bits, mask_of
from racklab.catalog import CENTRAL_CATALOG
from racklab.groups import (
    CapExceeded,
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
    is_boolean_sets,
    iter_closed_sets_lectic,
    load_lattice_export,
    product_decomposition_check,
)
from racklab.racks import Rack, conjugation_rack, rack_from_spec
from racklab.topology import order_complex, reduced_homology

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
    a = lat.node_of(1 << pos[x])
    b = lat.node_of(1 << pos[other])
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
        node = lat.node_of(h.elems)
        through.setdefault(h.order, set()).update(_lengths_through(lat, node))
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
            node = lat.node_of(h.elems)
            seen.setdefault(h.order, set()).update(_lengths_through(lat, node))
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


def test_int_lattice_of_group_lattices():
    for spec in ["S3", "D8", "S4"]:
        G = build_group(spec)
        cd = conjugacy_classes(G)
        lat = full_lattice(conjugation_rack(G))
        ints = int_lattice(lat)
        assert len(ints) == 2 ** len(cd.classes)
        assert is_boolean_sets(ints)
        # Int consists exactly of the unions of conjugacy classes
        unions = {0}
        for c in cd.classes:
            unions |= {u | c for u in unions}
        assert set(ints) == unions


def test_int_of_four_cycle_lattice_not_boolean():
    lat = full_lattice("S4:cycles(4)")
    ints = int_lattice(lat)
    assert len(ints) == 5
    assert not is_boolean_sets(ints)


def test_is_boolean_sets_cases():
    # the subsets of a 3-set
    cube = [m for m in range(8)]
    assert is_boolean_sets(cube)
    # a chain of length 3 is not Boolean
    assert not is_boolean_sets([0, 1, 3])
    # an abstract square whose top is bigger than the union of its atoms
    assert is_boolean_sets([0, 1, 2, 7])
    # five elements can never be Boolean
    assert not is_boolean_sets([0, 1, 2, 3, 7])


def test_is_boolean_sets_needs_signatures_to_keep_inclusion():
    # the signatures over the atoms {1}, {2}, {3} biject onto 2^3, but
    # {1,2,9} is not inside {1,2,3,8}
    family = [[], [1], [2], [3], [1, 2, 9], [1, 3], [2, 3], [1, 2, 3, 8]]
    assert not is_boolean_sets(mask_of(s) for s in family)


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
def test_is_boolean_sets_matches_the_pairwise_definition(family):
    assert is_boolean_sets(family) == _boolean_by_pairs(family)


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


def test_m_cap():
    # the 30 four-cycles of S5 form one class
    lat = full_lattice("S5:cycles(4)")
    with pytest.raises(CapExceeded, match=r"^M computation capped at rack size 24$"):
        compute_M(lat, (lat.sets[-1],))


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
    want = sorted(h.elems for h in all_subgroups(G) if h.order == 2)
    assert got == want
    for e in rep.entries:
        assert e.member == (e.interval_closed and e.int_not_boolean)


def test_m_of_nilpotent_and_abelian_groups_empty():
    for spec in ["D8", "Q8", "Z6", "Z12", "D8xZ2"]:
        _, _, rep = _m_member_sets(spec)
        assert rep.members == ()


def test_m_of_a4():
    G, lat, rep = _m_member_sets("A4")
    got = sorted(lat.sets[v] for v in rep.members)
    want = sorted(h.elems for h in all_subgroups(G) if h.maximal and not h.normal)
    assert got == want and len(got) == 4


# ---------------------------------------------------------------------------
# product decomposition


@pytest.mark.parametrize(
    "spec",
    [s for s in CENTRAL_CATALOG if spec_order(parse_group_spec(s)) <= 12]
    + ["Q8xZ2", "Z2xZ2xZ2xZ2"],
)
def test_product_decomposition(spec):
    # the walk, checked as it goes, and the lattice built from it agree
    G = build_group(spec)
    rep = product_decomposition_check(G)
    assert rep.ok, rep.detail
    full = _lindig_subracks(conjugation_rack(G), DEFAULT_NODE_BUDGET)
    assert rep == product_decomposition_check(G, lattice=full)


def test_product_decomposition_never_holds_the_whole_lattice():
    """Walking Z2xZ2xZ2xZ2's 65,536 nodes and 524,288 covers raises a fresh
    interpreter's peak RSS by under 4 MiB; building the lattice first raised
    it by 17 MiB.  tracemalloc would give the peak too, but slows this walk
    about 25-fold."""
    code = (
        "import resource, sys\n"
        "from racklab.groups import build_group\n"
        "from racklab.lattice import product_decomposition_check as check\n"
        "G = build_group('Z2xZ2xZ2xZ2')\n"
        "check(build_group('Z2'))\n"
        "peak = lambda: resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "before = peak()\n"
        "assert check(G).ok\n"
        "print((peak() - before) * (1 if sys.platform == 'darwin' else 1024))\n"
    )
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert int(run.stdout) < 4 << 20


def test_product_decomposition_budget_contract():
    G = build_group("Z2xZ2xZ2xZ2")
    with pytest.raises(BudgetExceeded) as exc:
        product_decomposition_check(G, node_budget=65535)
    assert str(exc.value) == "node budget 65535 exceeded; 65535 subracks enumerated so far"
    assert exc.value.partial == 65535
    assert product_decomposition_check(G, node_budget=65536).nodes == 65536


def test_product_decomposition_rejects_a_wrong_node_count():
    rep = product_decomposition_check(
        build_group("D8"), lattice=full_lattice("Z8")
    )
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
    rep = product_decomposition_check(G, lattice=wrong)
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
    rep = product_decomposition_check(G, lattice=wrong)
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
        "bad count": _replaced(lines, f"nodes {lat.n}", f"nodes {lat.n + 1}"),
        "negative set": _replaced(lines, "n 1 1", "n 1 -1"),
    }
    for name, text in cases.items():
        with pytest.raises(ValueError):
            load_lattice_export(text)
            pytest.fail(name)


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
