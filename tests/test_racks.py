from __future__ import annotations

import functools
import itertools
import math
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from racklab.bitsets import bit_list, mask_of
from racklab.catalog import ABELIAN_LE16, CATALOG
from racklab.groups import (
    CapExceeded,
    FiniteGroup,
    GroupSpecError,
    OrderCapExceeded,
    build_group,
    conjugacy_classes,
    subgroup_closure_mask,
)
from racklab import racks
from racklab.lattice import enumerate_subracks, product_statistics
from racklab.racks import (
    Rack,
    RackAxiomError,
    _check_rack_cap,
    closure_forward_only,
    conjugation_rack,
    filter_mask,
    is_quandle,
    rack_from_spec,
    rack_isomorphism,
    validate_rack,
)
from racklab.work import ledger


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


@pytest.mark.parametrize("table, row", [
    ([[0, 1.0], [0, 1]], 0),
    ([[0, 1], [0, True]], 1),
    ([[False, True], [0, 1]], 0),
    ([[0, 1], ["0", 1]], 1),
], ids=["float", "true", "false", "str"])
def test_an_entry_that_is_not_an_int_is_named_by_its_row(table, row):
    # 1.0 == 1 and True == 1 pass the range and bijectivity tests; a float
    # would then index a tuple, and a bool would be stored in `op`
    message = f"row {row} contains an entry that is not an int"
    with pytest.raises(RackAxiomError, match=f"^{re.escape(message)}$"):
        validate_rack(table)


def test_self_distributivity_failure_named():
    with pytest.raises(RackAxiomError, match=r"\(a, b, c\)"):
        validate_rack([[1, 0], [0, 1]])


def test_self_distributivity_failure_names_the_first_triple():
    # S3's conjugation table with two entries of row 1 swapped: every row is
    # still a bijection.  The oracle scans the triples in product order; its
    # first triple, (1, 2, 3), is neither the first in (b, a, c) order nor
    # the last failing c of its (a, b)
    G = build_group("S3")
    table = [[G.conj(a, b) for b in range(6)] for a in range(6)]
    table[1][2], table[1][3] = table[1][3], table[1][2]
    a, b, c = next(
        (a, b, c)
        for a, b, c in itertools.product(range(6), repeat=3)
        if table[a][table[b][c]] != table[table[a][b]][table[a][c]]
    )
    message = f"self-distributivity fails at (a, b, c) = ({a}, {b}, {c})"
    with pytest.raises(RackAxiomError, match=re.escape(message)):
        validate_rack(table)


def _first_failing_triple(table):
    """The exhaustive oracle: the first (a, b, c) in product order with
    a > (b > c) != (a > b) > (a > c), or None."""
    n = len(table)
    return next(
        ((a, b, c) for a, b, c in itertools.product(range(n), repeat=3)
         if table[a][table[b][c]] != table[table[a][b]][table[a][c]]),
        None,
    )


@pytest.mark.parametrize(
    "name", ["S3", "D8", "Q8", "A4", "SL(2,3)", "S4:cycles(4)", "A5:cycles(5)", "shift(5)"]
)
def test_light_rack_test_refuses_exactly_what_the_exhaustive_scan_refuses(name):
    # seeded swaps of two entries in a row keep every row a bijection; the
    # table is refused exactly when some triple fails, and the first one in
    # (a, b, c) order is named.  No swap, or a swap that keeps the axioms,
    # leaves a rack, so both outcomes are reached
    rng = random.Random(f"light-{name}")
    rack = cyclic_shift_rack(5) if name == "shift(5)" else rack_from_spec(name)
    base = [list(row) for row in rack.op]
    n = len(base)
    outcomes = set()
    for trial in range(40):
        table = [row[:] for row in base]
        for _ in range(trial % 3):
            row = table[rng.randrange(n)]
            x, y = rng.sample(range(n), 2)
            row[x], row[y] = row[y], row[x]
        triple = _first_failing_triple(table)
        outcomes.add(triple is None)
        if triple is None:
            validate_rack(table)
        else:
            message = "self-distributivity fails at (a, b, c) = ({}, {}, {})".format(*triple)
            with pytest.raises(RackAxiomError, match=f"^{re.escape(message)}$"):
                validate_rack(table)
    assert outcomes == {True, False}


@pytest.mark.parametrize("spec", CATALOG)
def test_light_rack_test_compares_the_rows_of_a_short_chain_of_generators(spec):
    # each greedy generator's closure strictly contains the last one, from
    # T up to R, so the generators number at most the longest chain of the
    # interval [T, R], which is L(R - T); an abelian group's rack is all T
    rack = rack_from_spec(spec)
    P, t = enumerate_subracks(rack).product_form()
    longest = product_statistics(P, t).lengths[-1] - t
    ledger.clear()
    validate_rack(rack.op, rack.labels)
    assert ledger["distributivity_rows"] == rack.size * ledger["closures"]
    assert ledger["distributivity_rows"] <= rack.size * longest
    assert (ledger["distributivity_rows"] == 0) == (spec in ABELIAN_LE16)


@pytest.mark.parametrize("labels", [["a"], ["a", "b", "c"], ["a", "a"], []])
def test_labels_must_be_distinct_and_one_per_element(labels):
    # a 2-element rack with one label would export `elements 1`, an export
    # that `load_lattice_export` refuses
    with pytest.raises(RackAxiomError, match=f"^{len(labels)} labels for 2 elements"):
        validate_rack([[0, 1], [0, 1]], labels=labels)
    assert validate_rack([[0, 1], [0, 1]], labels=["a", "b"]).labels == ("a", "b")


# every character on which `str.splitlines`, and so the export loader,
# breaks a line
LINE_BREAKS = ["\n", "\v", "\f", "\r", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


@pytest.mark.parametrize("brk", LINE_BREAKS + ["\r\n"])
@pytest.mark.parametrize("where", ["a{}b", "{}a", "a{}"])
def test_a_label_with_a_line_break_is_refused(brk, where):
    # the export writes one `label ID TEXT` line per element, so a label
    # that `load_lattice_export` would read as two lines is refused at build
    label = where.format(brk)
    message = f"the label {label!r} of element 0 holds a line break"
    with pytest.raises(RackAxiomError, match=f"^{re.escape(message)}$"):
        validate_rack([[0, 1], [0, 1]], labels=[label, "c"])


def test_line_breaks_are_all_the_characters_splitlines_breaks_on():
    breaking = [chr(c) for c in range(0x110000) if len(f"a{chr(c)}b".splitlines()) == 2]
    assert breaking == LINE_BREAKS


def test_a_group_label_with_a_line_break_is_refused_in_its_conjugation_rack():
    # a group may carry such a label; every Rack checks its labels, the
    # racks that conjugation builds without `validate_rack` too, so no
    # rack has an export that `load_lattice_export` refuses
    G = FiniteGroup("Z2", [[0, 1], [1, 0]], ["e", "g\nh"])
    message = "the label 'g\\nh' of element 1 holds a line break"
    with pytest.raises(RackAxiomError, match=f"^{re.escape(message)}$"):
        conjugation_rack(G)


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


def test_unclosed_subset_names_the_first_pair():
    G = build_group("S4")
    subset = [G.label_index(lab) for lab in ("(12)", "(34)", "(1234)", "(123)")]
    elems = sorted(subset)
    a, b = next(
        (a, b) for a in elems for b in elems if G.conj(a, b) not in subset
    )
    message = f"{G.labels[a]} > {G.labels[b]} = {G.labels[G.conj(a, b)]} is outside it"
    with pytest.raises(RackAxiomError, match=re.escape(message)):
        conjugation_rack(G, mask_of(subset))


@pytest.mark.parametrize("spec", ["S3:", "S4:", "Z1:", "D8xZ3:"])
def test_a_colon_with_no_filter_is_refused(spec):
    with pytest.raises(RackAxiomError, match="^empty rack filter$"):
        rack_from_spec(spec)
    assert rack_from_spec(spec + "all").op == rack_from_spec(spec[:-1]).op


def test_class_filter():
    r = rack_from_spec("S3:class((12))")
    assert sorted(r.labels) == ["(12)", "(13)", "(23)"]


def _partitions(n, most=None):
    """The partitions of n into parts of at most `most`, parts descending."""
    if n == 0:
        yield []
    for k in range(min(n, most or n), 0, -1):
        for rest in _partitions(n - k, k):
            yield [k] + rest


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_an_class_filter_splits_exactly_the_distinct_odd_cycle_types(n):
    # the S_n class of an even permutation is one class of A_n, or splits
    # into two of half its size when its cycle lengths, fixed points
    # counted, are distinct and odd
    split = 0
    for lengths in _partitions(n):
        if sum(k - 1 for k in lengths) % 2:
            continue
        # n! / prod(k^m * m!) over the m parts of each length k
        centralizer = math.prod(k ** lengths.count(k) * math.factorial(lengths.count(k))
                                for k in set(lengths))
        s_n_size = math.factorial(n) // centralizer
        # the cycles on consecutive points, the label the group gives them
        points, label = iter("123456"), ""
        for k in lengths:
            cycle = "".join(next(points) for _ in range(k))
            label += f"({cycle})" if k > 1 else ""
        halves = len(set(lengths)) == len(lengths) and all(k % 2 for k in lengths)
        rack = rack_from_spec(f"A{n}:class({label or 'e'})", max_order=360)
        assert rack.size == s_n_size >> halves
        split += halves
    assert split


@pytest.mark.parametrize("spec, size", [
    ("A4:class((123))", 4), ("S4:class((123))", 8),
    ("A5:class((12345))", 12), ("S5:class((12345))", 24),
    ("A5:class((123))", 20), ("A6:class((123)(456))", 40),
])
def test_class_filter_sizes_in_an_and_sn(spec, size):
    assert rack_from_spec(spec, max_order=360).size == size


def test_noncentral_filter():
    r = rack_from_spec("D8:noncentral")
    assert r.size == 6


def test_transpositions_filter_needs_permutation_group():
    with pytest.raises(RackAxiomError):
        rack_from_spec("S3xZ2:transpositions")


@pytest.mark.parametrize("spec", [
    "Z\u0663xZ\uff12", "D\uff18", "DIC\u0663", "S4:cycles(\u0664)",
])
def test_non_ascii_digits_are_refused(spec):
    # int() reads any Unicode digit; the grammar's parameters are ASCII only
    with pytest.raises((GroupSpecError, RackAxiomError)):
        rack_from_spec(spec)


# ---------------------------------------------------------------------------
# cycle classes from their permutations, against the group table

ORACLE_MAX_ORDER = 720


@functools.lru_cache(maxsize=None)
def _group(group_part, max_order):
    return build_group(group_part, max_order=max_order)


def _outcome(build):
    """What a rack build gives: the rack's tables, labels, trivial part,
    provenance and permutations, or the type and message of what it
    raised."""
    try:
        r = build()
    except (RackAxiomError, CapExceeded) as exc:
        return type(exc), str(exc)
    return r.op, r.inv_op, r.labels, r.trivial_part, r.provenance, r.perms


def _table_path(spec, max_order):
    """The rack of `spec` conjugated inside the group table, refused over the
    enumeration cap as `racklab lattice` and `homology` refuse it."""
    group_part, _, filt = spec.partition(":")
    G = _group(group_part, max_order)
    rack = conjugation_rack(G, filter_mask(G, filt), provenance=spec)
    _check_rack_cap(rack.size)
    return rack


def _direct_path(spec, max_order):
    """`rack_from_spec`, checked to build no group table."""
    ledger.clear()
    try:
        return rack_from_spec(spec, max_order=max_order)
    finally:
        assert ledger["direct_products"] == 0


CYCLE_SPECS = [
    f"{family}{n}:{filt}"
    for family in "SA"
    for n in range(1, 7)
    for filt in ("transpositions", *(f"cycles({k})" for k in range(1, n + 2)))
]


@pytest.mark.parametrize("spec", CYCLE_SPECS)
def test_cycle_class_rack_equals_the_table_path(spec):
    direct = _outcome(lambda: _direct_path(spec, ORACLE_MAX_ORDER))
    assert direct == _outcome(lambda: _table_path(spec, ORACLE_MAX_ORDER))


def test_the_cycle_class_oracle_covers_each_outcome():
    outcomes = [_outcome(lambda: rack_from_spec(s, ORACLE_MAX_ORDER)) for s in CYCLE_SPECS]
    raised = [o[0] for o in outcomes if isinstance(o[0], type)]
    # empty classes; S6's 4-, 5- and 6-cycles and A6's 5-cycles, over the cap
    assert raised.count(CapExceeded) == 4
    assert raised.count(RackAxiomError) == len(CYCLE_SPECS) - 4 - 22
    assert max(len(o[0]) for o in outcomes if not isinstance(o[0], type)) == 40


def test_cycle_class_rack_is_validated(monkeypatch):
    seen = []

    def spy(op, labels=None, provenance=None):
        seen.append(provenance)
        return validate_rack(op, labels, provenance)

    monkeypatch.setattr(racks, "validate_rack", spy)
    assert rack_from_spec("S4:cycles(3)").size == 8
    assert seen == ["S4:cycles(3)"]


def test_a_rack_carries_permutations_only_from_a_permutation_group():
    G = build_group("S4")
    rack = rack_from_spec("S4:class((12)(34))")
    assert rack.perms == tuple(G.perms[G.label_index(lab)] for lab in rack.labels)
    assert rack_from_spec("D8").perms is None


@pytest.mark.parametrize("spec, max_order", [
    ("S6:transpositions", 120),  # refused by its order, before the class is counted
    ("A7:cycles(3)", 2519),
    ("S3xZ2:transpositions", 120),  # a product: stays on the group path
    ("S3xZ2:cycles(3)", 120),
])
def test_cycle_filters_outside_the_direct_path_match_the_group_path(spec, max_order):
    group_part, _, filt = spec.partition(":")

    def group_path():
        G = build_group(group_part, max_order=max_order)
        return conjugation_rack(G, filter_mask(G, filt), provenance=spec)

    want = _outcome(group_path)
    assert want[0] in (RackAxiomError, OrderCapExceeded)
    assert _outcome(lambda: rack_from_spec(spec, max_order=max_order)) == want


# ---------------------------------------------------------------------------
# closure


def test_closure_examples():
    r = rack_from_spec("S4:cycles(4)")
    one = 1 << r.labels.index("(1234)")
    assert r.closure(one) == one  # quandle singleton
    other = 1 << r.labels.index("(1324)")
    assert r.closure(one | other) == r.full_mask()
    assert r.closure(0) == 0


@pytest.mark.parametrize("spec", ["S3", "D14:noncentral", "D8xZ3"])
def test_merged_tables_equal_a_per_byte_union(spec):
    # 6, 13 and 24 elements: short last chunks of 6 and 5 elements, and
    # three whole chunks with six trivial elements scattered among them
    rack = rack_from_spec(spec)
    n, op, inv_op = rack.size, rack.op, rack.inv_op
    tables = rack._merged_tables()
    assert len(tables) == (n + 7) // 8
    for c, tab in enumerate(tables):
        ys = range(8 * c, min(8 * c + 8, n))
        assert len(tab) == 1 << len(ys)
        for byte, packed in enumerate(tab):
            assert packed >> n * n == 0, (c, byte)
            for a in range(n):
                expected = 0
                if not rack.trivial_part >> a & 1:
                    for j, y in enumerate(ys):
                        if byte >> j & 1:
                            expected |= (1 << op[a][y]) | (1 << inv_op[a][y])
                            expected |= (1 << op[y][a]) | (1 << inv_op[y][a])
                assert packed >> n * a & ((1 << n) - 1) == expected, (a, c, byte)


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


# 6, 13, 24 and 40 elements; D8xZ3's six trivial elements lie scattered
# among its three chunks of 8
_SIZED_RACKS = [
    rack_from_spec("S3"),
    rack_from_spec("D14:noncentral"),
    rack_from_spec("D8xZ3"),
    rack_from_spec("A6:cycles(3)", max_order=360),
]


@settings(deadline=None, max_examples=300)
@given(st.data())
def test_closure_with_closed_and_stop_equals_forward_closure(data):
    rack = data.draw(st.sampled_from(_SIZED_RACKS))
    elements = st.sets(st.integers(0, rack.size - 1), max_size=4).map(mask_of)
    core, extra = data.draw(elements), data.draw(elements)
    # `closed` may be any subset of the seed holding its own pairwise
    # products and inverse products, as the walk's s + x does
    pairs = mask_of(
        v for a in bit_list(core) for b in bit_list(core)
        for v in (rack.op[a][b], rack.inv_op[a][b])
    )
    seed = core | pairs | extra
    closed = core if data.draw(st.booleans()) else 0
    stop = data.draw(st.one_of(st.just(0), elements, st.integers(0, rack.full_mask())))
    want = closure_forward_only(rack, seed)
    got = rack.closure(seed, closed, stop)
    if want & stop & ~seed:
        assert got & seed == seed and got & want == got  # between seed and closure
        assert got & stop & ~seed  # stopped on an added stop element
    else:
        assert got == want


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
