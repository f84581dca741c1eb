from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import random
import re

import pytest

from conftest import (
    brute_force_subgroups,
    commutes_pairwise,
    normal_subgroup_count,
    pairwise_closure,
    pairwise_subgroups,
    supersolvable_by_huppert,
)
from test_group_outputs import EDGE_SPECS, EXTRA_SPECS
from racklab.bitsets import bit_list, mask_of
from racklab import catalog
from racklab.catalog import CATALOG
from racklab.cli import main
from racklab.groups import (
    CapExceeded,
    FamilyTerm,
    FiniteGroup,
    GroupSpecError,
    OrderCapExceeded,
    SubgroupHandle,
    all_subgroups,
    build_group,
    check_class_avoidance,
    conjugacy_classes,
    core_and_normalizer,
    format_group_spec,
    group_properties,
    normal_subgroups_masks,
    parse_group_spec,
    spec_order,
    subgroup_closure_mask,
)
from racklab.work import ledger


# ---------------------------------------------------------------------------
# grammar


def test_parse_symmetric():
    assert parse_group_spec("S4") == (FamilyTerm("S", 4),)


def test_parse_product():
    spec = parse_group_spec("S3xZ2")
    assert spec == (FamilyTerm("S", 3), FamilyTerm("Z", 2))


def test_parse_fixed_tokens():
    for token, order in [("Q8", 8), ("Q16", 16), ("SD16", 16), ("SL(2,3)", 24), ("TV18", 18)]:
        assert spec_order(parse_group_spec(token)) == order


def test_parse_dihedral_odd_rejected():
    with pytest.raises(GroupSpecError):
        parse_group_spec("D7")


def test_parse_garbage_rejected_with_position():
    with pytest.raises(GroupSpecError) as e:
        parse_group_spec("S3xZoo")
    assert e.value.position == 3


def test_parse_roundtrip():
    for text in ["S4", "S3xZ2", "D8xZ3", "SL(2,3)", "Q8xZ2xZ2", "TV18", "DIC3"]:
        assert format_group_spec(parse_group_spec(text)) == text


def test_three_factor_spec():
    spec = parse_group_spec("Q8xZ2xZ2")
    assert format_group_spec(spec) == "Q8xZ2xZ2"
    assert build_group(spec).order == 32
    with pytest.raises(
        OrderCapExceeded, match=r"^group order 32 exceeds the cap 16 for Q8xZ2xZ2$"
    ):
        build_group("Q8xZ2xZ2", max_order=16)


def test_order_cap():
    with pytest.raises(OrderCapExceeded):
        build_group("S5", max_order=100)
    assert issubclass(OrderCapExceeded, CapExceeded)
    assert build_group("S5", max_order=120).order == 120


# ---------------------------------------------------------------------------
# construction


@pytest.mark.parametrize(
    "spec,order",
    [("Z1", 1), ("S3", 6), ("A4", 12), ("D8", 8), ("DIC3", 12), ("Q16", 16),
     ("SD16", 16), ("SL(2,3)", 24), ("TV18", 18), ("S3xZ2", 12)],
)
def test_orders(spec, order):
    assert build_group(spec).order == order


# sha256 of repr((labels, mul, perms)): pins every element's number, label
# and permutation, so a rewrite of a builder cannot renumber a group
TABLE_DIGESTS = {
    "Z1": "8a90b6c40084fa2434b625894928336d55783eecaee8cd1bd02ec5952f2aa9b7",
    "Z2": "0a1aa6e6eec9ad3f7a6c4c135d315c7bd779f63c0a3808240c12b04f3c87ec8a",
    "Z3": "ee87c8e7f19bef15966fdabf861540f945075a748cf15a912f4d0682367b4609",
    "Z4": "37a413712d6b0d707ba98496439c0e96002013c06682dab3043825b4eeabe631",
    "Z2xZ2": "577a66c70b161a7b22a74a167aaf738c4ba8fbecb36c0556b340fa23d5ada9d3",
    "Z5": "b11ea93456d59e321bdd550f7412f618d166ca3ce1fa4745f2ea2db422f18331",
    "Z6": "26ffe3615e4ad531645cfdcc990c7fc61ab046b4fef375dfeab8fb81add64ae3",
    "Z7": "b40c3bce6778f82a61fe19e28b6870faf77d7203444f0475b4d7a730f0697f7e",
    "Z8": "98af5784e0e994066bf452c3719466e7181996e34dcfc4b638cbd0e5d05e94c9",
    "Z4xZ2": "7b8cb8eeb182ad03c8a1b3ee46c5d992c6a1abeef40c20bc1788f1d56699c86b",
    "Z2xZ2xZ2": "5a99e1fd33d9ea0905503671aadd0f4f1ffdb204f56b1057ba2507056109d873",
    "Z9": "1eb8f87818337ca3737dd6646b4a99f0d616edf7794beb868a946fb14df3264a",
    "Z3xZ3": "513f96876c4c43fc435da6166f9bc5d32d2003cbd33ece771f3d824c68df2476",
    "Z10": "92c3565b655434495f4761e36c63a96b013251c9b1d5174761d323b7961ec8a7",
    "Z11": "e92d84b72f364b0836ee9006f119051b948bff665f3e11e4d357e86e2d8d608f",
    "Z12": "295f691e5bb85cc9fdf50ec31c24ad3c1478e47aae6c78ddc85b1877519aa39d",
    "Z6xZ2": "b80726b0d59dcb7d8e0c3f783ec591a1c03a0d64ef6d979dc6f59f445e16424c",
    "Z13": "9cfdabcfb54257a8b1c6bf6afa867fbfc209703b7ede04c04e42e972b765564b",
    "Z14": "913191e015bec16d56747d3e820d40f9825b9c27e23ed625089de704a668b87e",
    "Z15": "c4c07e9abbe49dd2094b6ea9a92e844e73a7c55023563a82d485ee0e3011e4d9",
    "Z16": "7a0c6cf514f18753b383e5d6d89029fdf451cdd41a1c59205f76cfb0d71cd373",
    "Z8xZ2": "51b430dd86a844c0a633e23488082d794a741d40f2ec24c5d35e22cbf85b1fe9",
    "Z4xZ4": "d601695dec54f0f5b9000f875c0a102157ba4de29583dc0a8e7aeb45116406f4",
    "Z4xZ2xZ2": "2b4da59348a300472e60bba88ca1578de7713dfb7a204a36837b9f04c7e534d5",
    "Z2xZ2xZ2xZ2": "579b6fd0515b71f8caf7bd326f73d3b0034440b6fb5feede9eb03bbb9baf274a",
    "S3": "a49fcf1f7164a40308054515d9a1f8b45a777a26d9669442e236a88051e20023",
    "D8": "985adaa24227704f3e3597fd9a2ae7d8c3737d512f0ff36704238fca46dbb14a",
    "Q8": "cad026b0a1289c1c5302882349ba2f4c808a2639ec8445a39b01fbd7de4ea34f",
    "D10": "4b7a7375d6689aeb8d8610a25e0fe1ecb1040ca5e9c96e073a93a05c783cf338",
    "D12": "ee7543b056bd846c647bc4623e54774add03ce135c3214733c89e37d556ec02e",
    "A4": "b2dae625f19d8cba6d1c863506235fe73dcc0b577fde84de1064e3c04fe5e65f",
    "DIC3": "21a4298834f4a71a38791545754f112a494055e030b0e15590ee8fe290fad563",
    "D14": "35c2ae2daa2863b42d910f215cd6ad65b46e8fdfa95c727405ff8f153ef3173a",
    "D16": "41721af0bcc62c3efcba363f53d8d37e983ce7b70a630e64fa169ef0a1631baf",
    "Q16": "af9e15ae9a0265fe1441cc7265c4feb3d5a4c206a72997e5c6a9dc04f8def418",
    "SD16": "1f0892bc38e4acdbd54318b31028ce32cced41107f1eaf5ead755f8f5cb17e72",
    "S3xZ2": "2887d62fc858c3d9e61ee2196689fc83e00b04dd6a5f5394c4a4f2134285e2db",
    "S3xZ3": "2c9e25e82cdd7e71601de0fc02e9531b9584e347a61994471692e1fd37aef65b",
    "D8xZ2": "32eeb9b35ce07afcbb9ef28893696136c6cc3df368a2fdf933287378a83dedd3",
    "Q8xZ2": "a09aefe93b6af7058347b08cb55070551b3bceee72532effcf5a815087d5e8a2",
    "TV18": "b20385eb682eb8cc8b8d94e4b8f7a1f200226eb0965c587022d8f437016550ee",
    "S4": "bc5d754c5642f25780756035cfb049bfa5369b9712cc93607d8967eaa035e7f9",
    "SL(2,3)": "14291e1c90d37e80ce339bfd020a612fd0dbf10824846e7f8f8ae44d0b6ffeb6",
    "A5": "cb870d5a1179dae2418c3140e0ce655c97592b37a28901b345ac6cd5016276ce",
    "S5": "9778010465844a77f0def75bbd574569c9413c3da9f71e299dabbce1748755ef",
    "A6": "fb5366cc30d7d4e2582aaafe7a60cbe2690b95e6ef084931cbe3228b898ab996",
    "D18": "ee63e57faf431d1b0bf2753ccf82ae7e9f3090cd3006f2e8058485e5632772f3",
    "D24": "f0eb04dbf89da09c5215cca0c2bedfb09645aef6e5ce027abbbfedc065686d2c",
    "DIC5": "23c92af2dcf1069ef5ed7c1196c01ba6b060f8df0715452fb57a7c41a7259d0b",
    "D8xZ3": "3e6ee495fbe1fa93b1316c79d6b908cab7eeaab54f288fdfe5332337256b5ab9",
    "Q8xZ3": "8fddc5898752ff045664d252dc933468768f91ecd4e6edef44c4616b98085179",
    "S3xS3": "f2e89679495105b495eec67695e077ca247e5c11b2e00961a219db7625a2bf8a",
}


def test_table_digests_cover_the_catalog():
    assert set(CATALOG) < set(TABLE_DIGESTS)


@pytest.mark.parametrize("spec", sorted(TABLE_DIGESTS))
def test_group_table_digest(spec):
    G = build_group(spec, max_order=360)
    digest = hashlib.sha256(repr((G.labels, G.mul, G.perms)).encode()).hexdigest()
    assert digest == TABLE_DIGESTS[spec]


@pytest.mark.parametrize("spec", sorted(TABLE_DIGESTS))
def test_spec_order_is_the_order_of_the_built_group(spec):
    # the two columns of the family table, order rule and builder, agree
    assert spec_order(parse_group_spec(spec)) == build_group(spec, max_order=360).order


@pytest.mark.parametrize("dicyclic,fixed", [("DIC2", "Q8"), ("DIC4", "Q16")])
def test_q8_and_q16_are_dicyclic(dicyclic, fixed):
    # Q8 = DIC2 and Q16 = DIC4, element for element
    a, b = build_group(dicyclic), build_group(fixed)
    assert (a.mul, a.labels) == (b.mul, b.labels)


def test_tv18_center_and_presentation():
    G = build_group("TV18")
    # brute-force center
    center = [
        a for a in range(G.order)
        if all(G.mul[a][b] == G.mul[b][a] for b in range(G.order))
    ]
    assert center == [0]
    # the order-2 generator inverts every element of the normal part
    t = G.label_index("tv00")
    for v in range(G.order):
        if G.labels[v].startswith("v") or v == 0:
            assert G.mul[G.mul[G.inv[t]][v]][t] == G.inv[v]


def test_sl23_class_sizes():
    cd = conjugacy_classes(build_group("SL(2,3)"))
    assert cd.sizes == (1, 1, 4, 4, 4, 4, 6)


def test_bad_table_rejected():
    # row 1 has no 0, so no inverse either: the permutation test names it first
    with pytest.raises(ValueError, match=re.escape("row/column 1 of the table is not a permutation")):
        FiniteGroup("broken", [[0, 1], [1, 1]], ["e", "g"])


def _composition_table(perms):
    """Oracle: the table of `perms` one product at a time, (p q)(i) = p(q(i))."""
    index = {p: i for i, p in enumerate(perms)}
    return [tuple(index[tuple(p[i] for i in q)] for q in perms) for p in perms]


@pytest.mark.parametrize("spec", ["S1", "S2", "S3", "S4", "S5", "S6", "A3", "A4", "A5", "A6"])
def test_permutation_table_matches_the_composition_oracle(spec):
    G = build_group(spec, max_order=720)
    assert list(G.mul) == _composition_table(G.perms)


def _first_failing_triple(mul):
    """Oracle: the first (a, b, c) in product order with (a b) c != a (b c),
    or None if the table is associative."""
    n = len(mul)
    return next(
        (
            (a, b, c)
            for a, b, c in itertools.product(range(n), repeat=3)
            if mul[mul[a][b]][c] != mul[a][mul[b][c]]
        ),
        None,
    )


def _swap_intercalate(mul, rows, cols):
    """`mul` with the 2x2 subsquare at `rows` x `cols` swapped: each of the
    two rows exchanges its entries in the two columns.  The subsquare must be
    an intercalate (row r0 holds in its columns what r1 holds in reverse), so
    the result is again a Latin square."""
    (r0, r1), (c0, c1) = rows, cols
    assert (mul[r0][c0], mul[r0][c1]) == (mul[r1][c1], mul[r1][c0])
    out = [list(row) for row in mul]
    for r in rows:
        out[r][c0], out[r][c1] = out[r][c1], out[r][c0]
    return out


# Latin squares with identity 0 in which every element has a two-sided
# inverse, but which are not associative.  Order 5 is the smallest such
# order; in the order-6 square the first failing triple differs from the
# first one in (b, a, c) order and from the last failing c of its (a, b).
# The order-100 square is Z100 with one intercalate swapped; it fails first
# at (1, 4, 48), where a sample of triples is unlikely to look.
NONASSOCIATIVE_LOOPS = [
    [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3], [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]],
    [
        [0, 1, 2, 3, 4, 5], [1, 2, 0, 5, 3, 4], [2, 0, 1, 4, 5, 3],
        [3, 5, 4, 0, 2, 1], [4, 3, 5, 1, 0, 2], [5, 4, 3, 2, 1, 0],
    ],
    _swap_intercalate([[(a + b) % 100 for b in range(100)] for a in range(100)], (5, 55), (48, 98)),
]


@pytest.mark.parametrize("mul", NONASSOCIATIVE_LOOPS, ids=["order5", "order6", "order100"])
def test_associativity_failure_names_the_first_triple(mul):
    a, b, c = _first_failing_triple(mul)
    labels = [str(i) for i in range(len(mul))]
    with pytest.raises(ValueError, match=re.escape(f"associativity fails at ({a}, {b}, {c})")):
        FiniteGroup("loop", mul, labels)


def _random_intercalate(G, rng):
    """Rows (x, y) and columns (u, v) of an intercalate of G's table that
    holds no identity, for random x, u and a random involution z: y = z x
    and v = y^-1 x u give y v = x u, and x y^-1 x = z^-1 x = y gives
    x v = y u."""
    mul, inv = G.mul, G.inv
    involutions = [z for z in range(1, G.order) if mul[z][z] == 0]
    while True:
        z, x, u = rng.choice(involutions), rng.randrange(1, G.order), rng.randrange(1, G.order)
        y = mul[z][x]
        v = mul[mul[inv[y]][x]][u]
        if 0 not in (y, v, mul[x][u], mul[x][v]):
            return (x, y), (u, v)


@pytest.mark.parametrize("spec", ["D8", "Q8", "S4", "Z4xZ2xZ2", "D50", "Z2xZ2xZ2xZ2xZ2xZ2"])
def test_associativity_test_agrees_with_the_brute_force_oracle(spec):
    # tables of orders 8 to 64 with one intercalate swapped: the test on
    # generators refuses exactly those in which the scan of every triple
    # finds a failure, and names the same triple
    G = build_group(spec)
    labels = [str(i) for i in range(G.order)]
    rng = random.Random(spec)
    for _ in range(3):
        mul = _swap_intercalate(G.mul, *_random_intercalate(G, rng))
        triple = _first_failing_triple(mul)
        if triple is None:
            FiniteGroup("swapped", mul, labels)
        else:
            with pytest.raises(ValueError, match=re.escape(f"associativity fails at {triple}")):
                FiniteGroup("swapped", mul, labels)


@pytest.mark.parametrize("spec", list(TABLE_DIGESTS))
def test_associativity_compares_at_most_n_log_n_rows(spec):
    G = build_group(spec, max_order=360)
    ledger.clear()
    FiniteGroup(G.name, G.mul, G.labels)
    assert ledger["associativity_rows"] <= G.order * (G.order.bit_length() - 1)


@pytest.mark.parametrize(
    "mul, message",
    [
        # ragged: the short last row leaves one column, so column 1 is missing
        ([[0, 1, 2], [1, 2, 0], [2]], "row/column 1 of the table is not a permutation"),
        ([[0, 1, 2], [1, 2, 0], [2, 0, 1, 0]], "row/column 2 of the table is not a permutation"),
        # a Latin square whose identity is element 1
        ([[1, 0], [0, 1]], "element 0 is not an identity"),
        # 2 3 = 0 but 3 2 = 1: element 2 has a right inverse only
        (
            [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 3, 4, 0, 1], [3, 4, 1, 2, 0], [4, 2, 0, 1, 3]],
            "element 2 has no two-sided inverse",
        ),
        ([], "the table is empty; a group has at least one element"),
        # 0.0 == 0 and True == 1 pass the permutation tests; a float would
        # then shift a bitmask, and a bool would be stored in `mul`
        ([[0, 1], [1, 0.0]], "row 1 of the table holds an entry that is not an int"),
        ([[False, True], [True, False]], "row 0 of the table holds an entry that is not an int"),
        ([[0, 1], [True, 0]], "row 1 of the table holds an entry that is not an int"),
    ],
    ids=["ragged-short", "ragged-long", "no-identity", "one-sided-inverse", "empty",
         "float", "bools", "true"],
)
def test_malformed_table_rejected(mul, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        FiniteGroup("broken", mul, [str(i) for i in range(len(mul))])


# ---------------------------------------------------------------------------
# conjugacy classes


@pytest.mark.parametrize(
    "spec,sizes",
    [("S3", (1, 2, 3)), ("D8", (1, 1, 2, 2, 2)), ("Q8", (1, 1, 2, 2, 2)),
     ("A4", (1, 3, 4, 4)), ("TV18", (1, 2, 2, 2, 2, 9))],
)
def test_class_sizes(spec, sizes):
    G = build_group(spec)
    cd = conjugacy_classes(G)
    assert cd.sizes == sizes
    assert sum(cd.sizes) == G.order
    assert all(G.order % s == 0 for s in cd.sizes)
    assert cd.center.bit_count() == sum(1 for s in cd.sizes if s == 1)
    # independent orbit check
    for e in range(G.order):
        orbit = {G.conj(g, e) for g in range(G.order)}
        assert mask_of(orbit) == cd.class_mask_of(e)


# ---------------------------------------------------------------------------
# subgroups


def test_subgroup_generated_cyclic():
    G = build_group("S3")
    c = G.label_index("(123)")
    h = subgroup_closure_mask(G, 1 << c)
    assert sorted(G.labels[i] for i in bit_list(h)) == ["(123)", "(132)", "e"]


def test_subgroup_generated_two_four_cycles():
    G = build_group("S4")
    a, b = G.label_index("(1234)"), G.label_index("(1324)")
    assert subgroup_closure_mask(G, 1 << a | 1 << b).bit_count() == 24


def test_subgroup_generated_empty_seed():
    G = build_group("A4")
    assert subgroup_closure_mask(G, 0) == 1


# (spec, subgroups, maximal subgroups, normal subgroups)
SUBGROUP_COUNTS = [
    ("S3", 6, 4, 3), ("Z4", 3, 1, 3), ("Q8", 6, 3, 6), ("A4", 10, 5, 3), ("S4", 30, 8, 4),
    ("A5", 59, 21, 2), ("S5", 156, 22, 3),
]


@pytest.mark.parametrize(
    "spec,count,maximal,normal", SUBGROUP_COUNTS, ids=[f"{c[0]}-{c[1]}" for c in SUBGROUP_COUNTS]
)
def test_subgroup_counts(spec, count, maximal, normal):
    G = build_group(spec)
    subs = all_subgroups(G)
    assert len(subs) == count
    assert sum(h.maximal for h in subs) == maximal
    assert sum(h.normal for h in subs) == normal
    if G.order <= 12:
        assert [h.elems for h in subs] == brute_force_subgroups(G)


def test_subgroup_flags():
    G = build_group("S4")
    subs = all_subgroups(G)
    by_order = {}
    for h in subs:
        by_order.setdefault(h.elems.bit_count(), []).append(h)
    assert all(h.normal for h in by_order[12])  # A4
    assert not any(h.normal for h in by_order[6])  # the S3 point stabilizers
    assert sum(1 for h in subs if h.maximal) == 4 + 3 + 1  # S3s, D8s, A4


def _is_normal_by_definition(G, mask):
    return all(
        (1 << G.mul[G.mul[g][h]][G.inv[g]]) & mask for g in range(G.order) for h in bit_list(mask)
    )


ORACLE_GROUPS = CATALOG + ("S3xS3", "D8xZ3", "A4xZ2")


@pytest.mark.parametrize("spec", ORACLE_GROUPS)
def test_all_subgroups_match_the_pairwise_closure_oracle(spec):
    G = build_group(spec)
    subs = all_subgroups(G)
    want = pairwise_subgroups(G)
    assert [h.elems for h in subs] == want
    full = (1 << G.order) - 1
    for h in subs:
        assert h.normal == _is_normal_by_definition(G, h.elems)
        # maximal: proper, and below no proper subgroup but itself
        assert h.maximal == (
            h.elems != full and not any(h.elems & k == h.elems for k in want if k not in (h.elems, full))
        )


@pytest.mark.parametrize("spec", ORACLE_GROUPS)
def test_subgroup_closure_matches_the_pairwise_closure_oracle(spec):
    G = build_group(spec)
    rng = random.Random(spec)
    seeds = [rng.getrandbits(G.order) & rng.getrandbits(G.order) for _ in range(6)]
    seeds += [mask_of(rng.sample(range(G.order), min(k, G.order))) for k in (1, 2, 3)]
    for seed in seeds:
        assert subgroup_closure_mask(G, seed) == pairwise_closure(G, seed), seed
    if spec in ("Z3", "S3xS3", "A4xZ2"):
        # some seed holds an element without its inverse
        assert any(not (1 << G.inv[e]) & seed for seed in seeds for e in bit_list(seed))


@pytest.mark.parametrize(
    "spec", [s for s in CATALOG if spec_order(parse_group_spec(s)) <= 12]
)
def test_normal_subgroups_match_brute_force(spec):
    G = build_group(spec)
    want = [m for m in brute_force_subgroups(G) if _is_normal_by_definition(G, m)]
    assert normal_subgroups_masks(G) == want


@pytest.mark.parametrize("spec", ["S4", "SL(2,3)"])
def test_normal_subgroups_are_the_normal_members_of_all_subgroups(spec):
    G = build_group(spec)
    assert normal_subgroups_masks(G) == [h.elems for h in all_subgroups(G) if h.normal]


def test_core_and_normalizer():
    G = build_group("S3")
    t = G.label_index("(12)")
    h = subgroup_closure_mask(G, 1 << t)
    core, norm = core_and_normalizer(G, h)
    assert core.bit_count() == 1 and norm == h

    G = build_group("D8")
    for h in all_subgroups(G):
        if h.elems.bit_count() == 4:
            _, norm = core_and_normalizer(G, h.elems)
            assert norm.bit_count() == 8

    G = build_group("S4")
    stab = [h for h in all_subgroups(G) if h.elems.bit_count() == 6][0]
    core, _ = core_and_normalizer(G, stab.elems)
    assert core.bit_count() == 1


# ---------------------------------------------------------------------------
# properties


@pytest.mark.parametrize(
    "spec,abelian,nilpotent,solvable,supersolvable,simple",
    [
        ("S3", False, False, True, True, False),
        ("D8", False, True, True, True, False),
        ("A4", False, False, True, False, False),
        ("Z12", True, True, True, True, False),
        ("Z5", True, True, True, True, True),
        ("S4", False, False, True, False, False),
        ("SL(2,3)", False, False, True, False, False),
        ("A5", False, False, False, False, True),
        ("TV18", False, False, True, True, False),
        ("S3xS3", False, False, True, True, False),
        ("A4xZ2", False, False, True, False, False),
        ("S5", False, False, False, False, False),
        ("A1", True, True, True, True, False),
        ("S2", True, True, True, True, True),
    ],
)
def test_group_properties(spec, abelian, nilpotent, solvable, supersolvable, simple):
    p = group_properties(build_group(spec, max_order=120))
    assert (p.abelian, p.nilpotent, p.solvable, p.supersolvable, p.simple) == (
        abelian, nilpotent, solvable, supersolvable, simple
    )


def test_nilpotency_criteria_agree():
    for spec in ["S3", "D8", "Q8", "A4", "D12", "Z8", "Z2xZ2xZ2", "TV18", "S4", "SL(2,3)", "D8xZ3"]:
        G = build_group(spec)
        assert group_properties(G).nilpotent == all(
            h.normal for h in all_subgroups(G) if h.maximal
        )


PROPERTY_SPECS = CATALOG + EXTRA_SPECS + EDGE_SPECS


@pytest.mark.parametrize(
    "spec", [s for s in PROPERTY_SPECS if spec_order(parse_group_spec(s)) <= 48]
)
def test_supersolvable_agrees_with_huppert(spec):
    G = build_group(spec)
    assert group_properties(G).supersolvable == supersolvable_by_huppert(G)


@pytest.mark.parametrize("spec", PROPERTY_SPECS + ("A6",))
def test_simple_and_abelian_agree_with_their_oracles(spec):
    G = build_group(spec, max_order=360)
    p = group_properties(G)
    assert p.simple == (normal_subgroup_count(G) == 2)
    assert p.abelian == commutes_pairwise(G)


def test_class_avoidance_witness():
    G = build_group("S3")
    rep = check_class_avoidance(G, all_subgroups(G))
    assert rep.ok
    cd = conjugacy_classes(G)
    t = G.label_index("(12)")
    h = subgroup_closure_mask(G, 1 << t)
    witness = dict(rep.witnesses)[h]
    assert witness == cd.class_mask_of(G.label_index("(123)"))


@pytest.mark.parametrize("spec", ["Z6", "S4", "SL(2,3)", "D16", "A5", "S5"])
def test_class_avoidance_catalog(spec):
    G = build_group(spec)
    assert check_class_avoidance(G, all_subgroups(G)).ok


def _s3_subgroups_and_a_subset_meeting_every_class(G):
    """S3's subgroups, and S3 minus (12), a proper subset that meets every
    conjugacy class."""
    fake = ((1 << G.order) - 1) & ~(1 << G.label_index("(12)"))
    return (*all_subgroups(G), SubgroupHandle(fake, normal=False, maximal=False))


def test_class_avoidance_names_a_subgroup_meeting_every_class():
    G = build_group("S3")
    rep = check_class_avoidance(G, _s3_subgroups_and_a_subset_meeting_every_class(G))
    assert not rep.ok
    assert rep.detail == "the proper subgroup {e, (23), (123), (132), (13)} of S3 meets every conjugacy class"
    Z6 = build_group("Z6")
    assert check_class_avoidance(Z6, all_subgroups(Z6)).ok


def test_failing_class_avoidance_is_a_failed_verify_report(capsys, monkeypatch):
    # the check reads S3's subgroups off its cached analysis
    real = catalog.analyze_group

    def doctored(spec, node_budget):
        a = real(spec, node_budget)
        if spec != "S3":
            return a
        return dataclasses.replace(a, subgroups=_s3_subgroups_and_a_subset_meeting_every_class(a.group))

    monkeypatch.setattr(catalog, "analyze_group", doctored)
    assert main(["verify", "--check", "class-avoidance", "--max-order", "6"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["status"] == "fail"
    (check,) = report["checks"]
    assert check["status"] == "fail"
    assert check["computed"]["S3"].startswith("the proper subgroup {")
    assert check["computed"]["Z6"] is True
