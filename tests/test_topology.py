from __future__ import annotations

import importlib.util
import random
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import full_lattice
from racklab import catalog, cli, topology, verify
from racklab.groups import build_group, conjugacy_classes
from racklab.lattice import BudgetExceeded, CoverPoset, _csr_from_edges, enumerate_subracks
from racklab.racks import conjugation_rack, rack_from_spec
from racklab.topology import (
    OrderComplex,
    boundary_matrices,
    collapse_complex,
    order_complex,
    rank_and_torsion,
    reduced_homology,
)
from racklab.work import ledger


def complex_from_facets(facets) -> OrderComplex:
    """Close a facet list under taking faces (test helper)."""
    levels: dict[int, set[tuple[int, ...]]] = {}
    stack = [tuple(sorted(f)) for f in facets]
    while stack:
        s = stack.pop()
        d = len(s) - 1
        if s in levels.setdefault(d, set()):
            continue
        levels[d].add(s)
        if d > 0:
            for i in range(len(s)):
                stack.append(s[:i] + s[i + 1:])
    dims = [sorted(levels[d]) for d in range(max(levels) + 1)]
    return OrderComplex(sorted(v for (v,) in levels[0]), dims)


def sparse_columns(rows, row_id=lambda r: r) -> list[dict[int, int]]:
    """The columns {row_id(r): entry} of a matrix given by its rows (test helper)."""
    return [
        {row_id(r): row[c] for r, row in enumerate(rows) if row[c]} for c in range(len(rows[0]))
    ]


# ---------------------------------------------------------------------------
# order complexes


def test_order_complex_of_z2_is_two_points():
    lat = full_lattice("Z2")
    K = order_complex(lat)
    assert K.counts() == [2]


def test_order_complex_of_four_cycle_lattice():
    lat = full_lattice("S4:cycles(4)")
    K = order_complex(lat)
    # 9 proper nodes; each inverse-pair node sits above its two singletons
    assert K.counts() == [9, 6]
    assert K.dim == 1


def test_order_complex_needs_two_nodes():
    lat = full_lattice("Z1")
    K = order_complex(lat)
    assert K.is_empty()


def test_simplex_budget():
    lat = full_lattice("D8")
    with pytest.raises(BudgetExceeded):
        order_complex(lat, simplex_budget=100)


# ---------------------------------------------------------------------------
# boundary matrices and Smith normal form


def test_single_edge_boundary():
    K = complex_from_facets([(1, 2)])
    mats = boundary_matrices(K)
    assert mats[1] == [{0: -1, 1: 1}]


def test_triangle_boundary_rank():
    K = complex_from_facets([(0, 1), (0, 2), (1, 2)])
    mats = boundary_matrices(K)
    rank, torsion = rank_and_torsion(mats[1])
    assert rank == 2 and torsion == ()
    H = reduced_homology(K)
    assert H.betti == {1: 1}


def test_smith_identity():
    assert rank_and_torsion(sparse_columns([[1, 0, 0], [0, 1, 0], [0, 0, 1]])) == (3, ())


def test_smith_divisibility_normalization():
    # invariant factors (1, 6) and (2, 2, 156)
    assert rank_and_torsion(sparse_columns([[2, 0], [0, 3]])) == (2, (6,))
    assert rank_and_torsion(sparse_columns([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])) == (3, (2, 2, 156))


def test_smith_circle_triangulation():
    for n in (3, 5, 8):
        edges = [(i, (i + 1) % n) for i in range(n)]
        K = complex_from_facets(edges)
        assert rank_and_torsion(boundary_matrices(K)[1]) == (n - 1, ())


def test_boundary_squared_zero():
    lat = full_lattice("D8")
    mats = boundary_matrices(order_complex(lat))
    for lower, upper in zip(mats, mats[1:]):
        for col in upper:
            acc = {}
            for r, v in col.items():
                for rr, vv in lower[r].items():
                    acc[rr] = acc.get(rr, 0) + v * vv
            assert not any(acc.values())


# ---------------------------------------------------------------------------
# reduced homology conventions


def test_point_complex_has_trivial_reduced_homology():
    K = complex_from_facets([(0,)])
    H = reduced_homology(K)
    assert H.betti == {} and H.torsion == {}
    assert H.euler_characteristic == 0
    assert H.sphere_dimension is None


def test_empty_complex_flag():
    K = OrderComplex([], [])
    H = reduced_homology(K)
    assert H.empty_complex
    assert H.euler_characteristic == -1
    assert H.sphere_dimension == -1


def test_two_points_are_a_zero_sphere():
    K = complex_from_facets([(0,), (1,)])
    H = reduced_homology(K)
    assert H.betti == {0: 1}
    assert H.sphere_dimension == 0


def test_projective_plane_torsion():
    # the 6-vertex triangulation; H~_1 = Z/2, everything else trivial
    rp2 = [
        (0, 1, 4), (0, 1, 5), (0, 2, 3), (0, 2, 4), (0, 3, 5),
        (1, 2, 3), (1, 2, 5), (1, 3, 4), (2, 4, 5), (3, 4, 5),
    ]
    K = complex_from_facets(rp2)
    # every pair of vertices spans an edge, but RP^2 is not the clique complex
    # of K_6 (a 5-simplex), so the strong collapse must leave it alone
    assert len(K.simplices[1]) == 15
    assert collapse_complex(K) is K
    for collapse in (True, False):
        H = reduced_homology(K, collapse=collapse)
        assert H.betti == {}
        assert H.torsion == {1: (2,)}
        assert H.euler_characteristic == 0
        assert H.sphere_dimension is None


def test_sphere_results_for_small_groups():
    for spec, dim in [("Z3", 1), ("Z4", 2), ("S3", 1), ("D8", 3), ("Q8", 3), ("D10", 2), ("A4", 2)]:
        G = build_group(spec)
        c = len(conjugacy_classes(G).classes)
        assert c - 2 == dim
        lat = full_lattice(conjugation_rack(G))
        H = reduced_homology(order_complex(lat))
        assert H.sphere_dimension == dim, spec


def test_boolean_lattice_of_order_seven_group_is_a_five_sphere():
    # the largest abelian case that stays within the simplex budget: the
    # proper part of 2^[7] is a closed 5-sphere, so no vertex is dominated
    # and the column reduction sees all 47,292 simplices (well under a second)
    lat = full_lattice("Z7")
    H = reduced_homology(order_complex(lat, simplex_budget=2_000_000))
    assert H.sphere_dimension == 5


def test_collapse_preserves_homology_and_euler():
    for spec in ["S3", "Z4", "D10", "S4:cycles(4)"]:
        K = order_complex(full_lattice(spec))
        a = reduced_homology(K, collapse=True)
        b = reduced_homology(K, collapse=False)
        assert (a.betti, a.torsion, a.euler_characteristic) == (
            b.betti, b.torsion, b.euler_characteristic
        )
        alt = sum((1 if d % 2 == 0 else -1) * n for d, n in enumerate(K.counts()))
        assert a.euler_characteristic == alt - 1


def test_homology_invariant_under_relabeling():
    rng = random.Random(7)
    K = order_complex(full_lattice("D10"))
    base = reduced_homology(K)
    verts = list(K.vertices)
    shuffled = verts[:]
    rng.shuffle(shuffled)
    perm = dict(zip(verts, shuffled))
    levels = [sorted(tuple(sorted(perm[v] for v in s)) for s in level) for level in K.simplices]
    K2 = OrderComplex(sorted(perm[v] for v in K.vertices), levels)
    other = reduced_homology(K2)
    assert (base.betti, base.torsion) == (other.betti, other.torsion)


def test_collapse_leaves_a_homotopy_equivalent_complex():
    K = order_complex(full_lattice("D8"))
    C = collapse_complex(K)
    assert C.size() < K.size()
    a, b = reduced_homology(K, collapse=False), reduced_homology(C, collapse=False)
    assert (a.betti, a.torsion) == (b.betti, b.torsion)


def test_homology_from_export_format():
    from racklab.lattice import export_lattice_text, load_lattice_export

    lat = full_lattice("D8")
    direct = reduced_homology(order_complex(lat))
    via_export = reduced_homology(order_complex(load_lattice_export(export_lattice_text(lat))))
    assert (direct.betti, direct.torsion) == (via_export.betti, via_export.torsion)


# ---------------------------------------------------------------------------
# the column-reduction engine against the Smith normal form oracle


def oracle_homology(K: OrderComplex):
    """Betti numbers and torsion from `rank_and_torsion` of every boundary
    matrix: the direct Smith normal form path, kept as the oracle."""
    if K.is_empty():
        return {}, {}
    ranks, torsions = zip(*(rank_and_torsion(m) for m in boundary_matrices(K)))
    betti, torsion = {}, {}
    for d, n in enumerate(K.counts()):
        b = n - ranks[d] - (ranks[d + 1] if d + 1 < len(ranks) else 0)
        if b:
            betti[d] = b
        if d + 1 < len(ranks) and torsions[d + 1]:
            torsion[d] = torsions[d + 1]
    return betti, torsion


# every catalog group and rack filter whose order complex has at most 5,000
# simplices, and the three larger noncentral racks D16 (36,076 simplices),
# SL(2,3) (13,860) and S4 (9,262); order_complex below fails the test if one
# outgrows 40,000.  Each reduces on unit pivots alone, collapsed or not.
ORACLE_SPECS = [
    "Z1", "Z2", "Z3", "Z4", "Z2xZ2", "Z5", "Z6", "S3", "D8", "Q8", "D10", "A4",
    "S4:cycles(4)", "D8:noncentral", "Q8:noncentral", "A4:noncentral",
    "S4:transpositions", "S5:transpositions", "S5:cycles(4)", "A5:cycles(5)",
    "D12:noncentral", "S3:class((12))", "A6:cycles(3)",
    "D16:noncentral", "SL(2,3):noncentral", "S4:noncentral",
]


@pytest.mark.parametrize("spec", ORACLE_SPECS)
def test_reduction_matches_smith_oracle(spec):
    lat = full_lattice(spec, max_order=360)
    K = order_complex(lat, simplex_budget=40_000)
    expected = oracle_homology(K)
    for collapse in (True, False):
        ledger.clear()
        H = reduced_homology(K, collapse=collapse)
        assert (H.betti, H.torsion) == expected, (spec, collapse)
    # uncollapsed, one unit pivot per unit of rank that the oracle finds
    rank = sum(rank_and_torsion(m)[0] for m in boundary_matrices(K))
    assert (ledger["unit_pivots"], ledger["nonunit_pivots"]) == (rank, 0)


facet_lists = st.lists(
    st.lists(st.integers(0, 7), min_size=1, max_size=5, unique=True),
    min_size=1, max_size=9,
)


@settings(max_examples=150, deadline=None)
@given(facet_lists)
def test_reduction_matches_smith_oracle_on_random_complexes(facets):
    K = complex_from_facets(facets)
    expected = oracle_homology(K)
    for collapse in (True, False):
        H = reduced_homology(K, collapse=collapse)
        assert (H.betti, H.torsion) == expected


RP2 = [
    (0, 1, 4), (0, 1, 5), (0, 2, 3), (0, 2, 4), (0, 3, 5),
    (1, 2, 3), (1, 2, 5), (1, 3, 4), (2, 4, 5), (3, 4, 5),
]


def test_suspension_moves_torsion_to_dimension_two(monkeypatch):
    # the suspension of RP^2, listed by its faces, is reduced as it is, and
    # the Z/2 of its H~_2 only shows in a non-unit pivot: that dimension's
    # reduced columns go to the exact Smith normal form
    remainders = []
    exact = topology.rank_and_torsion

    def recording(block):
        remainders.append(len(block))
        return exact(block)

    monkeypatch.setattr(topology, "rank_and_torsion", recording)
    K = complex_from_facets([f + (apex,) for f in RP2 for apex in (6, 7)])
    ledger.clear()
    for collapse in (True, False):
        H = reduced_homology(K, collapse=collapse)
        assert H.betti == {} and H.torsion == {2: (2,)}
    assert remainders and ledger["nonunit_pivots"] > 0
    monkeypatch.undo()
    assert oracle_homology(K) == ({}, {2: (2,)})


@pytest.mark.parametrize("spec", ["D8", "S4", "D12", "Z6", "D16:noncentral"])
def test_collapse_keeps_the_trivial_part_shift(spec):
    # the collapsed factor complex still stands for L(R)'s: D8 (t = 2) read
    # {1: 1} instead of {3: 1} when the collapse dropped t and full_counts
    P, t = enumerate_subracks(rack_from_spec(spec)).product_form()
    K = order_complex(P, t=t)
    C = collapse_complex(K)
    assert (C.t, C.full_counts) == (K.t, K.full_counts)
    assert reduced_homology(C) == reduced_homology(K)


def _homology_workload() -> list[tuple[str, ...]]:
    """Every alternate of perfbench's `homology` jobs."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "jobs.py"
    spec = importlib.util.spec_from_file_location("jobs", path)
    jobs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(jobs)
    return [argv for slot in jobs.WORKLOADS["homology"] for argv in slot]


# the factor complexes `racklab homology` builds on its workload, but SL(2,3),
# which exhausts the simplex budget (test_budget_message_and_partial), and on
# every sphere-theorem group
LAZY_SPECS = [
    (argv[1], int(argv[3]) if "--max-order" in argv else None)
    for argv in _homology_workload() if argv[1] != "SL(2,3)"
]
LAZY_SPECS += [(g, None) for g in catalog.SPHERE_LIST if (g, None) not in LAZY_SPECS]


def factor_complex(spec, max_order):
    """The complex `racklab homology` builds: the factor's, shifted by t."""
    options = {} if max_order is None else {"max_order": max_order}
    P, t = enumerate_subracks(rack_from_spec(spec, **options)).product_form()
    return order_complex(P, t=t)


@pytest.mark.parametrize("spec, max_order", LAZY_SPECS)
def test_order_complex_lists_its_chains_on_first_read(spec, max_order):
    ledger.clear()
    K = factor_complex(spec, max_order)
    core = collapse_complex(K)
    assert ledger["simplices_built"] == 0
    levels = K.simplices
    assert ledger["simplices_built"] == K.size() == sum(map(len, levels))
    assert K.counts() == [len(level) for level in levels]
    assert K.dim == len(levels) - 1
    assert K.simplices is levels  # listed once
    assert ledger["simplices_built"] == K.size()
    # the core is the same whether or not K's chains were read first
    listed = collapse_complex(K)
    assert (listed.vertices, listed.simplices, listed.t, listed.full_counts) == (
        core.vertices, core.simplices, core.t, core.full_counts
    )


def test_homology_lists_no_chain_of_the_uncollapsed_complex(capsys, monkeypatch):
    ledger.clear()
    assert cli.main(["homology", "D16:noncentral"]) == 0
    assert ledger["order_complexes"] == 1 and ledger["simplices_collapsed"] > 0
    assert ledger["simplices_built"] == 0
    # homology-consistency's uncollapsed path still lists and reduces K whole
    reduced = []
    ranks = topology._boundary_ranks

    def recording(K):
        reduced.append((tuple(K.vertices), K.size()))
        return ranks(K)

    monkeypatch.setattr(topology, "_boundary_ranks", recording)
    ledger.clear()
    result = verify.check_homology_consistency(verify.VerifyConfig())
    assert result.status == "pass"
    whole = [order_complex(full_lattice(spec)) for spec in result.computed]
    assert ledger["simplices_built"] == sum(K.size() for K in whole)
    for K in whole:
        assert (tuple(K.vertices), K.size()) in reduced


def bounded_poset(m, less) -> CoverPoset:
    """The proper part 0..m-1 under the strict order `less(i, j)`, which must
    hold only for i < j, with a bottom and a top added (test helper)."""
    up = [{j for j in range(i + 1, m) if less(i, j)} for i in range(m)]
    covers = [
        (i + 1, j + 1) for i in range(m) for j in up[i]
        if not any(j in up[k] for k in up[i])
    ]
    covers += [(0, i + 1) for i in range(m) if not any(i in u for u in up)]
    covers += [(i + 1, m + 1) for i in range(m) if not up[i]]
    return CoverPoset(*_csr_from_edges(m + 2, covers))


@pytest.mark.parametrize("spec", ORACLE_SPECS)
def test_strong_collapse_keeps_the_full_subcomplex_on_undominated_vertices(spec):
    K = order_complex(full_lattice(spec, max_order=360), simplex_budget=40_000)
    C = collapse_complex(K)
    alive = set(C.vertices)
    full = [[s for s in level if alive.issuperset(s)] for level in K.simplices]
    assert C.simplices == [level for level in full if level]
    # closed neighbourhoods among the survivors, read off K's edges
    closed = {v: {v} for v in alive}
    for a, b in K.simplices[1] if K.dim >= 1 else ():
        if a in alive and b in alive:
            closed[a].add(b)
            closed[b].add(a)
    assert not any(closed[v] <= closed[u] for v in alive for u in closed[v] - {v})


def test_strong_collapse_keeps_the_torsion_of_a_barycentric_rp2():
    # the face poset of the 6-vertex RP^2 with a triangle glued along an
    # edge: its order complex, the barycentric subdivision, collapses onto
    # that of RP^2 (31 + 90 + 60 simplices), which as a closed surface has
    # no dominated vertex, and keeps H~_1 = Z/2
    faces = sorted(
        {c for f in RP2 + [(0, 1, 6)] for k in (1, 2, 3) for c in combinations(f, k)},
        key=lambda f: (len(f), f),
    )
    K = order_complex(bounded_poset(len(faces), lambda i, j: set(faces[i]) < set(faces[j])))
    C = collapse_complex(K)
    assert C.counts() == [31, 90, 60] and K.size() > C.size()
    assert oracle_homology(C) == oracle_homology(K) == ({}, {1: (2,)})
    assert reduced_homology(K).torsion == {1: (2,)}


@st.composite
def random_bounded_posets(draw):
    m = draw(st.integers(0, 10))
    # a random relation i < j on the proper part, closed under transitivity
    pairs = draw(st.lists(st.booleans(), min_size=m * m, max_size=m * m))
    below = [set() for _ in range(m)]
    for j in range(m):
        for i in range(j):
            if pairs[i * m + j] and i not in below[j]:
                below[j] |= {i} | below[i]
    return bounded_poset(m, lambda i, j: i in below[j])


@settings(max_examples=150, deadline=None)
@given(random_bounded_posets())
def test_strong_collapse_keeps_the_homology_of_random_posets(poset):
    K = order_complex(poset)
    expected = oracle_homology(K)
    for collapse in (True, False):
        H = reduced_homology(K, collapse=collapse)
        assert (H.betti, H.torsion) == expected
    assert oracle_homology(collapse_complex(K)) == expected


@pytest.mark.parametrize(
    "spec, budget, dimension, partial",
    [("SL(2,3)", 1_000_000, 5, 1_452_444), ("D8", 100, 1, 456)],
)
def test_budget_message_and_partial(spec, budget, dimension, partial):
    lat = full_lattice(spec)
    with pytest.raises(BudgetExceeded) as info:
        order_complex(lat, simplex_budget=budget)
    assert info.value.partial == partial
    assert str(info.value) == f"simplex budget {budget} exceeded at dimension {dimension}"


def test_budget_exhausted_by_the_edges_fails_before_listing_up_sets(monkeypatch):
    # the D8 budget of 100 overflows on the 1-simplices, which are counted from
    # the up-set masks; listing every comparable pair first made a large
    # lattice such as D8xZ3 run for minutes before the budget was tested
    lat = full_lattice("D8")

    def unreachable(mask):
        raise AssertionError("up-sets listed before the budget test")

    monkeypatch.setattr(topology, "bit_list", unreachable)
    with pytest.raises(BudgetExceeded) as info:
        order_complex(lat, simplex_budget=100)
    assert info.value.partial == 456
    # on the factor the full complex's 1-simplices need the factor's only,
    # which are counted from the masks too
    P, t = enumerate_subracks(rack_from_spec("D8")).product_form()
    with pytest.raises(BudgetExceeded) as info:
        order_complex(P, 100, t)
    assert info.value.partial == 456


def test_budget_partial_is_the_running_count_of_the_built_complex():
    lat = full_lattice("D8")
    counts = order_complex(lat).counts()
    running = [sum(counts[:d + 1]) for d in range(len(counts))]
    for d, total in enumerate(running):
        with pytest.raises(BudgetExceeded) as info:
            order_complex(lat, simplex_budget=total - 1)
        assert info.value.partial == total
        assert str(info.value).endswith(f"at dimension {d}")
    assert order_complex(lat, simplex_budget=running[-1]).counts() == counts


def int_matrices(size, entries):
    return st.integers(1, size).flatmap(
        lambda r: st.integers(1, size).flatmap(
            lambda c: st.lists(
                st.lists(entries, min_size=c, max_size=c), min_size=r, max_size=r
            )
        )
    )


small_int_matrices = st.one_of(
    int_matrices(4, st.integers(-6, 6)),
    # mostly zeros with small entries: the unit pivots often leave a
    # remainder without units, so both phases of the Smith form run
    int_matrices(8, st.sampled_from([0] * 6 + [1, -1, 2, -2, 3, -3])),
)


@settings(max_examples=400, deadline=None)
@given(small_int_matrices)
def test_smith_normal_form_matches_sympy(rows):
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import smith_normal_form as sympy_snf

    diag = sympy_snf(sympy.Matrix(rows), domain=sympy.ZZ)
    expected = tuple(
        abs(int(diag[i, i])) for i in range(min(len(rows), len(rows[0]))) if diag[i, i]
    )
    torsion = tuple(f for f in expected if f > 1)
    assert rank_and_torsion(sparse_columns(rows)) == (len(expected), torsion)
    # the row ids spread out, as in the reduction's un-renumbered remainder
    assert rank_and_torsion(sparse_columns(rows, lambda r: 7 + 1000 * r)) == (len(expected), torsion)


def test_smith_normal_form_of_61_bit_primes():
    # the divisibility chain comes from gcd/lcm steps, not from factoring
    p, q = 2**61 - 1, 2305843009213693921  # the two largest primes below 2^61
    assert rank_and_torsion(sparse_columns([[p]])) == (1, (p,))
    assert rank_and_torsion(sparse_columns([[p, 0], [0, q]])) == (2, (p * q,))
    assert rank_and_torsion(sparse_columns([[p * q, 0], [0, p]])) == (2, (p, p * q))
    assert rank_and_torsion(sparse_columns([[p * p * q, 0, 0], [0, q * q, 0], [0, 0, 1]])) == (3, (q, p * p * q * q))


def test_smith_normal_form_leaves_its_argument_unchanged():
    # rank_and_torsion on boundary matrices and on matrices given by their rows
    K = complex_from_facets([f + (apex,) for f in RP2 for apex in (6, 7)])
    cases = boundary_matrices(K)
    for rows in ([[2, 4, 4], [-6, 6, 12], [10, 4, 16]], [[1, 2, 0], [3, 1, 2], [0, 2, 6]]):
        cases.append(sparse_columns(rows))
    for columns in cases:
        saved = [dict(col) for col in columns]
        first = rank_and_torsion(columns)
        assert columns == saved
        assert rank_and_torsion(columns) == first
