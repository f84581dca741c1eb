"""`enumerate_subracks` enumerates L(R - T) and returns L(R) = L(R - T) x 2^T,
T the elements that act trivially and that every element fixes, as a
`ProductLattice`.  Its `expand()` is the lemma-free Lindig enumeration
`_lindig_subracks` of the whole rack, held to the product's node count.
These tests hold the product lemma to that enumeration: the product of the
factor with 2^T, built here from the factor's sets and rows, has the
enumeration's sets, ids and parent rows; `product_statistics`, read off the
factor, gives the enumeration's counts and chain lengths; the export bytes
are pinned; and the budget errors are the enumeration's at every boundary.
They also check that `expand()` refuses a product whose t or factor is
wrong, and that nothing expands the product without calling `expand()`."""

from __future__ import annotations

import hashlib
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from racklab import catalog, lattice
from racklab.bitsets import bit_list
from racklab.cli import main
from racklab.groups import build_group, conjugacy_classes
from racklab.lattice import (
    DEFAULT_NODE_BUDGET,
    BudgetExceeded,
    LatticeInvariantError,
    ProductLattice,
    _lindig_subracks,
    all_maximal_chain_lengths,
    atoms,
    coatoms,
    enumerate_subracks,
    product_decomposition_check,
    product_statistics,
)
from racklab.racks import Rack, closure_forward_only, conjugation_rack, rack_from_spec
from conftest import full_lattice
from test_lattice import SMALL_RACKS

LATTICE_WORKLOAD = (
    "D8xZ3", "Q8xZ3", "Z4xZ2xZ2", "Z15", "D24", "A6:cycles(3)", "S3xZ3", "D8xZ2",
    "SL(2,3)", "D8xZ3:noncentral", "A5:cycles(5)", "S5:transpositions",
)
# one element, and all elements trivial
TRIVIAL_RACKS = ("Z1", "S3:class(e)", "Z15")

# sha256 of `racklab lattice SPEC --export FILE`, as written by the lemma-free
# enumeration of the whole rack
EXPORT_SHA256 = {
    "D8xZ3": "ef837064fb4c73744de8a8f493ae1d9164713b86baa559af4244c073006b69c2",
    "Z4xZ2xZ2": "53b6abf41c9a152701bb9aad8cb8f232f0261bb25d0847f7ecb7a800284a62a9",
    "D24": "058e668cf93437fb4e2cbfcab14f282aa018c071bf50f9756701a9ffc606fc66",
    "SL(2,3)": "4e74ebce557b8f3631754b6a67bda08731d631aeb629ff305f1408a332a9270b",
}


def _lemma_free(rack, node_budget=DEFAULT_NODE_BUDGET):
    return _lindig_subracks(rack, node_budget)


def _product_of_factor(rack, P):
    """Oracle for the lemma: the sets of P x 2^T, T = `rack.trivial_part`,
    as S' + U in (popcount, value) order, and each one's upper covers as set
    masks, S'' + U for the covers S'' of S' in P and S' + U + {z} for z in
    T - U."""
    trivial = rack.trivial_part
    subsets = [0]
    for e in bit_list(trivial):
        subsets += [u | 1 << e for u in subsets]
    sets = sorted((s | u for s in P.sets for u in subsets), key=lambda m: (m.bit_count(), m))
    up = {s: [P.sets[p] for p in P.parents(i)] for i, s in enumerate(P.sets)}
    rows = [
        sorted([c | m & trivial for c in up[m & ~trivial]] + [m | 1 << e for e in bit_list(trivial & ~m)])
        for m in sets
    ]
    return sets, rows


@pytest.mark.parametrize(
    "spec", sorted(set(catalog.CATALOG + LATTICE_WORKLOAD + TRIVIAL_RACKS) | set(SMALL_RACKS))
)
def test_expansion_equals_lemma_free_enumeration(spec, expansion):
    # the lemma's product of the factor, against expand(), which enumerates
    # the whole rack without the lemma
    L, E = expansion(spec)
    sets, rows = _product_of_factor(L.rack, L.factor)
    assert E.sets == sets
    assert [sorted(E.sets[p] for p in E.parents(v)) for v in range(E.n)] == rows


@pytest.mark.parametrize(
    "spec, factor_spec, t", [("D8", "D8", 1), ("D8", "D8", 3), ("Z4xZ2", "Z4xZ2", 2), ("D8", "S3", 2)]
)
def test_expand_refuses_a_wrong_product(spec, factor_spec, t):
    # D8 (t = 2) walks past 14 * 2^1 nodes, or stops at 56 of 14 * 2^3;
    # Z4xZ2 has 256 subracks, not 1 * 2^2; S3's 6-node factor is not D8's
    factor, _ = enumerate_subracks(rack_from_spec(factor_spec)).product_form()
    with pytest.raises(LatticeInvariantError, match=f"the {factor.n << t} nodes"):
        ProductLattice(rack_from_spec(spec), factor, t).expand()


def test_trivial_part():
    assert rack_from_spec("S3").trivial_part == 1  # the identity
    for spec in ("S3:class(e)", "Z15"):
        rack = rack_from_spec(spec)
        assert rack.trivial_part == rack.full_mask()
    assert rack_from_spec("D8").trivial_part.bit_count() == 2
    assert rack_from_spec("S4:cycles(4)").trivial_part == 0


@pytest.mark.parametrize("spec", ["D8", "S3xZ2"])
def test_closure_skipping_trivial_part_equals_forward_closure(spec):
    rack = rack_from_spec(spec)
    assert rack.trivial_part
    for seed in range(1 << rack.size):
        assert rack.closure(seed) == closure_forward_only(rack, seed)


@settings(deadline=None, max_examples=300)
@given(seed=st.integers(0, (1 << 24) - 1))
def test_closure_with_scattered_trivial_part_equals_forward_closure(seed):
    # D8xZ3's centre Z2xZ3 lies at six scattered elements of its 24, so the
    # closure tables skipped for T sit between ones that are read
    rack = rack_from_spec("D8xZ3")
    trivial = rack.trivial_part
    span = (1 << trivial.bit_length()) - (trivial & -trivial)
    assert trivial.bit_count() == 6 and span & ~trivial
    assert rack.closure(seed) == closure_forward_only(rack, seed)


def test_closure_builds_no_tables_for_the_trivial_part():
    # the packed table's fields of T are empty in every entry, and every
    # other element's field is filled in some entry
    rack = rack_from_spec("D8xZ3")
    n = rack.size
    field = (1 << n) - 1
    entries = [packed for tab in rack._merged_tables() for packed in tab]
    empty = [a for a in range(n) if not any(packed >> n * a & field for packed in entries)]
    assert empty == bit_list(rack.trivial_part)


@pytest.mark.parametrize("spec", sorted(EXPORT_SHA256))
def test_export_bytes_match_lemma_free_enumeration(spec, tmp_path, capsys):
    path = tmp_path / "lat.txt"
    assert main(["lattice", spec, "--export", str(path)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(path.read_bytes()).hexdigest() == EXPORT_SHA256[spec]


def test_product_decomposition_oracle_never_expands(monkeypatch):
    def refuse(*args):
        raise AssertionError("the product expansion was reached")

    monkeypatch.setattr(lattice.ProductLattice, "expand", refuse)
    # the patch is live: expanding D8's lattice reaches it
    L = enumerate_subracks(rack_from_spec("D8"))
    with pytest.raises(AssertionError):
        L.expand()
    G = build_group("D8")
    report = product_decomposition_check(conjugation_rack(G), conjugacy_classes(G).center)
    assert report.ok and report.nodes == 56


@pytest.mark.parametrize("spec", ["D8", "S4:cycles(4)"])
def test_nothing_expands_implicitly(spec):
    # t = 2 and t = 0: L(R)'s sets and rows are read only through expand()
    L = enumerate_subracks(rack_from_spec(spec))
    with pytest.raises(AttributeError):
        L.sets
    with pytest.raises(AttributeError):
        L.parents(0)
    assert L.expand().n == L.n


# t = 0, t = 1, R = T (twice) and the empty rack
PRODUCT_RULE_EXTRAS = ("S4:cycles(4)", "S3", "Z4xZ2xZ2", "Z1", "Z4:noncentral")


@pytest.mark.parametrize(
    "spec", sorted(set(catalog.CATALOG + LATTICE_WORKLOAD + PRODUCT_RULE_EXTRAS))
)
def test_product_statistics_equal_the_materialised_lattice(spec, expansion):
    L, E = expansion(spec)
    P, t = L.product_form()
    assert t == L.rack.trivial_part.bit_count()
    stats = product_statistics(P, t)
    assert (stats.nodes, stats.cover_edges) == (L.n, L.edge_count())
    assert (stats.nodes, stats.cover_edges) == (len(E.sets), len(E._pflat))
    assert stats.lengths == all_maximal_chain_lengths(E)
    assert stats.graded == (len(stats.lengths) == 1)
    assert (stats.atoms, stats.coatoms) == (len(atoms(E)), len(coatoms(E)))


@pytest.mark.parametrize("spec, n", [("Z4xZ2xZ2", 65536), ("D8xZ3", 43520)])
def test_lattice_command_expands_only_for_export(spec, n, monkeypatch, tmp_path, capsys):
    def refuse(*args):
        raise AssertionError("the product expansion was reached")

    monkeypatch.setattr(lattice.ProductLattice, "expand", refuse)
    assert main(["lattice", spec]) == 0
    assert json.loads(capsys.readouterr().out)["nodes"] == n
    with pytest.raises(AssertionError, match="expansion was reached"):
        main(["lattice", spec, "--export", str(tmp_path / "lat.txt")])


def test_budget_boundary_on_z4xz2xz2(capsys):
    # R = T: a one-node factor of a 65,536-node lattice
    assert main(["lattice", "Z4xZ2xZ2", "--budget-nodes", "65535"]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == "racklab: node budget 65535 exceeded; 65535 subracks enumerated so far\n"
    assert main(["lattice", "Z4xZ2xZ2", "--budget-nodes", "65536"]) == 0
    assert json.loads(capsys.readouterr().out)["nodes"] == 65536


def _outcome(enumerate_fn, rack, budget):
    try:
        L = enumerate_fn(rack, budget)
    except BudgetExceeded as exc:
        return ("error", str(exc), exc.partial)
    return ("ok", L.sets, list(L._pstart), list(L._pflat))


@pytest.mark.parametrize(
    "spec, budget",
    [("Z15", 1000), ("Z4", 0), ("Z4", -1), ("D8", 5), ("D8", 56), ("D8", 55),
     ("D8xZ2", 1599), ("D8xZ2", 1600), ("Z1", 0), ("Z1", 1),
     ("S4:cycles(4)", 10), ("S4:cycles(4)", 11), ("S4:cycles(4)", -1)],
)
def test_budget_error_equals_lemma_free(spec, budget):
    rack = rack_from_spec(spec)
    assert _outcome(full_lattice, rack, budget) == _outcome(_lemma_free, rack, budget)


def test_budget_boundary_on_d8xz3(capsys):
    # the lemma-free enumeration reports these exact texts; its run takes
    # several times as long, so they are written out
    assert main(["lattice", "D8xZ3", "--budget-nodes", "43519"]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == "racklab: node budget 43519 exceeded; 43519 subracks enumerated so far\n"
    assert main(["lattice", "D8xZ3", "--budget-nodes", "43520"]) == 0
    assert json.loads(capsys.readouterr().out)["nodes"] == 43520


def test_factor_run_fails_fast(monkeypatch):
    """D8xZ3 has |Z| = 6 and an 18-element factor of 680 nodes: on the budget
    43,519 the factor runs on 43,519 >> 6 = 679 and stops there."""
    factor_errors = []
    lindig = lattice._lindig_subracks

    def spy(rack, node_budget, top):
        try:
            return lindig(rack, node_budget, top)
        except BudgetExceeded as exc:
            factor_errors.append((top.bit_count(), node_budget, exc.partial))
            raise

    monkeypatch.setattr(lattice, "_lindig_subracks", spy)
    with pytest.raises(BudgetExceeded) as exc:
        enumerate_subracks(rack_from_spec("D8xZ3"), 43519)
    assert exc.value.partial == 43519
    assert factor_errors == [(18, 679, 679)]


def test_lattice_command_never_builds_lower_cover_rows(capsys, expansion):
    _, L = expansion("Z4xZ2xZ2")
    assert all_maximal_chain_lengths(L) == (16,)
    assert len(atoms(L)) == len(coatoms(L)) == 16
    assert main(["lattice", "Z4xZ2xZ2"]) == 0
    assert json.loads(capsys.readouterr().out)["coatoms"] == 16


@pytest.mark.parametrize("spec", SMALL_RACKS + ["Z4:noncentral", "Z1", "Z4xZ2"])
def test_upper_row_analytics_match_lower_rows(spec):
    L = full_lattice(spec)
    top = L.n - 1
    assert coatoms(L) == L.children(top)
    # longest cover-path lengths from the bottom, from the lower rows
    lengths = [1] + [0] * top
    for v in range(1, L.n):
        for u in L.children(v):
            lengths[v] |= lengths[u] << 1
    assert all_maximal_chain_lengths(L) == tuple(bit_list(lengths[top]))


# racks whose rows take covers from T only (every element of Z2xZ2xZ2xZ2 is
# central), from T and closures (D8), and from closures only (T is empty),
# with their node counts
@pytest.mark.parametrize(
    "spec, n", [("Z2xZ2xZ2xZ2", 65536), ("D8", 56), ("D8xZ3:noncentral", 680)]
)
def test_lemma_free_budget_contract(spec, n):
    rack = rack_from_spec(spec)
    for budget in (n - 1, n, 1, 0, -1):
        limit = max(budget, 1)
        if n > limit:
            with pytest.raises(BudgetExceeded) as exc:
                _lindig_subracks(rack, budget)
            assert str(exc.value) == (
                f"node budget {budget} exceeded; {limit} subracks enumerated so far"
            )
            assert exc.value.partial == limit
        else:
            assert _lindig_subracks(rack, budget).n == n


def test_lemma_free_budget_fails_within_a_row(monkeypatch):
    """The count is checked after every row, not once per level: at the
    101st subrack of D8xZ3:noncentral 531 closures have run, and finishing
    that row adds at most one per element (18)."""
    rack = rack_from_spec("D8xZ3:noncentral")
    closure, calls = Rack.closure, []

    def counting_closure(self, *args):
        calls.append(None)
        return closure(self, *args)

    monkeypatch.setattr(Rack, "closure", counting_closure)
    with pytest.raises(BudgetExceeded):
        _lindig_subracks(rack, 100)
    assert len(calls) <= 531 + rack.size
