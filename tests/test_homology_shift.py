"""`racklab homology` builds the order complex of the factor L(R - T) only and
reads the homology of L(R) = L(R - T) x 2^t off it, t = |T|: shifted up by t,
with the simplex counts of L(R) derived from the factor's chain counts.  These
tests hold the shifted engine to `order_complex` on the expanded lattice, the
count formula to chain counts of the expanded lattice, and the budget error
to the one the full complex gives."""

from __future__ import annotations

import json
from functools import lru_cache
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from racklab import catalog, lattice, topology, verify
from racklab.cli import main
from racklab.lattice import BudgetExceeded, enumerate_subracks
from racklab.racks import rack_from_spec
from racklab.topology import order_complex, reduced_homology
from conftest import full_lattice
from test_lattice import SMALL_RACKS

RACK_SPECS = (
    "A4:noncentral", "A5:cycles(5)", "A6:cycles(3)", "D10:noncentral", "D12:noncentral",
    "D16:noncentral", "D8:noncentral", "Q8:noncentral", "S3:class((12))", "S3:class(e)",
    "S4:cycles(4)", "S4:noncentral", "S4:transpositions", "S5:cycles(4)",
    "S5:transpositions", "SL(2,3):noncentral",
)
SPECS = sorted(set(catalog.CATALOG + RACK_SPECS) | set(SMALL_RACKS))
# the homology oracle builds the complex of the expanded lattice; above this
# many simplices (the order-8 Boolean lattices have 545,834) only the counts
# are compared
ORACLE_SIMPLICES = 150_000
# expanded lattices small enough for the quadratic chain count below
COUNT_ORACLE_NODES = 1_600


@lru_cache(maxsize=None)
def _factor(spec):
    return enumerate_subracks(rack_from_spec(spec, max_order=360)).product_form()


@lru_cache(maxsize=None)
def _full_counts(spec) -> tuple[int, ...]:
    """The simplex counts of L(R)'s complex, counted without building a
    simplex."""
    P, t = _factor(spec)
    return order_complex(P, 10**30, t).full_counts


def _chain_counts(sets: list[int]) -> tuple[int, ...]:
    """Independent oracle: simplex counts of the order complex of a lattice
    of sets listed in (popcount, value) order, by counting strict chains
    from the bottom to each node over set inclusion.  The chain counts of a
    node are digits of one integer, 96 bits each, so adding a node below
    adds all its counts at once and a step up is a shift."""
    width = 96
    below = [1]  # the bottom: one chain of 0 steps
    for v in range(1, len(sets)):
        s = sets[v]
        acc = 0
        for u in range(v):
            if sets[u] & s == sets[u]:
                acc += below[u]
        below.append(acc << width)
    top, mask = below[-1], (1 << width) - 1
    steps = [(top >> (width * k)) & mask for k in range(len(sets) + 1)]
    # a d-simplex is a chain of d + 2 steps
    return tuple(c for c in steps[2:] if c)


def _surjection_counts(t: int) -> tuple[int, ...]:
    """Independent oracle for R = T, the Boolean lattice 2^t: the chains of
    k steps are the surjections of T onto k ordered blocks, by
    inclusion-exclusion."""
    return tuple(
        sum((-1) ** (k - i) * comb(k, i) * i**t for i in range(k + 1)) for k in range(2, t + 1)
    )


@pytest.mark.parametrize("spec", SPECS)
def test_count_formula_equals_the_expanded_lattice(spec):
    P, t = _factor(spec)
    full = _full_counts(spec)
    assert P.n == 1 or P.n << t <= COUNT_ORACLE_NODES, "no oracle for this spec"
    if P.n == 1:
        assert full == _surjection_counts(t)
    if P.n << t <= COUNT_ORACLE_NODES:
        assert full == _chain_counts(full_lattice(spec, max_order=360).sets)


def test_count_oracles_cover_every_shift_and_large_budgets():
    covered = [s for s in SPECS if _factor(s)[0].n << _factor(s)[1] <= COUNT_ORACLE_NODES]
    assert {_factor(s)[1] for s in covered} >= {0, 1, 2, 3, 4, 10}
    # over the default budget, and still held to the expanded lattice
    assert {"D16", "SL(2,3)", "S3xZ3", "D8xZ2", "TV18", "Z10"} <= set(covered)
    assert all(sum(_full_counts(s)) > topology.DEFAULT_SIMPLEX_BUDGET
               for s in ("D16", "SL(2,3)", "S3xZ3", "D8xZ2", "TV18", "Z10"))


def _surjections(t: int) -> list[int]:
    """Oracle: j! * S(t, j) for j = 0..t, the surjections of a t-set onto j
    ordered blocks, F(t, j) = j * (F(t - 1, j - 1) + F(t - 1, j))."""
    row = [1]
    for _ in range(t):
        row.append(0)
        row = [0] + [j * (row[j - 1] + row[j]) for j in range(1, len(row))]
    return row


def _merged_chains(chains, t: int, k: int) -> int:
    """Oracle for `_product_chains`: a chain of k steps in P x 2^t projects
    to one of i steps in P and one of j steps in 2^t, an ordered partition
    of T into j blocks; the steps that move P are any i of the k, and those
    that move 2^t are the k - i others and i + j - k of those i, so b_k(P x
    2^t) is the sum over i and j of b_i(P) * j! S(t, j) * C(k, i) *
    C(i, i + j - k)."""
    surjections = _surjections(t)
    return sum(
        chains[i] * comb(k, i) * surjections[j] * comb(i, i + j - k)
        for i in range(min(k, len(chains) - 1) + 1)
        for j in range(k - i, min(k, t) + 1)
    )


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.integers(0, 10**6), max_size=12).map(lambda rest: [0, 1, *rest]),
    st.integers(0, 16),
    st.data(),
)
def test_one_factor_2_at_a_time_equals_the_merged_chains(chains, t, data):
    k = data.draw(st.integers(0, len(chains) + t + 1))
    assert topology._product_chains(chains, t, k) == _merged_chains(chains, t, k)


@pytest.mark.parametrize("t", range(1, 17))
def test_a_one_node_poset_counts_the_ordered_set_partitions(t):
    # L(R) = 2^t when R = T: a chain of j steps is an ordered partition of
    # T into j blocks, j! S(t, j) of them, and a d-simplex a chain of d + 2
    # steps; inclusion-exclusion counts them without the recurrence
    one_node = lattice.CoverPoset(*lattice._csr_from_edges(1, []))
    full = topology._count_simplices(one_node, 10**30, t)[2]
    assert tuple(full) == _surjection_counts(t)


# the specs the shifted homology is held to the full complex on
SHIFT_ORACLE_SPECS = [s for s in SPECS if sum(_full_counts(s)) <= ORACLE_SIMPLICES]


@pytest.mark.parametrize("spec", SHIFT_ORACLE_SPECS)
def test_shifted_homology_equals_the_full_complex(spec):
    P, t = _factor(spec)
    K = order_complex(P, topology.DEFAULT_SIMPLEX_BUDGET, t)
    full = order_complex(full_lattice(spec, max_order=360))
    assert K.t == t - (P.n == 1)
    assert K.full_counts == tuple(full.counts()) == _full_counts(spec)
    for collapse in (True, False):
        got, want = reduced_homology(K, collapse), reduced_homology(full, collapse)
        assert (got.betti, got.torsion) == (want.betti, want.torsion)
        assert got.sphere_dimension == want.sphere_dimension
        # Euler characteristic, empty-complex flag and simplex counts
        assert got.to_jsonable() == want.to_jsonable()


@pytest.mark.parametrize(
    "spec, shift, built, sphere",
    [
        ("D16:noncentral", 0, 36_076, 3),
        ("S4", 1, 9_262, 3),
        ("A4", 1, 156, 2),
        ("D8", 2, 48, 3),
        ("D12", 2, 772, 4),
        # R = T: 2^t = 2 x 2^(t - 1), and 2 has no proper part
        ("Z1", 0, 0, -1),
        ("Z2", 1, 0, 0),
        ("Z6", 5, 0, 4),
    ],
)
def test_only_the_factor_is_built(spec, shift, built, sphere):
    P, t = _factor(spec)
    K = order_complex(P, t=t)
    assert (K.t, K.size()) == (shift, built)
    H = reduced_homology(K)
    assert H.sphere_dimension == sphere
    assert H.empty_complex == (spec == "Z1")
    assert spec in ("Z1", "D16:noncentral") or K.size() < sum(K.full_counts)


@pytest.mark.parametrize(
    "spec, budget, dimension, partial",
    [
        ("SL(2,3)", 1_000_000, 5, 1_452_444),
        ("D8", 100, 1, 456),
        ("D12", 1000, 1, 2_270),
        ("Z6", 10, 0, 62),
        ("D8xZ3", 1_000_000, 1, 29_299_680),
    ],
)
def test_budget_counts_the_full_complex(spec, budget, dimension, partial, capsys):
    P, t = _factor(spec)
    with pytest.raises(BudgetExceeded) as info:
        order_complex(P, budget, t)
    message = f"simplex budget {budget} exceeded at dimension {dimension}"
    assert (str(info.value), info.value.partial) == (message, partial)
    assert main(["homology", spec, "--budget-simplices", str(budget)]) == 2
    assert capsys.readouterr() == ("", f"racklab: {message}\n")


def test_budget_partial_is_the_running_count_of_the_full_complex():
    P, t = _factor("D8")
    counts = order_complex(P, topology.DEFAULT_SIMPLEX_BUDGET, t).full_counts
    for d in range(len(counts)):
        total = sum(counts[:d + 1])
        with pytest.raises(BudgetExceeded) as info:
            order_complex(P, total - 1, t)
        assert info.value.partial == total
        assert str(info.value).endswith(f"at dimension {d}")
    assert order_complex(P, sum(counts), t).full_counts == counts


@pytest.mark.parametrize("spec, code", [("D8xZ3", 2), ("S4", 0), ("Z6", 0), ("Z1", 0), ("D8", 0)])
def test_homology_command_never_expands_the_product(spec, code, monkeypatch, capsys):
    def refuse(*args):
        raise AssertionError("the product expansion was reached")

    monkeypatch.setattr(lattice.ProductLattice, "expand", refuse)
    assert main(["homology", spec]) == code
    out, err = capsys.readouterr()
    if code:
        assert err == "racklab: simplex budget 1000000 exceeded at dimension 1\n"
    else:
        assert json.loads(out)["nodes"] == enumerate_subracks(rack_from_spec(spec)).n
    # the patch is live: expanding the lattice reaches it
    with pytest.raises(AssertionError, match="expansion was reached"):
        enumerate_subracks(rack_from_spec(spec)).expand()


def test_the_shift_oracle_covers_every_sphere_theorem_group():
    # `sphere-theorem` reads L(G)'s homology through the shift, so every
    # group it checks must be one the shift is held to the full complex on
    assert set(catalog.SPHERE_LIST) <= set(SHIFT_ORACLE_SPECS)


def test_sphere_theorem_never_expands_the_product(monkeypatch):
    def refuse(*args):
        raise AssertionError("the product expansion was reached")

    monkeypatch.setattr(lattice.ProductLattice, "expand", refuse)
    result = verify.check_sphere_theorem(verify.VerifyConfig())
    assert result.status == "pass"
    assert sorted(result.computed) == sorted(catalog.SPHERE_LIST)
    # the patch is live: expanding D8's lattice reaches it
    with pytest.raises(AssertionError, match="expansion was reached"):
        enumerate_subracks(rack_from_spec("D8")).expand()


def test_homology_of_sl23_factor_fits_where_the_full_complex_does_not():
    P, t = _factor("SL(2,3)")
    K = order_complex(P, 10**7, t)
    assert (t, K.size(), sum(K.full_counts)) == (2, 13_860, 1_973_820)
    assert reduced_homology(K).sphere_dimension == 5
