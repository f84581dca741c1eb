"""The group checks of `racklab verify` read the full lattice off its factor
L(G - Z), L(G) = L(G - Z) x 2^Z, which `enumerate_subracks` splits off at the
trivial part of the group's rack.  Every value they derive is compared here
with the same value computed on the full lattice, the way the checks computed
it before the factor was used, and the split itself is pinned to the center
and to the lattice of the non-central rack."""

from __future__ import annotations

import gc
import types

import pytest

from conftest import full_lattice
from racklab import catalog, verify
from racklab.bitsets import bit_list, bits, mask_of
from racklab.groups import build_group, conjugacy_classes
from racklab.lattice import (
    all_maximal_chain_lengths,
    coatoms,
    compute_M,
    enumerate_subracks,
    int_lattice,
    is_boolean,
)
from racklab.racks import Rack, conjugation_rack, rack_from_spec

DERIVED = (
    "graded-classification", "boolean-iff-abelian", "coatom-int-structure",
    "m-of-g", "maxsg-chains",
)


@pytest.fixture(scope="module")
def computed():
    report = verify.run_checks(list(DERIVED))
    return {c["id"]: c["computed"] for c in report["checks"]}


# the oracle's values by (rack table, class masks)
_ORACLE: dict[tuple, dict] = {}


def _on_the_full_lattice(spec, expansion):
    """The oracle: graded, Boolean, coatoms, Int(L) and the M-set of the full
    lattice, with the M-set as sorted group masks.  It runs once per
    distinct (rack table, class masks), and each spec gets its key's values.

    The sharing is exact.  The full lattice is enumerated on the rack, which
    it reads only through `op`: its `inv_op` and `trivial_part` are
    functions of `op`.  Every value is a function of that lattice's sets and
    rows, of the class masks and of the group order, len(op), and none
    carries a label.  Two specs with equal keys therefore get equal values.
    An abelian group's rack is the trivial rack on its elements and its
    classes are its singletons, so the five order-16 abelian groups share
    one run on a 65,536-node lattice.
    """
    G = build_group(spec)
    cd = conjugacy_classes(G)
    rack = conjugation_rack(G, provenance=spec)
    key = (rack.op, cd.classes)
    if key in _ORACLE:
        return _ORACLE[key]
    _, L = expansion(spec)
    full = (1 << G.order) - 1
    ints = int_lattice(L)
    _ORACLE[key] = {
        "graded": len(all_maximal_chain_lengths(L)) == 1,
        "boolean": is_boolean(L),
        "coatoms_ok": (
            sorted(L.sets[v] for v in coatoms(L)) == sorted(full & ~c for c in cd.classes)
        ),
        "int_size": len(ints),
        # Int(L) is Boolean exactly when L's c coatoms have 2^c meets
        "int_boolean": len(ints) == 2 ** len(cd.classes) == 2 ** len(coatoms(L)),
        "m_sets": sorted(L.sets[v] for v in compute_M(L, cd.classes).members),
    }
    return _ORACLE[key]


@pytest.mark.parametrize("spec", catalog.CATALOG)
def test_factor_derived_values_equal_the_full_lattice(spec, computed, expansion):
    want = _on_the_full_lattice(spec, expansion)
    assert computed["graded-classification"][spec] == want["graded"]
    assert computed["boolean-iff-abelian"][spec]["boolean"] == want["boolean"]
    assert computed["coatom-int-structure"][spec] == {
        "coatoms_ok": want["coatoms_ok"],
        "int_size": want["int_size"],
        "int_boolean": want["int_boolean"],
    }
    a = catalog.analyze_group(spec)
    m_sets = sorted(a.factor.sets[v] | a.center for v in compute_M(a.factor, a.classes).members)
    assert m_sets == want["m_sets"]
    assert computed["m-of-g"][spec]["members"] == len(want["m_sets"])


@pytest.mark.parametrize("spec", sorted(catalog.CHAIN_WITNESSES))
def test_factor_chain_lengths_equal_the_full_lattice(spec, computed, expansion):
    full = all_maximal_chain_lengths(expansion(spec)[1])
    assert computed["maxsg-chains"][spec] == list(full)


@pytest.mark.parametrize("spec", ["Z4xZ2", "D8", "SL(2,3)", "S4"])
def test_central_factor_classes_partition_its_positions(spec):
    # the factor's positions are the elements of its top G - Z
    a = catalog.analyze_group(spec)
    G = a.group
    cd = conjugacy_classes(G)
    assert a.center == cd.center
    top = a.factor.sets[-1]
    assert top == (1 << G.order) - 1 & ~cd.center
    assert top.bit_count() == G.order - cd.center.bit_count()
    assert list(a.classes) == [c for c in cd.classes if c.bit_count() > 1]
    # every element of the top lies in exactly one class, and no other does
    for i in range(G.order):
        assert sum(c >> i & 1 for c in a.classes) == top >> i & 1


def test_the_cached_analysis_holds_no_rack():
    """`analyze_group`'s cache keeps the factor, not the rack it was
    enumerated on, whose closure tables would stay alive with it.  The walk
    follows every object the entry reaches, but not into classes, modules
    or functions, which lead to the whole interpreter."""
    seen, stack = set(), [catalog.analyze_group("S4")]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, (type, types.ModuleType, types.FunctionType)):
            continue
        seen.add(id(obj))
        assert not isinstance(obj, Rack)
        stack.extend(gc.get_referents(obj))
    assert len(seen) > 100  # the walk reached the group and the factor's rows


@pytest.mark.parametrize("spec", catalog.CATALOG)
def test_the_trivial_part_of_a_group_rack_is_its_center(spec):
    G = build_group(spec)
    assert conjugation_rack(G).trivial_part == conjugacy_classes(G).center


@pytest.mark.parametrize("spec", catalog.CATALOG)
def test_the_split_off_factor_is_the_noncentral_lattice(spec):
    # the factor the group checks read is the lattice the non-central rack
    # spec enumerates on its own, whose element i is the i-th element of G - Z
    P, t = enumerate_subracks(rack_from_spec(spec)).product_form()
    want = full_lattice(spec + ":noncentral")
    G = build_group(spec)
    center = conjugacy_classes(G).center
    assert t == center.bit_count()
    elements = bit_list((1 << G.order) - 1 & ~center)
    assert P.sets == [mask_of(elements[i] for i in bits(m)) for m in want.sets]
    assert [P.parents(v) for v in range(P.n)] == [want.parents(v) for v in range(want.n)]
