from __future__ import annotations

import itertools
from functools import reduce
from operator import or_

import pytest

from racklab.bitsets import bit_list, mask_of
from racklab.groups import FiniteGroup
from racklab.lattice import (
    DEFAULT_NODE_BUDGET,
    ProductLattice,
    SubrackLattice,
    enumerate_subracks,
)
from racklab.racks import Rack, rack_from_spec


def full_lattice(
    rack: Rack | str, node_budget: int = DEFAULT_NODE_BUDGET, **spec_options
) -> SubrackLattice:
    """L(R) with its sets and rows: `enumerate_subracks(R).expand()`.  `rack`
    is a Rack, or a rack spec that `rack_from_spec` builds with
    `spec_options`."""
    if isinstance(rack, str):
        rack = rack_from_spec(rack, **spec_options)
    return enumerate_subracks(rack, node_budget).expand()


@pytest.fixture(scope="session")
def expansion():
    """`expansion(spec)` is (L, E): L = `enumerate_subracks` of the rack of
    `spec` (max order 360) and E = `L.expand()`, its lemma-free walk, each
    built once per test session.  `test_product_expansion` and
    `test_central_factor` compare the same expansions with their oracles;
    no test may modify them."""
    cache: dict[str, tuple[ProductLattice, SubrackLattice]] = {}

    def get(spec: str) -> tuple[ProductLattice, SubrackLattice]:
        if spec not in cache:
            L = enumerate_subracks(rack_from_spec(spec, max_order=360))
            cache[spec] = L, L.expand()
        return cache[spec]

    return get


def brute_force_subgroups(G: FiniteGroup) -> list[int]:
    """Independent oracle: scan all identity-containing subsets for closure
    under product and inverse (use only for order <= 12)."""
    out = []
    for m in range(1, 1 << G.order, 2):  # must contain element 0
        elems = bit_list(m)
        ok = True
        for a in elems:
            if not (1 << G.inv[a]) & m:
                ok = False
                break
            for b in elems:
                if not (1 << G.mul[a][b]) & m:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            out.append(m)
    return sorted(out, key=lambda m: (m.bit_count(), m))


def pairwise_closure(G: FiniteGroup, seed: int) -> int:
    """Independent oracle for `groups.subgroup_closure_mask`: the seed and
    the identity, closed member by member under the products of every pair
    of members, taken both ways."""
    mul = G.mul
    todo = bit_list(seed | 1)
    members = set(todo)
    while todo:
        a = todo.pop()
        row = mul[a]
        for b in list(members):
            for c in (row[b], mul[b][a]):
                if c not in members:
                    members.add(c)
                    todo.append(c)
    return mask_of(members)


def pairwise_subgroups(G: FiniteGroup) -> list[int]:
    """Independent oracle for `groups.all_subgroups`: the trivial subgroup
    closed under the join with each cyclic subgroup, every join closed by
    `pairwise_closure`; sorted by (order, mask)."""
    cyclic = {pairwise_closure(G, 1 << g) for g in range(G.order)}
    found, queue = {1}, [1]
    while queue:
        h = queue.pop()
        for c in cyclic:
            if c | h != h:
                k = pairwise_closure(G, c | h)
                if k not in found:
                    found.add(k)
                    queue.append(k)
    return sorted(found, key=lambda m: (m.bit_count(), m))


def supersolvable_by_huppert(G: FiniteGroup) -> bool:
    """Independent oracle for `group_properties(G).supersolvable`: Huppert's
    criterion (Math. Z. 60, 1954), every maximal subgroup has prime index,
    with maximality by definition over `pairwise_subgroups` (order <= 48)."""
    proper = pairwise_subgroups(G)[:-1]
    maximal = [m for m in proper if not any(m != k and m & k == m for k in proper)]
    indices = [G.order // m.bit_count() for m in maximal]
    return all(i > 1 and all(i % d for d in range(2, i)) for i in indices)


def normal_subgroup_count(G: FiniteGroup) -> int:
    """Independent oracle for `group_properties(G).simple`, which holds
    exactly when the count is 2: every union of conjugacy classes (the class
    of x being every g x g^-1) that holds the identity and is closed under
    products, one subset of the non-identity classes at a time; a union
    whose size does not divide |G| is no subgroup (Lagrange) and is skipped."""
    n, mul, inv = G.order, G.mul, G.inv
    classes, seen = [], 1
    for x in range(1, n):
        if not seen >> x & 1:
            c = mask_of(mul[mul[g][x]][inv[g]] for g in range(n))
            seen |= c
            classes.append(c)
    count = 0
    for r in range(len(classes) + 1):
        for chosen in itertools.combinations(classes, r):
            union = reduce(or_, chosen, 1)
            if n % union.bit_count():
                continue
            members = bit_list(union)
            count += all(union >> mul[a][b] & 1 for a in members for b in members)
    return count


def commutes_pairwise(G: FiniteGroup) -> bool:
    """Independent oracle for `group_properties(G).abelian`: every pair of
    elements commutes."""
    mul = G.mul
    return all(mul[a][b] == mul[b][a] for a in range(G.order) for b in range(a))


def all_maximal_chains(poset) -> list[tuple[int, ...]]:
    """Independent oracle: DFS every maximal bottom-to-top chain."""
    top = poset.n - 1
    chains = []
    stack = [(0, (0,))]
    while stack:
        v, chain = stack.pop()
        if v == top:
            chains.append(chain)
            continue
        for p in poset.parents(v):
            stack.append((p, chain + (p,)))
    return chains
