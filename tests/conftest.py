from __future__ import annotations

from racklab.bitsets import bit_list, mask_of
from racklab.groups import FiniteGroup
from racklab.lattice import DEFAULT_NODE_BUDGET, SubrackLattice, enumerate_subracks
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
