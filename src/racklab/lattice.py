"""Subrack lattices: enumeration of all subracks of a finite rack, Hasse
covers, and the lattice analytics built on them (gradedness, chain lengths,
atoms/coatoms, Int(L), the Boolean count, the M-set, product decompositions).
The analytics have no size guard of their own: each reads a lattice built
under `RACK_CAP` and the node budget, or loaded from an export.

Lattice nodes are bit-vector element sets, canonically ordered by
(popcount, value), so node 0 is the empty set and the last node is the top,
the full rack (or R - T on the factor below); node ids are therefore a
topological order of the cover DAG.

The trivial summand.  Let T be the set of elements of a rack R that act
trivially and that every element fixes (`Rack.trivial_part`; for the rack of
a group, its center).  Then R - T is a subrack, and S -> (S - T, S & T) is an
order isomorphism from L(R) onto L(R - T) x 2^T.  Proof: if a > b = t lies in
T, then b = a >^-1 t = t, since a fixes t; likewise a >^-1 b in T forces
b = a > t = t.  So products and inverse products of elements outside T stay
outside T: R - T is a subrack, and so is S - T = S & (R - T) for every
subrack S.  A product or inverse product with an element of T as either
argument is its second argument, so every subset U of T is a subrack, and so
is S' + U for every subrack S' of R - T.  The map is therefore a bijection
with inverse (S', U) -> S' + U, and both directions preserve inclusion.
`enumerate_subracks` alone makes this split: it enumerates L(R - T) inside R,
so the factor's sets are masks over R's own elements, and returns a
`ProductLattice`, which holds no sets or rows of L(R).  `racklab lattice`,
`racklab homology`, `catalog.analyze_group` and the group checks of
`racklab verify` (T is the center of a group) read L(R) off the factor
through `product_form()`, and `product_statistics` its counts and chain
lengths.  `expand()` gives L(R) to the export, to the checks that compare
it with other enumerations and to the readers of racks with T empty: the
factor itself when T is empty, and otherwise a lemma-free walk of all of R,
whose node count it holds to the product's.
`product_decomposition_check` is the oracle for the lemma: it walks the
full lattice of a group without it (`_lindig_walk`) and checks each node
and its covers as the walk yields them, without building the lattice.  The
walk rests on two facts about one element t of T, which the lemma's proof
above also uses: s + t is a subrack when s is, and Q - t is a subrack when
Q is (see `_lindig_walk`).

Enumeration walks the nodes level by level in that order: each popcount
level is a set that is complete when the walk reaches it, and is sorted once.
Each node's upper covers come from Lindig's neighbour algorithm (C. Lindig,
*Fast Concept Analysis*, ICCS 2000: the closure of the node plus each
outside element not in T, each cover emitted exactly once).  Most outside
elements generate a set that is not a cover, and the walk rejects each at
the first element it adds that already rules the cover out: closures only
grow, so the full closure would meet that element too, and the walk rejects
exactly the sets it rejects with full closures.  The walk reads the first
closure step of s + x for every x off one packed image of s per node
(`Rack.packed_image`), and calls `Rack.closure` only for an x whose step
neither rules the cover out nor lies inside s + x (see `_lindig_walk`).
It tests all x at once first, word-parallel on the packed image: an x
whose step meets an outside element above x or in T is rejected, as the
per-element test, which still holds those elements, would reject it; one
multiplication, which carries nothing as gcd(n, n - 1) = 1, gathers them
(`_packed_fields`).
The covers s + t, t in T, take no closure: the walk yields them as one
mask of the t, and reaches each node through T from one lower cover only.
The walk yields each node with its closure covers as masks; the lattice
builder adds the T covers, translates them to node ids in one pass at the
end and sorts each row.  The Hasse diagram is stored once, as compressed
sparse rows of upper covers; every analytic reads those rows, and the lower
covers of a node are read off the rows of the nodes below it.
"""

from __future__ import annotations

import re
from array import array
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

from .bitsets import bits, mask_of
from .racks import Rack, _check_rack_cap
from .work import ledger

DEFAULT_NODE_BUDGET = 5_000_000


class BudgetExceeded(RuntimeError):
    def __init__(self, message: str, partial: int = 0):
        super().__init__(message)
        self.partial = partial


class LatticeInvariantError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# cover DAG storage


class CoverPoset:
    """Bounded poset given by its Hasse diagram, nodes 0..n-1 in a topological
    order with 0 the bottom and n-1 the top.

    The diagram is stored as compressed sparse rows: the upper covers of v are
    ``pflat[pstart[v]:pstart[v + 1]]`` in ascending order.
    """

    __slots__ = ("n", "_pstart", "_pflat")

    def __init__(self, pstart: array, pflat: array):
        self.n = len(pstart) - 1
        self._pstart = pstart
        self._pflat = pflat

    def parents(self, v: int) -> list[int]:
        """Upper covers of v."""
        return list(self._pflat[self._pstart[v]:self._pstart[v + 1]])

    def children(self, v: int) -> list[int]:
        """Lower covers of v, in ascending order: the nodes below v in the
        topological order whose upper row holds v."""
        pstart, pflat = self._pstart, self._pflat
        return [u for u in range(v) if v in pflat[pstart[u]:pstart[u + 1]]]

    def edge_count(self) -> int:
        return len(self._pflat)

    def edges(self) -> Iterator[tuple[int, int]]:
        for c in range(self.n):
            for p in self._pflat[self._pstart[c]:self._pstart[c + 1]]:
                yield (c, p)


def _row_starts(n: int, rows: Iterable[int]) -> array:
    """Offsets of rows 0..n-1 in a flat array holding one entry per item of
    `rows`, the row each entry belongs to."""
    starts = array("l", [0]) * (n + 1)
    for r in rows:
        starts[r + 1] += 1
    for i in range(n):
        starts[i + 1] += starts[i]
    return starts


def _csr_from_edges(n: int, edges: Iterable[tuple[int, int]]) -> tuple[array, array]:
    """The parent rows (pstart, pflat) of a list of (child, parent) pairs."""
    edges = sorted(edges)
    return _row_starts(n, (c for c, _ in edges)), array("l", [p for _, p in edges])


class SubrackLattice(CoverPoset):
    """All subracks of a rack inside its last set (the whole rack, or R - T
    on a factor), ordered by inclusion, with cover relations.

    `index`, the node id of each set, is built on first use."""

    __slots__ = ("sets", "_index", "labels", "spec")

    def __init__(self, sets, pstart, pflat, labels, spec):
        super().__init__(pstart, pflat)
        self.sets = list(sets)
        self._index = None
        self.labels = tuple(labels)
        self.spec = spec

    @property
    def index(self) -> dict[int, int]:
        if self._index is None:
            self._index = {s: i for i, s in enumerate(self.sets)}
        return self._index

    def __repr__(self) -> str:
        return f"SubrackLattice(nodes={self.n}, edges={self.edge_count()})"


class ProductLattice:
    """L(R) = P x 2^t, held as the rack R, the factor P = L(R - T) and
    t = |T|, T = `R.trivial_part`.

    `n` and `edge_count()` are L(R)'s, read off P.  Nothing else of L(R)
    is held: `product_form()` gives (P, t), and `expand()` enumerates L(R)."""

    __slots__ = ("rack", "factor", "t", "n")

    def __init__(self, rack: Rack, factor: SubrackLattice, t: int):
        self.rack = rack
        self.factor = factor
        self.t = t
        self.n = factor.n << t

    def edge_count(self) -> int:
        return _product_edge_count(self.factor, self.t)

    def product_form(self) -> tuple[SubrackLattice, int]:
        return self.factor, self.t

    def expand(self) -> SubrackLattice:
        """L(R) with its sets and rows.  When t > 0, each call enumerates R
        anew with `_lindig_subracks`, without the product lemma, and raises
        LatticeInvariantError unless that walk finds exactly `n` nodes."""
        if not self.t:
            return self.factor
        try:
            L = _lindig_subracks(self.rack, self.n)
        except BudgetExceeded:
            L = None
        if L is None or L.n != self.n:
            raise LatticeInvariantError(f"L(R) does not have the {self.n} nodes of L(R - T) x 2^T")
        return L


def _product_edge_count(P: CoverPoset, t: int) -> int:
    """Covers of P x 2^t: E' * 2^t + n' * t * 2^(t - 1) (see
    `product_statistics`)."""
    return (P.edge_count() << t) + (P.n * t << t >> 1)


# ---------------------------------------------------------------------------
# enumeration


def enumerate_subracks(rack: Rack, node_budget: int = DEFAULT_NODE_BUDGET) -> ProductLattice:
    """Enumerate every subrack (fixed point of the closure) together with the
    Hasse diagram.

    With T = `rack.trivial_part`, this enumerates L(R - T) with
    `_lindig_subracks` on R itself, inside top = R - T, and returns
    L(R) = L(R - T) x 2^T (see the module docstring) as a `ProductLattice`,
    t = 0 included.  Readers take the factor through `product_form()`, or
    L(R) through `expand()`, which enumerates the whole rack R when t > 0.

    The factor's sets are masks over R, and its node ids and rows are those
    of L(R - T) enumerated on the rack R - T renumbered 0..n'-1 in ascending
    order.  Proof: the subracks of R inside the subrack R - T are those of
    the rack R - T, whose operation is R's.  The renumbering keeps the order
    of the elements, so a set keeps its popcount, and of two sets the larger
    value is the one holding the highest element where they differ, in
    either numbering.  The two lattices therefore list their sets in the same
    (popcount, value) order, and their ids and rows agree.

    The lattice, the budget error and its
    `partial` are those of `_lindig_subracks` on the whole rack, which fails
    when the lattice has more than max(node_budget, 1) nodes and reports that
    many.  The factor runs on the budget node_budget >> t, t = |T|, which it
    exceeds only when the full lattice exceeds node_budget, so an oversized
    lattice fails after at most node_budget / 2^t factor nodes.
    """
    trivial = rack.trivial_part
    t = trivial.bit_count()
    limit = max(node_budget, 1)
    try:
        factor = _lindig_subracks(rack, node_budget >> t, rack.full_mask() & ~trivial)
    except BudgetExceeded:
        factor = None
    if factor is None or factor.n << t > limit:
        raise _node_budget_exceeded(node_budget, limit)
    return ProductLattice(rack, factor, t)


def _node_budget_exceeded(node_budget: int, count: int) -> BudgetExceeded:
    return BudgetExceeded(
        f"node budget {node_budget} exceeded; {count} subracks enumerated so far",
        partial=count,
    )


def _lindig_subracks(rack: Rack, node_budget: int, top: int | None = None) -> SubrackLattice:
    """Every subrack of `rack` inside the subrack `top` (default: the whole
    rack) with the Hasse diagram, by closures alone, without the product
    lemma.  The lattice's last set is `top`.

    The nodes and their upper covers come from `_lindig_walk`, in final
    (popcount, value) order, so a node's id is its place in the walk.  Each
    cover is recorded as its parent's mask, the covers s + t of the walk's
    `tmask` after the closure covers, and after the walk one dict from mask
    to id translates all of them at once; then each row is sorted.  The
    budget and its error are the walk's.
    """
    if top is None:
        top = rack.full_mask()
    sets: list[int] = []
    pstart = array("l", [0])
    covers = array("q")  # parent masks, below 2**63 as RACK_CAP = 40
    for s, row, tmask in _lindig_walk(rack, node_budget, top):
        sets.append(s)
        covers.extend(row)
        if tmask:  # never on a walk inside R - T
            covers.extend(s | 1 << t for t in bits(tmask))
        pstart.append(len(covers))
    index = dict(zip(sets, range(len(sets))))
    rows = array("l")
    for lo, hi in zip(pstart, pstart[1:]):
        rows.extend(sorted(map(index.__getitem__, covers[lo:hi])))
    del index, covers  # before the lattice copies `sets`
    return SubrackLattice(sets, pstart, rows, rack.labels, rack.provenance)


def _packed_fields(n: int) -> tuple[int, Callable[[int], int]]:
    """(rep, nonzero) for words of n fields of n bits, field x at bit n*x,
    as `Rack.packed_image` packs them: m * rep copies an n-bit m into every
    field, and nonzero(word) is the n-bit mask of word's nonzero fields
    (broadword arithmetic, Knuth, TAOCP 4A, 7.1.3).  Bit n-1 of
    ((f & rest) + rest) | f, rest = 2^(n-1) - 1, is set exactly when the
    field f is nonzero, and no field carries into the next.  Times
    spread = sum of 2^(j*(n-1)), j < n, that bit of field k lands at bit
    n*(n-1) + k (j = n-1-k), and the product carries nothing: the partial
    products n*k + j*(n-1) are pairwise distinct, as gcd(n, n-1) = 1.
    Sums over range(n) keep n = 0 (the empty rack) from negative shifts.
    """
    field = (1 << n) - 1
    rep = sum(1 << n * x for x in range(n))  # bit 0 of each field
    tops = sum(1 << n * x + n - 1 for x in range(n))  # bit n-1 of each field
    rest = tops - rep  # bits 0..n-2 of each field
    spread = sum(1 << j * (n - 1) for j in range(n))
    gather = n * (n - 1)

    def nonzero(word: int) -> int:
        return (((word & rest) + rest | word) & tops) * spread >> gather & field

    return rep, nonzero


def _lindig_walk(rack: Rack, node_budget: int, top: int) -> Iterator[tuple[int, list[int], int]]:
    """Walk every subrack of `rack` inside the subrack `top`, by closures
    alone, without the product lemma: yield, for each subrack s in
    (popcount, value) order, (s, row, tmask), where the upper covers of s
    are the masks in `row` and the sets s + t for the elements t of
    tmask = T & top - s, T = `rack.trivial_part`.
    `_lindig_subracks` builds the lattice from the walk;
    `product_decomposition_check` checks each node as it is yielded, so the
    walk's own state, the levels still to come, is all of the lattice it
    holds.

    Two facts about one element t of T carry the walk through T.
    (1) s + t is a subrack when s is: a product or inverse product with t as
    either argument is its second argument (t acts trivially and every
    element fixes it), so s + t adds no pair outside s.
    (2) Q - t is a subrack when Q is and t is in Q: a > b = t forces
    b = a >^-1 t = t, as the row of a is a bijection that fixes t, and
    likewise a >^-1 b = t forces b = a > t = t; a product of elements of
    Q - t is therefore never t.  (1) is `Rack.closure`'s early return on
    the seed s + t with s closed, as before.  (2) is new trust: the walk
    finds Q from Q - t alone instead of from every lower cover, so
    `product_decomposition_check`, the lemma's oracle, now relies on this
    step of the lemma's proof (the rest of the lemma it still checks).
    Completeness stays cross-checked: `lattice-bruteforce` compares the
    walk with the subset scan and the lectic enumeration on its seven racks
    with T nonempty.

    Upper covers come from Lindig's neighbour algorithm: for a subrack s and
    each x of `top` outside s and T, in ascending order, b = closure(s + x)
    is a cover exactly when no element of b - s - x is still in `mins`, the
    outside elements not yet found to generate a larger set; otherwise x
    leaves `mins`.  Each cover is emitted once, at its last generator, so
    covers need no deduplication or pairwise subset filter.  The elements
    of T outside s are never closed: by (1) each
    gives the cover s + t, which `tmask` stands for.  They stay in `mins`
    all the same, so the test needs no fact about which closures meet T: a
    b that holds such a t lies above s + t and is rightly rejected, and a
    cover b = closure(s + x) holds none (else s + t would lie between), so
    its other generators are all outside T, and all rejected before its
    last one as in the plain algorithm.

    The first step.  Before any closure, the walk takes the first closure
    step of s + x: every product and inverse product of x with an element
    of s + x, both ways.  Those with s are field x of s's packed image
    (`Rack.packed_image`), taken once per node, and those of x with itself
    are x > x and x >^-1 x (field x of `loops`).  When that step meets
    mins - x, x leaves `mins` with no closure call (a first-step reject).
    This is exactly the rejection `Rack.closure(s + x, s, mins - x)` makes
    in its first round: its work list is {x}, since s is closed and the
    elements of T drop off it, and it reads field x of the image of s + x,
    the same set.

    The test runs word-parallel first, for all x at once: field x of
    (image | loops) & mins * rep & above is x's step inside the outside
    elements above x and T, and `_packed_fields`' `nonzero` gathers the x
    whose field is nonzero with one multiplication that carries nothing,
    its partial products k*n + j*(n-1) being distinct as gcd(n, n-1) = 1.
    Each such x is a first-step reject: when the per-element test reaches
    x, `mins` still holds every outside element above x and all of
    `tmask`.  They leave `mins` at once; the other x take the per-element
    test in ascending order, which catches the rejects caused by accepted
    elements below x.  A survivor's step misses every outside element above
    it, so the test reads the same as against `mins` with those rejects
    still in it, and each closure gets them back in its `stop` set.  So
    the rejects, closure seeds and `stop` sets are the per-element walk's.

    A step inside s + x makes s + x closed, and the cover, with no call
    either: the closure would return its seed at once.  Otherwise the
    closure runs from the seed s + x + step, with s + x as
    `closed`: every product and inverse product of two elements of s + x
    lies in that seed, so only the step's new elements are on its work list,
    and it goes on from its second round.

    The closure also stops at the end of the first round that adds an
    element of mins - x (`Rack.closure`'s `stop`).  Rejecting x on that
    partial set is exact: a closure only adds elements, so once the partial
    set meets mins - x the full closure meets it too, and x would leave
    `mins` either way.  A closure that adds no element of mins - x runs to
    the end, so every cover emitted is a complete closure.  The nodes,
    covers and rows are those of the full closures; only the rejected
    elements take less work.  A stopped closure is exactly a rejected call:
    the walk rejects b when b meets stop = mins - x, and the seed
    s + x + step avoids stop (mins avoids s, and the step met no element of
    stop), so b meets `stop` exactly when the closure returned early.

    Each node is found through T once.  The walk adds s + t to the next
    level only for the elements t of tmask above the highest element of T
    in s.  A subrack Q that meets T, with t its highest element there, is
    added from Q - t, a subrack by (2), and from no other Q - t'; Q - t
    comes earlier in the walk, so by induction on popcount every such Q is
    found.  A subrack that avoids T, other than the empty set, is the
    closure cover of one of its lower covers, which avoid T too.  So the
    walk finds every subrack, and each T cover is still in its node's
    `tmask`.  `enumerate_subracks` walks either a rack with T empty or
    inside top = R - T, where `tmask` is 0; only the walks of whole racks
    with T nonempty, `ProductLattice.expand`'s and
    `product_decomposition_check`'s, take this path.

    Order.  A cover is strictly larger than its child, so each popcount
    level is a set that only grows until the walk reaches it; by then every
    node on it has been found, so the level is sorted once and its set freed
    before its nodes are walked in that order.

    The budget: more than max(node_budget, 1) distinct subracks raise
    BudgetExceeded with that many as `partial`.  The test runs after every
    row, before it is yielded, so an oversized lattice fails within one row
    of its limit.  The levels are counted only when the count could have
    passed the limit: every set found since the last count was emitted as a
    cover since then, so no count is due until the covers emitted since the
    last one exceed the slack it left (`horizon`).

    The walk adds its closure calls, stopped closures, first-step rejects,
    nodes and covers (those of `tmask` included) to `work.ledger` once, when
    it ends, stops or fails, so a walk that exceeds its budget leaves the
    work it did in the ledger.
    """
    _check_rack_cap(rack.size)
    close, image = rack.closure, rack.packed_image
    n = rack.size
    field = (1 << n) - 1
    trivial = rack.trivial_part
    rep, nonzero = _packed_fields(n)
    # x > x and x >^-1 x: the pair of x with itself, which s's image lacks
    loops = sum((1 << rack.op[x][x] | 1 << rack.inv_op[x][x]) << n * x for x in range(n))
    # the elements above x, and T
    above = sum(((field & -2 << x) | trivial) << n * x for x in range(n))
    size = top.bit_count()
    limit = max(node_budget, 1)
    levels: list[set[int] | None] = [set() for _ in range(size + 2)]
    levels[0].add(0)
    done = 0  # the nodes on the levels walked so far
    emitted = 0  # the covers emitted so far
    calls = stopped = 0  # the closures made, and the rejected ones
    first = 0  # the elements rejected on their first step, with no closure
    horizon = limit - 1  # one set found, and no cover yet
    try:
        for k in range(size + 1):
            level = sorted(levels[k])
            levels[k] = None  # freed before the walk fills the levels above
            next_level = levels[k + 1]
            done += len(level)
            for s in level:
                row: list[int] = []
                push = row.append
                mins = top & ~s
                tmask = mins & trivial
                rem = mins ^ tmask
                if rem:
                    img = image(s) | loops
                    # the x whose first step meets mins above x or in T
                    rejected = nonzero(img & mins * rep & above) & rem
                    first += rejected.bit_count()
                    rem ^= rejected
                    mins ^= rejected
                while rem:
                    bit = rem & -rem
                    rem ^= bit
                    x = bit.bit_length() - 1
                    step = img >> n * x & field
                    if step & (mins ^ bit):
                        mins ^= bit
                        first += 1
                        continue
                    b = s | bit
                    if step & ~b:  # else s + x is closed: the cover, with no call
                        calls += 1
                        # mins - x of the per-element walk: the rejects above x back in
                        stop = (mins | rejected & -bit) ^ bit
                        # positional: perfbench wraps closure as (*args)
                        b = close(b | step, b, stop)
                        if b & stop:  # stop avoids s + x
                            mins ^= bit
                            stopped += 1
                            continue
                    levels[b.bit_count()].add(b)
                    push(b)
                # the T covers above the highest element of T in s
                high = (s & trivial).bit_length()
                fresh = tmask >> high << high
                while fresh:
                    bit = fresh & -fresh
                    fresh ^= bit
                    next_level.add(s | bit)
                emitted += len(row) + tmask.bit_count()
                if emitted > horizon:
                    found = done + sum(map(len, levels[k + 1:]))
                    if found > limit:
                        raise _node_budget_exceeded(node_budget, limit)
                    horizon = emitted + limit - found
                yield s, row, tmask
    finally:
        ledger.update(closures=calls, stopped_closures=stopped, first_step_rejects=first,
                      nodes=done, covers=emitted)


def iter_closed_sets_lectic(rack: Rack) -> Iterator[int]:
    """All subracks in lectic (NextClosure) order; cross-checks enumeration."""
    close = rack.closure
    n = rack.size
    full = rack.full_mask()
    a = close(0)
    yield a
    while a != full:
        nxt = None
        for i in reversed(range(n)):
            bit = 1 << i
            if a & bit:
                a &= ~bit
            else:
                b = close(a | bit)
                below = bit - 1
                if (b & below) == (a & below):
                    nxt = b
                    break
        if nxt is None:
            return
        yield nxt
        a = nxt


def brute_force_subracks(rack: Rack) -> list[int]:
    """Independent oracle: a scan of the subsets that reads `op` and
    `inv_op` directly and shares no code with the closure.  It adds the
    elements in ascending order and carries `need`, the products and
    inverse products of every pair added so far, both ways; a set is a
    subrack exactly when `need` lies inside it.  Later steps add only larger
    elements, so a branch whose `need` misses an element below the last one
    added is never closed, and is dropped."""
    op, inv = rack.op, rack.inv_op
    n = rack.size
    pair = [[1 << op[a][b] | 1 << op[b][a] | 1 << inv[a][b] | 1 << inv[b][a]
             for b in range(n)] for a in range(n)]
    out, stack = [], [(0, 0, 0)]  # (set, need, its least addable element)
    while stack:
        s, need, lo = stack.pop()
        if not need & ~s:
            out.append(s)
        for x in range(lo, n):
            t, row = s | 1 << x, pair[x]
            more = need
            for a in bits(t):
                more |= row[a]
            if not more & ~t & (2 << x) - 1:  # nothing up to x is missing
                stack.append((t, more, x + 1))
    return sorted(out, key=lambda m: (m.bit_count(), m))


def brute_force_covers(sets: list[int]) -> list[tuple[int, int]]:
    """Independent oracle: the Hasse diagram of distinct sets listed in
    (popcount, value) order, by definition: every id pair (c, p), in
    ascending order, with sets[p] above sets[c] and above no other set
    above sets[c]; up[c] holds the ids of those sets, all after c."""
    n = len(sets)
    up = [mask_of(p for p in range(c + 1, n) if s & sets[p] == s) for c, s in enumerate(sets)]
    edges = []
    for c in range(n):
        above_others = 0
        for m in bits(up[c]):
            above_others |= up[m]
        edges += ((c, p) for p in bits(up[c] & ~above_others))
    return edges


# ---------------------------------------------------------------------------
# atoms and coatoms


def atoms(L: CoverPoset) -> list[int]:
    return L.parents(0)


def coatoms(L: CoverPoset) -> list[int]:
    """Lower covers of the top, read off the upper rows: the top has the
    largest id, so it ends every row it is in."""
    top, pstart, pflat = L.n - 1, L._pstart, L._pflat
    return [v for v in range(top) if pstart[v + 1] > pstart[v] and pflat[pstart[v + 1] - 1] == top]


# ---------------------------------------------------------------------------
# chains and gradedness


def all_maximal_chain_lengths(P: CoverPoset) -> tuple[int, ...]:
    """Every cover-length of a maximal bottom-to-top chain, ascending; P is
    graded exactly when there is one."""
    # ub[v] is a bitmask of achievable cover-path lengths v -> top, from the
    # upper rows in reverse topological order
    pstart, pflat = P._pstart, P._pflat
    ub = [0] * P.n
    ub[-1] = 1
    for v in range(P.n - 2, -1, -1):
        acc = 0
        for p in pflat[pstart[v]:pstart[v + 1]]:
            acc |= ub[p]
        ub[v] = acc << 1
    return tuple(bits(ub[0]))


@dataclass(frozen=True)
class ProductStatistics:
    nodes: int
    cover_edges: int
    atoms: int
    coatoms: int
    lengths: tuple[int, ...]  # every maximal-chain cover-length, ascending

    @property
    def graded(self) -> bool:
        return len(self.lengths) == 1


def product_statistics(P: CoverPoset, t: int) -> ProductStatistics:
    """Node, cover, atom and coatom counts and maximal-chain lengths of
    P x 2^t, B_t = 2^t the Boolean lattice of rank t, read off P.

    Proof.  (a, U) is covered by (b, V) in P x B_t exactly when a < b is a
    cover of P and U = V, or a = b and V = U + {z} for one z outside U.  So
    there are n' * 2^t nodes and E' * 2^t + n' * t * 2^(t - 1) covers, for
    the n' nodes and E' covers of P and the t * 2^(t - 1) covers of B_t.  A
    maximal chain of P x B_t, bottom to top by covers, is a shuffle of a
    maximal chain of P (its steps in the first coordinate) with the t
    centre steps of a maximal chain of B_t, and every such shuffle is a
    maximal chain.  So the chain lengths are those of P shifted by t, and
    the product is graded iff P is.  The atoms are (atom of P, {}) and
    (bottom, {z}), and the coatoms (coatom of P, T) and (top, T - {z}):
    each count gains t."""
    return ProductStatistics(
        nodes=P.n << t,
        cover_edges=_product_edge_count(P, t),
        atoms=len(atoms(P)) + t,
        coatoms=len(coatoms(P)) + t,
        lengths=tuple(n + t for n in all_maximal_chain_lengths(P)),
    )


def connected_components_proper(L: CoverPoset) -> int:
    """Connected components of the proper part (top and bottom removed)."""
    n = L.n
    if n <= 2:
        return 0
    roots = _union_find_roots(n, ((c, p) for c, p in L.edges() if c != 0 and p != n - 1))
    return len(set(roots[1:n - 1]))


def _union_find_roots(n: int, pairs: Iterable[tuple[int, int]]) -> list[int]:
    """A representative of each of 0..n-1 once the two members of every
    pair are joined; members of one component share it."""
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in pairs:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
    return [find(x) for x in range(n)]


# ---------------------------------------------------------------------------
# closure to class unions, Int(L), the Boolean count


def closure_bar(classes: Sequence[int], mask: int) -> int:
    """Union of the classes, given as masks, that meet `mask`."""
    out = 0
    for c in classes:
        if c & mask:
            out |= c
    return out


def _meet_closure(top: int, coat: list[int]) -> set[int]:
    """`top` and all its meets with sets of `coat`."""
    out = {top}
    queue = [top]
    while queue:
        s = queue.pop()
        for c in coat:
            t = s & c
            if t not in out:
                out.add(t)
                queue.append(t)
    return out


def int_lattice(L: SubrackLattice) -> list[int]:
    """Int(L): all meets of sets of coatoms (the empty meet being the top)."""
    coat = [L.sets[c] for c in coatoms(L)]
    return sorted(_meet_closure(L.sets[-1], coat), key=lambda s: (s.bit_count(), s))


def is_boolean(L: SubrackLattice) -> bool:
    """Is L Boolean?  Exactly when L.n = 2^c = |Int(L)|, c = len(coatoms(L)).

    Proof.  Let C be an antichain of sets strictly below a top, and F its
    meet-closure: the images of S -> top & (the meet of S) over the subsets
    S of C.  The map is onto F and reverses inclusion.  C is exactly the set
    of F's coatoms: each member of F but the top lies inside some c' in C,
    and one strictly between c in C and the top would give c < c'.  An
    injective map also reflects inclusion (f(S) <= f(S') gives
    f(S | S') = f(S), so S' <= S), and then F is anti-isomorphic to 2^C;
    a Boolean F with |C| coatoms has 2^|C| members.  So F is Boolean exactly
    when |F| = 2^|C|, the count that `compute_M` and `coatom-int-structure`
    read.  In a lattice of sets closed under intersection, as every subrack
    lattice is, Int(L) is that F for L's coatoms and lies inside L, so
    |L| = |Int(L)| makes L = Int(L); and a Boolean L is the meet-closure of
    its coatoms.  So L is Boolean exactly when |L| = |Int(L)| = 2^c.
    """
    return L.n == 1 << len(coatoms(L)) and len(int_lattice(L)) == L.n


# ---------------------------------------------------------------------------
# the M-set (detects non-normal maximal subgroups)


@dataclass(frozen=True)
class MEntry:
    """A node that is not closed and whose unique cover is its class-union
    closure; it is in M when the other two conditions hold as well."""

    node: int
    elems: int
    interval_closed: bool
    int_not_boolean: bool

    @property
    def member(self) -> bool:
        return self.interval_closed and self.int_not_boolean


@dataclass(frozen=True)
class MReport:
    entries: tuple[MEntry, ...]
    members: tuple[int, ...]  # node ids


def compute_M(L: SubrackLattice, classes: Sequence[int]) -> MReport:
    """All nodes satisfying the four conditions: not closed; unique cover equal
    to the class-union closure; everything above that closure closed; the
    coatom-meet lattice of [bottom, closure] not Boolean, that is, fewer than
    2^k distinct meets of its k coatoms (see `is_boolean`).

    `classes` are masks that partition the top set of L: the conjugacy
    classes of G on the full group lattice, or the non-central classes on
    its factor L(G - Z), whose top is G - Z.  L is read through its sets and
    covers alone, so a lattice loaded from an export works too.  On the factor,
    M(G) = {S + Z : S in M(factor)}.  Proof: write a node of
    L(G) = L(factor) x 2^Z as S + U with U inside Z.  If U != Z, pick z in
    Z - U; S + U + {z} is a cover, and the class-union closure of S + U
    misses z, as {z} is a class.  So the closure is not the unique cover and
    S + U is not in M.  For U = Z the closure is bar(S) + Z, the covers are
    S' + Z for the covers S' of S, the nodes above the closure are T + Z for
    T above bar(S), and [bottom, bar(S) + Z] = [bottom, bar(S)] x 2^Z has
    Int = Int([bottom, bar(S)]) x 2^Z, Boolean exactly when its factor is.
    Each condition on S + Z is therefore the same condition on S."""
    union = 0
    for c in classes:
        # -1 for good once a class is empty or meets an earlier one
        union = -1 if not c or c & union else union | c
    sets = L.sets
    if union != sets[-1]:
        raise LatticeInvariantError("compute_M needs the lattice of the rack the classes partition")
    bars = [closure_bar(classes, s) for s in sets]
    unclosed = [s for s, bar in zip(sets, bars) if bar != s]
    above: dict[int, tuple[bool, bool]] = {}  # bar -> (interval_closed, int_not_boolean)
    entries = []
    for v, (s, bar) in enumerate(zip(sets, bars)):
        if bar == s:
            continue
        pars = L.parents(v)
        if len(pars) != 1 or sets[pars[0]] != bar:
            continue
        if bar not in above:
            coat = [sets[c] for c in L.children(pars[0])]  # pars[0] is bar's node
            above[bar] = (
                not any(u & bar == bar for u in unclosed),
                len(_meet_closure(bar, coat)) != 1 << len(coat),
            )
        entries.append(MEntry(v, s, *above[bar]))
    members = tuple(e.node for e in entries if e.member)
    return MReport(tuple(entries), members)


# ---------------------------------------------------------------------------
# the oracle for the product decomposition of group lattices


@dataclass(frozen=True)
class ProductDecompositionReport:
    ok: bool
    nodes: int
    factor_nodes: int
    center_size: int
    detail: str


def product_decomposition_check(
    rack: Rack,
    center: int,
    lattice: SubrackLattice | None = None,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> ProductDecompositionReport:
    """Verify Q -> (Q & R, Q & Z) is an order isomorphism from the full lattice
    onto (lattice of the non-central rack R) x (subsets of the center Z).

    `rack` is the conjugation rack of a whole group G and `center` the mask
    of G's center, which the caller takes from `conjugacy_classes(G)`, not
    from the factor's `Rack.trivial_part`.  This is the oracle for the lemma
    that `enumerate_subracks` and the group checks of `racklab verify` rely
    on, so it walks the full lattice itself with `_lindig_walk`, which does
    not use the lemma.  Since R and Z partition G, the pair determines Q,
    so the map is injective; with the node count it is a bijection onto the
    product.

    Each node is checked as the walk yields it, from its mask and the masks
    of its upper covers: its projection Q & R is a factor node, and each
    cover either keeps the central part and projects to a factor cover, or
    keeps the factor part and adds one central element.  The walk gives the
    covers Q + t, t in T = `rack.trivial_part`, as one mask, `tmask`; those
    with t in `center` keep the factor part and add one central element by
    their form, so they pass as a mask and only the bits of tmask - center
    (none when `center` is T) go through the test one cover at a time,
    after the row.  A `center` that misses an element z of T fails the node
    count, or else the projection of the subrack {z}, before any cover
    failure can be reported, so this order never changes a report.  The
    node and cover counts are compared at the end, so no more of the full
    lattice is held than the walk holds.  A given `lattice` (the tests pass
    corrupted ones) is read through the same checks, its rows as masks.  The
    first failure of each kind is kept, and the report gives the first of
    node count, projection, cover and cover count that failed.
    """
    sub, _ = enumerate_subracks(rack, node_budget).product_form()
    r_mask = rack.full_mask() & ~center
    z = center.bit_count()
    fsets = sub.sets
    factor_covers = {s: {fsets[p] for p in sub.parents(i)} for i, s in enumerate(fsets)}
    if lattice is None:
        rows = _lindig_walk(rack, node_budget, rack.full_mask())
    else:
        sets = lattice.sets
        rows = ((s, [sets[p] for p in lattice.parents(v)], 0) for v, s in enumerate(sets))
    nodes = covers = 0
    projection = cover = ""
    for s, row, tmask in rows:
        nodes += 1
        covers += len(row) + tmask.bit_count()
        fs = s & r_mask
        up = factor_covers.get(fs)
        if up is None:
            projection = projection or "projection to the non-central part is not a subrack"
            continue
        if cover:
            continue
        zs = s ^ fs
        if tmask & r_mask:
            row = row + [s | 1 << t for t in bits(tmask & r_mask)]
        for b in row:
            zb = b & center
            if zb == zs:
                if b ^ zb not in up:
                    cover = "a cover does not project to a factor cover"
                    break
            elif b ^ zb == fs:
                d = zs ^ zb
                if d & zs or d & (d - 1):  # zb is not zs plus one element
                    cover = "a cover changes the central part by != 1 element"
                    break
            else:
                cover = "a cover moves in both coordinates"
                break
    want_edges = _product_edge_count(sub, z)
    ledger.update(oracle_walks=1, oracle_nodes=nodes)
    if nodes != sub.n << z:
        detail = f"node count {nodes} != {sub.n} * 2^{z}"
    elif projection or cover:
        detail = projection or cover
    elif covers != want_edges:
        detail = f"cover count {covers} != expected {want_edges}"
    else:
        return ProductDecompositionReport(True, nodes, sub.n, z, "order isomorphism verified")
    return ProductDecompositionReport(False, nodes, sub.n, z, detail)


# ---------------------------------------------------------------------------
# line-oriented export


def export_lattice_lines(L: SubrackLattice) -> Iterator[str]:
    """The export, one newline-terminated line at a time."""
    yield "racklat 1\n"
    yield f"spec {L.spec or '-'}\n"
    yield f"elements {len(L.labels)}\n"
    for i, lab in enumerate(L.labels):
        yield f"label {i} {lab}\n"
    yield f"nodes {L.n}\n"
    for i, s in enumerate(L.sets):
        yield f"n {i} {s:x}\n"
    yield f"edges {L.edge_count()}\n"
    for c, p in L.edges():
        yield f"e {c} {p}\n"


def export_lattice_text(L: SubrackLattice) -> str:
    return "".join(export_lattice_lines(L))


def _value(lines: list[str], i: int, key: str) -> str:
    """The text after `key` on line i."""
    parts = lines[i].split(" ", 1) if i < len(lines) else ()
    if len(parts) != 2 or parts[0] != key:
        raise ValueError(f"line {i + 1}: expected a {key!r} line")
    return parts[1]


_DIGITS = {10: re.compile("[0-9]+"), 16: re.compile("[0-9a-f]+")}


def _natural(text: str, base: int = 10) -> int:
    """A count, id or set mask as `export_lattice_lines` writes it: ASCII
    digits of `base` only, so the signs, underscores, spaces, prefixes and
    Unicode digits that `int` also takes are refused."""
    if not _DIGITS[base].fullmatch(text):
        raise ValueError(f"{text!r} is not a base-{base} natural number")
    return int(text, base)


def _by_id(lines: list[str], i: int, key: str, count: int) -> list[str]:
    """The values of the `count` lines `key ID VALUE` from line i on, indexed
    by ID; each ID 0..count-1 must appear exactly once."""
    if count > len(lines) - i:
        raise ValueError(f"line {i}: {count} {key} lines declared, {len(lines) - i} lines follow")
    values: list = [None] * count
    for j in range(i, i + count):
        idx, _, value = _value(lines, j, key).partition(" ")
        k = _natural(idx)
        if k >= count or values[k] is not None:
            raise ValueError(f"line {j + 1}: {key} id {k} is out of range or repeated")
        values[k] = value
    return values


def load_lattice_export(text: str) -> SubrackLattice:
    """Parse the line-oriented export.

    Raises ValueError unless every count matches, every id is used once, the
    labels are distinct, the sets are unique and in (popcount, value) order from the empty set to the
    full mask, and the edges are exactly the Hasse diagram of the sets under
    inclusion (distinct strict inclusions, see `_check_hasse`).
    """
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0].split() != ["racklat", "1"]:
        raise ValueError("not a racklat v1 export")
    spec = _value(lines, 1, "spec")
    n_elements = _natural(_value(lines, 2, "elements"))
    labels = _by_id(lines, 3, "label", n_elements)
    if len(set(labels)) != n_elements:
        raise ValueError("a label is repeated")
    i = 3 + n_elements
    n_nodes = _natural(_value(lines, i, "nodes"))
    sets = [_natural(hx, 16) for hx in _by_id(lines, i + 1, "n", n_nodes)]
    i += 1 + n_nodes
    n_edges = _natural(_value(lines, i, "edges"))
    i += 1
    if len(lines) != i + n_edges:
        raise ValueError(f"expected {n_edges} edge lines, found {len(lines) - i}")
    full = (1 << n_elements) - 1
    if not sets or sets[0] != 0 or sets[-1] != full:
        raise ValueError("node 0 must be the empty set and the last node the full mask")
    for v in range(1, n_nodes):
        a, b = sets[v - 1], sets[v]
        if (a.bit_count(), a) >= (b.bit_count(), b) or b & ~full:
            raise ValueError(f"node {v} is repeated, out of (popcount, value) order or too large")
    edges = []
    for j in range(i, len(lines)):
        try:
            key, c, p = lines[j].split()
            c, p = _natural(c), _natural(p)
        except ValueError:
            raise ValueError(f"line {j + 1}: expected an 'e CHILD PARENT' line") from None
        if key != "e" or not (0 <= c < n_nodes and 0 <= p < n_nodes):
            raise ValueError(f"line {j + 1}: expected an edge between node ids")
        if c == p or sets[c] & ~sets[p]:
            raise ValueError(f"line {j + 1}: set {c} is not strictly inside set {p}")
        edges.append((c, p))
    if len(set(edges)) != len(edges):
        raise ValueError("an edge is listed twice")
    lat = SubrackLattice(
        sets, *_csr_from_edges(n_nodes, edges), labels, None if spec == "-" else spec
    )
    _check_hasse(lat, n_elements)
    return lat


def _check_hasse(L: SubrackLattice, n_elements: int) -> None:
    """Raise ValueError unless the upper covers of every node are exactly the
    minimal sets strictly above it: every node but the top has one, none lies
    above another, and every set strictly above the node contains one of them.
    This also gives every node but the bottom a lower cover.  The last test
    runs on bitmasks over node ids, one per element, of the nodes holding it.
    """
    sets = L.sets
    holders = [bytearray((L.n + 7) // 8) for _ in range(n_elements)]
    for v, s in enumerate(sets):
        for e in bits(s):
            holders[e][v >> 3] |= 1 << (v & 7)
    containing = [int.from_bytes(h, "little") for h in holders]
    everything = (1 << L.n) - 1
    for c, s in enumerate(sets):
        covers = [sets[p] for p in L.parents(c)]
        if not covers and c != L.n - 1:
            raise ValueError(f"node {c} has no upper cover")
        for k, a in enumerate(covers):
            for b in covers[k + 1:]:
                if a & b == a:
                    raise ValueError(f"node {c} has an upper cover above another one")
        above = everything
        for e in bits(s):
            above &= containing[e]
        reached = 0
        for t in covers:
            at = above
            for e in bits(t & ~s):
                at &= containing[e]
            reached |= at
        # `above` also holds c itself, its lowest bit
        if reached != above & (above - 1):
            raise ValueError(f"node {c} lies below a set that contains none of its upper covers")
