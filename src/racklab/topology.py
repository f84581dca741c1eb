"""Order complexes of bounded posets and exact reduced integer homology.

The order complex has one vertex per proper node (bottom and top removed) and
one d-simplex per (d+1)-chain.  `order_complex` counts the chains of every
dimension and lists none, so a complex over the simplex budget fails at
once; the chains are listed when `OrderComplex.simplices` is first read.
The default homology path never reads them: it collapses the complex on its
comparability masks and lists the chains of the core only.

The trivial-part shift.  A subrack lattice is L(R) = P x 2^t, P = L(R - T)
(see `racklab.lattice`).  For a bounded poset P with at least two elements,
the proper part of P x 2 is homeomorphic to the suspension of the proper
part of P (Walker, *Canonical homeomorphisms of posets*, Europ. J. Combin.
1988; Bjorner, *Topological methods*, 1995): the proper part of a product of
bounded posets is the suspension of the join of their proper parts, and the
proper part of 2 is empty.  Suspension shifts reduced homology, torsion
included, up by one, so H~_i(L(R)) = H~_(i-t)(P), and the empty complex
(H~_-1 = Z) becomes S^(t-1).  When R = T, P has one node, and the lattice
2^t = 2 x 2^(t - 1) gives S^(t-2), the empty complex for t = 1.  So
`order_complex(P, budget, t)` builds the complex of P only and
`reduced_homology` shifts its result by t.

The budget still counts the simplices of L(R)'s complex, read off the chain
counts of P.  Let b_k(Q) count the strict chains 0 = x_0 < ... < x_k = 1 of
a bounded poset Q, so b_1 = 1 and b_(d+2) is the number of d-simplices.  In
Q x 2 the second coordinate rises in exactly one step of such a chain.  A
chain of k steps in Q x 2 is a chain of Q with k - 1 steps plus a step that
raises only the second coordinate, or a chain of Q with k steps, one of
which also raises it; either way that step has k places, so

    b_k(Q x 2) = k * (b_(k-1)(Q) + b_k(Q)),

applied once per element of T.  b_k(P x 2^t) needs b_i(P) only for i <= k:
the budget is tested after each dimension of P, as when the whole complex is
counted.  For t = 0 it is b_k(P), the count of the complex itself.

Homology first shrinks the complex by a strong collapse (`collapse_complex`
gives the proof): an order complex is the clique complex of its poset's
comparability graph, and a vertex whose closed neighbourhood lies in another
vertex's has a cone as its link, so deleting it keeps the homotopy type and
all homology, torsion included (Barmak & Minian, 2012).

The reduction works on the columns {row: nonzero entry} of
`boundary_matrices`, the one sparse-matrix form here.  Ranks come from column
reduction with clearing (Chen & Kerber, *Persistent homology computation
with a twist*, 2011): the maps are reduced in place from the top dimension
down, only +-1 pivots are registered, and the column of a simplex that is
the lowest row of a unit pivot one dimension up is skipped.  A dimension
that meets a column whose lowest entry is not a unit hands all its reduced
columns, unit pivots and deferred, to `rank_and_torsion`.  This is exact
over Z: rank and torsion depend only on the image lattice of the map, which
column operations, zero columns and cleared columns (each an integer
combination of earlier ones) leave unchanged; without a deferred column,
the unit pivots in distinct rows give the rank and there is no torsion.

The Smith normal form runs in two phases.  Elimination on +-1 pivots splits
off a 1 per pivot with row operations only; the remainder, which has no unit
entry left, is diagonalized densely by gcd steps on an entry of least
magnitude.  It shares no code with the column reduction.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Iterable, Sequence

from .bitsets import bit_list, bits
from .lattice import BudgetExceeded, CoverPoset
from .work import ledger

DEFAULT_SIMPLEX_BUDGET = 1_000_000


# ---------------------------------------------------------------------------
# order complex


class OrderComplex:
    """Chains of the proper part of a bounded poset, per dimension.

    Vertices are poset node ids; simplices are tuples of vertex ids that are
    strictly increasing in the id order, which is a linear extension of the
    poset order.

    When `t` > 0 the complex stands for the order complex of P x 2^t, of
    which only the complex of P is listed: `full_counts` are the simplex
    counts of P x 2^t and its homology is that of the listed complex
    shifted up by t (see the module docstring).  When `t` is 0,
    `full_counts` are the counts of the listed simplices.

    `comparable`, set by `order_complex`, holds one bitmask per vertex: bit j
    of entry i is set when vertices[i] and vertices[j] are comparable, so the
    complex is the clique complex of this graph.  A complex built straight
    from its simplices has None, and `collapse_complex` leaves it as it is.

    `order_complex` passes no simplices, only the masks and the simplex
    `counts` it has counted: `counts()`, `size()` and `dim` come from those,
    and `simplices` lists the chains from the masks on its first read, once,
    adding them to the ledger's `simplices_built`.
    """

    __slots__ = ("vertices", "_simplices", "_counts", "t", "full_counts", "comparable")

    def __init__(
        self,
        vertices: list[int],
        simplices: list[list[tuple[int, ...]]] | None,
        t: int = 0,
        full_counts: Sequence[int] | None = None,
        comparable: list[int] | None = None,
        counts: Sequence[int] = (),
    ):
        self.vertices = vertices
        self._simplices = simplices
        self._counts = tuple(counts if simplices is None else map(len, simplices))
        self.t = t
        self.full_counts = tuple(self._counts if full_counts is None else full_counts)
        self.comparable = comparable

    @property
    def simplices(self) -> list[list[tuple[int, ...]]]:
        if self._simplices is None:
            self._simplices = _chains(
                self.vertices, self.comparable, (1 << len(self.vertices)) - 1
            )
            ledger.update(simplices_built=self.size())
        return self._simplices

    @property
    def dim(self) -> int:
        return len(self._counts) - 1

    def counts(self) -> list[int]:
        return list(self._counts)

    def size(self) -> int:
        return sum(self._counts)

    def is_empty(self) -> bool:
        return not self.vertices


def _product_chains(chains: Sequence[int], t: int, k: int) -> int:
    """Strict bottom-to-top chains of k steps in P x 2^t, from the chains of
    P with at most k steps (`chains[i]` has i steps): b_k(Q x 2) = k *
    (b_(k-1)(Q) + b_k(Q)), applied t times (see the module docstring)."""
    row = [chains[i] if i < len(chains) else 0 for i in range(k + 1)]
    for _ in range(t):
        row = [0] + [i * (row[i - 1] + row[i]) for i in range(1, k + 1)]
    return row[k]


def _up_sets(poset: CoverPoset) -> list[int]:
    """Strict up-set of every proper node v (1 <= v <= n - 2) within the
    proper part, as a bitmask over proper positions: position v - 1 is v."""
    top = poset.n - 1
    above = [0] * max(top - 1, 0)
    for v in range(top - 1, 0, -1):
        acc = 0
        for p in poset.parents(v):
            if p < top:
                acc |= above[p - 1] | (1 << (p - 1))
        above[v - 1] = acc
    return above


def _count_simplices(
    poset: CoverPoset, simplex_budget: int, t: int
) -> tuple[list[int], int, list[int], list[int]]:
    """(up-sets, shift, full counts, counts): the `_up_sets` of `poset`, the
    shift of its homology, the simplex counts of the order complex of
    `poset` x 2^t, read off the chain counts of `poset` one factor 2 at a
    time (`_product_chains`), and the simplex counts of the complex of
    `poset` itself.  A one-node `poset` with t > 0 stands for 2 x 2^(t - 1),
    and 2 has no proper part.

    The running count is tested against the budget after every dimension d,
    which needs the chains of `poset` only through dimension d, so a budget
    that dimension 0 or 1 exhausts fails before the up-sets are listed
    (every comparable pair): the 1-simplices of `poset` are counted from the
    masks."""
    if poset.n < 2:
        if not t:
            raise ValueError("order complex needs a poset with at least 2 elements")
        t -= 1
    above = _up_sets(poset)
    # chains[k]: strict bottom-to-top chains of `poset` with k steps, so
    # chains[d + 2] counts its d-simplices
    chains = [0, 1, len(above)]
    # ends[i]: chains of `poset` of the next dimension whose least element is i
    ends = [up.bit_count() for up in above]
    ups: list[list[int]] = []
    full: list[int] = []
    total = 0
    dim = 0
    while True:
        count = _product_chains(chains, t, dim + 2)
        if not count:
            # no chain of P x 2^t has dim + 2 steps, so none of P has: the
            # chains of P are all counted, and the last count is their first 0
            return above, t, full, chains[2:-1]
        full.append(count)
        total += count
        if total > simplex_budget:
            raise BudgetExceeded(
                f"simplex budget {simplex_budget} exceeded at dimension {dim}", partial=total
            )
        if chains[-1]:
            if dim == 1:
                ups = [bit_list(up) for up in above]
            if dim:
                ends = [sum(ends[j] for j in up) for up in ups]
            chains.append(sum(ends))
        dim += 1


def _chains(vertices: list[int], comparable: list[int], keep: int) -> list[list[tuple[int, ...]]]:
    """The chains of the vertices at the positions in the bitmask `keep`,
    level by level, each level in lexicographic order.  `comparable[i]`
    masks the positions comparable to position i, and positions follow a
    linear extension, so the candidates left after the one a chain takes are
    those above it."""
    simplices = []
    frontier: list[tuple[tuple[int, ...], int]] = [((), keep)]
    while True:
        nxt = []
        for chain, rem in frontier:
            while rem:
                low = rem & -rem
                rem ^= low
                i = low.bit_length() - 1
                nxt.append((chain + (vertices[i],), rem & comparable[i]))
        if not nxt:
            return simplices
        simplices.append([c for c, _ in nxt])
        frontier = nxt


def order_complex(
    poset: CoverPoset, simplex_budget: int = DEFAULT_SIMPLEX_BUDGET, t: int = 0
) -> OrderComplex:
    """The order complex of the proper part of `poset` (node 0 and node n-1
    dropped), standing for the order complex of `poset` x 2^t.

    The simplex counts of the complex of `poset` x 2^t are counted
    dimension by dimension (`_count_simplices`), so `BudgetExceeded` is
    raised before any simplex is built; its `partial` is the running count
    through the dimension that overflows.  No chain is listed here: the
    complex keeps the comparability masks of its vertices, which
    `collapse_complex` reads, and the counts of the chains of `poset`, and
    lists those chains when its `simplices` are first read.
    """
    above, t, full, counts = _count_simplices(poset, simplex_budget, t)
    proper = list(range(1, poset.n - 1))
    top = poset.n - 1
    # strict down-sets, pushed up the covers in topological order
    below = [0] * len(proper)
    for v in proper:
        for p in poset.parents(v):
            if p < top:
                below[p - 1] |= below[v - 1] | (1 << (v - 1))
    comparable = [a | b for a, b in zip(above, below)]
    ledger.update(order_complexes=1)
    return OrderComplex(proper, None, t, full, comparable, counts)


# ---------------------------------------------------------------------------
# strong collapses


def collapse_complex(K: OrderComplex) -> OrderComplex:
    """The strong collapse of an order complex: delete dominated vertices
    until none is left, and return the full subcomplex on the rest.

    A vertex v is dominated by a vertex u != v when its closed neighbourhood
    N[v] in the comparability graph lies inside N[u].  An order complex is
    the clique complex of that graph, so the link of v is the clique complex
    of N(v), a cone with apex u exactly when N[v] lies inside N[u].  Deleting
    a vertex whose link is a cone is a sequence of elementary collapses, so
    it keeps the homotopy type, torsion included (Barmak & Minian, *Strong
    homotopy types, nerves and collapses*, Discrete Comput. Geom. 2012), and
    leaves the clique complex of the graph on the other vertices, so the
    argument repeats.

    The dominators of v lie in N[w] for every w in N[v], so one intersection
    tests v against all of them.  Sweeps over the live vertices stop when one
    deletes nothing; the chains left are listed from the masks, with K's `t`
    and `full_counts`.  A complex without masks may not be a clique complex
    and is returned as it is.
    """
    comparable = K.comparable
    if comparable is None:
        return K
    closed = [m | 1 << i for i, m in enumerate(comparable)]
    alive = (1 << len(closed)) - 1
    swept = False
    while not swept:
        swept = True
        for v in bits(alive):
            mine = 1 << v
            common = closed[v] & alive
            for w in bits(common):
                common &= closed[w]
                if common == mine:
                    break
            if common != mine:
                alive ^= mine
                swept = False
    vertices = [K.vertices[i] for i in bit_list(alive)]
    simplices = _chains(K.vertices, comparable, alive)
    ledger.update(simplices_collapsed=sum(map(len, simplices)), core_vertices=len(vertices))
    return OrderComplex(vertices, simplices, K.t, K.full_counts)


# ---------------------------------------------------------------------------
# Smith normal form


def _dense_diagonal(A: list[list[int]]) -> list[int]:
    """Diagonalize a dense matrix in place by gcd steps; returns the diagonal.

    Each step pivots on an entry of least magnitude and reduces its column
    with row operations and its row with column operations.  When a remainder
    is left, the next step pivots on a smaller entry; otherwise the pivot's
    row and column drop out.
    """
    diag = []
    while True:
        entries = [(abs(v), i, j) for i, row in enumerate(A) for j, v in enumerate(row) if v]
        if not entries:
            return diag
        p, i, j = min(entries)
        pivot_row, v = A[i], A[i][j]
        for k, row in enumerate(A):
            if k != i and row[j]:
                q = row[j] // v
                A[k] = [x - q * y for x, y in zip(row, pivot_row)]
        for l, x in enumerate(pivot_row):
            if l != j and x:
                q = x // v
                for row in A:
                    row[l] -= q * row[j]
        if sum(map(bool, pivot_row)) == 1 and sum(1 for row in A if row[j]) == 1:
            diag.append(p)
            del A[i]
            for row in A:
                del row[j]


def _diagonalize(lines: Sequence[dict[int, int]]) -> list[int]:
    """Positive diagonal entries of a diagonal form of the matrix M whose
    columns are `lines`, which are not changed.  They are read as the rows
    of M^T, which has M's Smith normal form (D = U M V gives D^T = V^T M^T
    U^T), so one copy of them is the working state, indexed by the rows of
    each column.

    Phase 1 eliminates on unit pivots (Dumas, Saunders & Villard, *On
    efficient sparse integer matrix Smith normal form computations*, 2001):
    in each row with a +-1 entry it pivots on the unit whose column is
    shortest and clears that column with row operations.  The column then
    holds only the pivot, so column operations would touch only the pivot
    row, and the row and column drop out with a diagonal 1.  Phase 2 hands
    what is left, which has no unit entry, to `_dense_diagonal`.
    """
    rows = {r: dict(line) for r, line in enumerate(lines) if line}
    cols: dict[int, set[int]] = {}
    for r, row in rows.items():
        for c in row:
            cols.setdefault(c, set()).add(r)
    diag = []
    pivoted = True
    while pivoted:
        pivoted = False
        for r in list(rows):
            row = rows.get(r, {})
            units = [c for c, v in row.items() if v == 1 or v == -1]
            if not units:
                continue
            c = min(units, key=lambda c: len(cols[c]))
            for r2 in cols[c] - {r}:
                row2 = rows[r2]
                q = row2[c] * row[c]
                for c2, x in row.items():
                    y = row2.get(c2, 0) - q * x
                    if y:
                        row2[c2] = y
                        cols[c2].add(r2)
                    else:
                        del row2[c2]
                        cols[c2].discard(r2)
                if not row2:
                    del rows[r2]
            for c2 in row:
                cols[c2].discard(r)
            del rows[r]
            diag.append(1)
            pivoted = True
    keep = sorted(set().union(*rows.values()))
    return diag + _dense_diagonal([[row.get(c, 0) for c in keep] for row in rows.values()])


def _invariant_factors(diag: Iterable[int]) -> tuple[int, ...]:
    """The divisibility chain d1 | d2 | ... of a nonzero diagonal.

    Replacing two entries by their gcd and lcm keeps each prime's multiset
    of exponents, so it keeps the Smith normal form.  After the sweep at
    position i, entry i holds the least exponent of every prime over
    positions i onwards, so it divides every later entry.
    """
    diag = [abs(d) for d in diag]
    rest = [d for d in diag if d != 1]
    for i in range(len(rest)):
        for j in range(i + 1, len(rest)):
            g = gcd(rest[i], rest[j])
            rest[i], rest[j] = g, rest[i] // g * rest[j]
    return (1,) * (len(diag) - len(rest)) + tuple(rest)


def rank_and_torsion(columns: Sequence[dict[int, int]]) -> tuple[int, tuple[int, ...]]:
    """Rank and torsion (invariant factors > 1) of the matrix with these
    columns {row: nonzero entry}, row ids any ints, from its Smith normal
    form; `columns` is not changed.  The one entry to the Smith form: the
    reduction calls it, and the tests check it against sympy."""
    factors = _invariant_factors(_diagonalize(columns))
    return len(factors), tuple(f for f in factors if f > 1)


# ---------------------------------------------------------------------------
# boundary matrices and homology


def boundary_matrices(K: OrderComplex) -> list[list[dict[int, int]]]:
    """Boundary maps of the augmented complex as lists of columns {row:
    entry}: index 0 is the augmentation (a column {0: 1} per vertex); index
    d >= 1 maps each d-simplex to its facets with alternating signs.  Every
    call builds fresh columns, which `_boundary_ranks` reduces in place and
    the tests hand to `rank_and_torsion`, the oracle.  Satisfies
    boundary-of-boundary = 0."""
    if K.is_empty():
        return []
    out = [[{0: 1} for _ in K.simplices[0]]]
    for d in range(1, len(K.simplices)):
        index = {s: i for i, s in enumerate(K.simplices[d - 1])}
        out.append([
            {index[s[:i] + s[i + 1:]]: -1 if i & 1 else 1 for i in range(d + 1)}
            for s in K.simplices[d]
        ])
    return out


def _subtract(col: dict[int, int], pivot: dict[int, int], row: int) -> None:
    # clear col[row] with the unit pivot column whose lowest row is `row`
    q = col[row] * pivot[row]
    for r, x in pivot.items():
        y = col.get(r, 0) - q * x
        if y:
            col[r] = y
        else:
            del col[r]


def _boundary_ranks(K: OrderComplex) -> tuple[list[int], list[tuple[int, ...]]]:
    """Rank and torsion of every boundary map of the augmented complex
    (index 0 is the augmentation), by column reduction with clearing of the
    `boundary_matrices` columns, from the top dimension down.  A dimension
    with a deferred non-unit column hands its reduced columns to
    `rank_and_torsion` (see the module docstring).  Adds `unit_pivots` and
    `nonunit_pivots`, the deferred columns, to the ledger."""
    matrices = boundary_matrices(K)
    ranks = [0] * len(matrices)
    torsions: list[tuple[int, ...]] = [()] * len(matrices)
    cleared: dict[int, dict[int, int]] = {}  # the pivots one dimension up
    units = nonunits = 0
    for d in range(len(matrices) - 1, -1, -1):
        pivots: dict[int, dict[int, int]] = {}  # lowest row -> reduced column
        deferred = []
        for j, col in enumerate(matrices[d]):
            if j in cleared:
                continue
            while col:
                low = max(col)
                pivot = pivots.get(low)
                if pivot is not None:
                    _subtract(col, pivot, low)
                elif col[low] == 1 or col[low] == -1:
                    pivots[low] = col
                    break
                else:
                    deferred.append(col)
                    break
        if deferred:
            ranks[d], torsions[d] = rank_and_torsion([*pivots.values(), *deferred])
        else:
            ranks[d] = len(pivots)
        units += len(pivots)
        nonunits += len(deferred)
        cleared = pivots
    ledger.update(unit_pivots=units, nonunit_pivots=nonunits)
    return ranks, torsions


@dataclass(frozen=True)
class HomologyResult:
    """Reduced Betti numbers and torsion per dimension.

    `empty_complex` flags the empty complex, whose only reduced homology is a
    single Z in dimension -1; Betti numbers themselves are never negative.
    """

    betti: dict[int, int]
    torsion: dict[int, tuple[int, ...]]
    euler_characteristic: int
    empty_complex: bool
    simplex_counts: tuple[int, ...]

    @property
    def sphere_dimension(self) -> int | None:
        """d if this is the reduced homology of a d-sphere (-1 for the empty
        complex), else None."""
        if self.empty_complex:
            return -1
        if any(self.torsion.values()) or len(self.betti) != 1:
            return None
        ((d, b),) = self.betti.items()
        return d if b == 1 else None

    def nonzero_dimensions(self) -> list[int]:
        return sorted(
            set(d for d, b in self.betti.items() if b)
            | set(d for d, t in self.torsion.items() if t)
        )

    def to_jsonable(self) -> dict:
        dims = {}
        for d in range(len(self.simplex_counts)):
            dims[str(d)] = {
                "rank": self.betti.get(d, 0),
                "torsion": list(self.torsion.get(d, ())),
            }
        return {
            "dims": dims,
            "euler_characteristic": self.euler_characteristic,
            "empty_complex": self.empty_complex,
            "simplex_counts": list(self.simplex_counts),
        }


def reduced_homology(K: OrderComplex, collapse: bool = True) -> HomologyResult:
    """Exact reduced integer homology of an order complex.

    The listed complex is reduced and its homology shifted up by `K.t`; the
    result carries `K.full_counts` and their Euler characteristic, which the
    shifted Betti numbers must reproduce."""
    counts = K.full_counts
    if not counts:
        # the empty complex is the (-1)-sphere: a single Z in dimension -1,
        # carried by the flag; its reduced Euler characteristic is -1
        return HomologyResult({}, {}, -1, True, ())
    euler = -1
    for d, c in enumerate(counts):
        euler += c if d % 2 == 0 else -c
    betti: dict[int, int] = {}
    torsion: dict[int, tuple[int, ...]] = {}
    if K.is_empty():
        # t > 0 suspensions of the empty complex's Z in dimension -1
        betti[K.t - 1] = 1
    else:
        work = collapse_complex(K) if collapse else K
        ranks, torsions = _boundary_ranks(work)
        wcounts = work.counts()
        for d in range(len(wcounts)):
            rank_d = ranks[d]
            rank_up = ranks[d + 1] if d + 1 < len(ranks) else 0
            b = wcounts[d] - rank_d - rank_up
            if b:
                betti[d + K.t] = b
            if d + 1 < len(ranks) and torsions[d + 1]:
                torsion[d + K.t] = torsions[d + 1]
    check = sum(b if d % 2 == 0 else -b for d, b in betti.items())
    if check != euler:
        raise AssertionError(
            f"Euler characteristic mismatch: betti give {check}, counts give {euler}"
        )
    return HomologyResult(betti, torsion, euler, False, counts)
