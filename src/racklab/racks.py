"""Finite racks as operation tables: validation, conjugation racks, closures,
and isomorphism search.

A rack is a set with a binary operation ``a > b`` that is self-distributive
and whose left translations ``b -> a > b`` are bijections.  Conjugation racks
use ``a > b = a b a^-1`` inside a group.

A rack spec names a group and a subset of it.  The k-cycles of S_n or A_n
(the filters `transpositions` and `cycles(k)` on a spec of one S or A term)
are built from their permutations alone, with no group table: the class is
counted in closed form and refused over `RACK_CAP` before it is listed, and
`validate_rack` checks the axioms on the table built: bijective rows of
ints, then self-distributivity on the translations of a generating set
only (Light's test for racks), which is exact.  Every other spec conjugates
inside the group that `build_group` makes.  Both give the same rack: the
group lists the identity first and then the sorted permutations, and a
k-cycle (k >= 2) is not the identity, so the class in sorted order has the
group's element order and the same labels.
"""

from __future__ import annotations

import itertools
import re
from math import comb, factorial
from typing import Sequence

from .bitsets import bit_list, mask_of
from .groups import (
    DEFAULT_MAX_ORDER,
    CapExceeded,
    FamilyTerm,
    FiniteGroup,
    _check_order,
    _composer,
    _perm_cycles,
    _perm_label,
    build_group,
    conjugacy_classes,
    format_group_spec,
    parse_group_spec,
)
from .work import ledger

ISO_CAP = 16
RACK_CAP = 40


class RackAxiomError(ValueError):
    pass


class Rack:
    """Immutable finite rack over elements 0..size-1.

    `perms` holds the permutation of each element when the rack comes from
    a group of permutations (S_n or A_n), and is None otherwise.  Raises
    RackAxiomError unless each element has its own label, on one line for
    the export.
    """

    __slots__ = ("size", "op", "inv_op", "labels", "provenance", "trivial_part", "perms",
                 "_tables")

    def __init__(self, op, inv_op, labels, provenance=None):
        self.op = tuple(tuple(row) for row in op)
        self.inv_op = tuple(tuple(row) for row in inv_op)
        n = self.size = len(self.op)
        labels = self.labels = tuple(labels)
        if len(labels) != n or len(set(labels)) != n:
            raise RackAxiomError(f"{len(labels)} labels for {n} elements; each needs its own label")
        for i, label in enumerate(labels):
            if "".join(label.splitlines()) != label:
                raise RackAxiomError(f"the label {label!r} of element {i} holds a line break")
        self.provenance = provenance
        # T: the elements that act trivially and that every element fixes
        identity = tuple(range(self.size))
        self.trivial_part = mask_of(
            t for t in identity
            if self.op[t] == identity and all(row[t] == t for row in self.op)
        )
        self.perms = None
        self._tables = None

    def full_mask(self) -> int:
        return (1 << self.size) - 1

    # -- closure ---------------------------------------------------------

    def _merged_tables(self):
        # one packed table: tables[chunk][byte] holds, in the n-bit field
        # a*n..a*n+n-1 of one integer, the union of {a>y, y>a, a>^-1 y,
        # y>^-1 a} over the elements y encoded by `byte`; the fields of the
        # elements of `trivial_part`, which `closure` never reads, are 0.
        # Each element of a chunk doubles the chunk's table, the new half
        # being the old one with the element's packed images added, so the
        # last chunk of k < 8 elements has 2^k entries: a subset of the rack
        # sets no higher bit
        if self._tables is not None:
            return self._tables
        n = self.size
        op, inv_op = self.op, self.inv_op
        acting = bit_list(self.full_mask() & ~self.trivial_part)
        single = [
            sum(
                ((1 << op[a][y]) | (1 << inv_op[a][y]) | (1 << op[y][a]) | (1 << inv_op[y][a]))
                << a * n
                for a in acting
            )
            for y in range(n)
        ]
        tables = []
        for base in range(0, n, 8):
            tab = [0]
            for m in single[base:base + 8]:
                tab += [t | m for t in tab]
            tables.append(tab)
        self._tables = tables
        return tables

    def packed_image(self, mask: int) -> int:
        """The packed image of `mask`: field a (bits a*n..a*n+n-1) holds the
        products and inverse products of a with the elements of `mask`, both
        ways, for each a outside `trivial_part` (0 for a in it).  One lookup
        per chunk of 8 elements, ORed."""
        img = 0
        for tab in self._merged_tables():
            if not mask:
                break
            byte = mask & 255
            if byte:
                img |= tab[byte]
            mask >>= 8
        return img

    def closure(self, seed: int, closed: int = 0, stop: int = 0) -> int:
        """Smallest subrack containing the bitmask `seed` (closed under the
        operation and its inverse, both arguments).

        `closed` is a subset of the seed whose pairwise products and inverse
        products already lie in the seed; a subrack inside `seed` is one.
        The closure works in rounds on a work list, at first the seed
        outside `closed` and `trivial_part`.  A round takes the packed image
        of the current set `res` (`packed_image`, one table lookup per
        chunk of 8 elements), reads each work-list element's field of it
        with one shift, and adds what those fields hold outside `res`; the
        added elements are the next round's work list.  The fields hold
        both argument orders and both inverses, so a pair of elements of
        `res` with one on a work list is read in the last round that has one
        of them on it, and the pairs no round reads need none: a pair inside
        `closed` has its products in the seed, and a product or inverse
        product with an element of `trivial_part` is its second argument.
        The set is closed when a round adds nothing.  Nothing here uses
        self-distributivity: on any table with bijective rows the result is
        exact, so `validate_rack` runs it before the axioms are known to hold.

        With `stop`, the closure returns at the end of the first round that
        adds an element of `stop`: the set it returns then lies between
        `seed` and the closure and meets `stop` outside `seed`, but may not
        be a subrack.  The closure only grows, so it returns early exactly
        when the full closure meets `stop` outside `seed`, and otherwise
        returns the full closure.
        """
        skip = self.trivial_part
        todo = seed & ~(closed | skip)
        if not todo:
            return seed
        n = self.size
        field = (1 << n) - 1
        image = self.packed_image
        res = seed
        while todo:
            img = image(res)
            add = 0
            while todo:
                low = todo & -todo
                todo ^= low
                add |= img >> n * (low.bit_length() - 1)
            new = add & field & ~res
            if not new:
                break
            res |= new
            if new & stop:
                return res
            todo = new & ~skip
        return res

    def is_closed(self, mask: int) -> bool:
        """Every product and inverse product of two members lies in `mask`:
        the tests' exhaustive reference for `lattice.brute_force_subracks`."""
        op, inv_op = self.op, self.inv_op
        elems = bit_list(mask)
        for a in elems:
            for b in elems:
                if not (1 << op[a][b]) & mask or not (1 << inv_op[a][b]) & mask:
                    return False
        return True

    def __repr__(self) -> str:
        tag = f", provenance={self.provenance!r}" if self.provenance else ""
        return f"Rack(size={self.size}{tag})"


def validate_rack(
    op_table: Sequence[Sequence[int]],
    labels: Sequence[str] | None = None,
    provenance: str | None = None,
) -> Rack:
    """Check the rack axioms on an operation table and return the Rack.

    Raises RackAxiomError naming the failing row (an entry that is not an
    int, out of range or repeated) or triple (self-distributivity); `Rack`
    checks the labels, after the rows and before self-distributivity.

    Self-distributivity is checked by Light's test for racks, on the
    translations L_a = op[a] of a generating set only.  The set A of the
    elements a whose L_a is an automorphism, L_a L_b = L_(a > b) L_a for
    every b, holds `trivial_part`, whose translations are the identity.  It
    is closed under > and its inverse: for a and b in A, L_(a > b) =
    L_a L_b L_a^-1 and L_(a >^-1 b) = L_a^-1 L_b L_a are products of
    automorphisms.  So A holds the closure of the generators and T, which
    `Rack.closure` computes from bijective rows alone.  The generators are
    picked greedily, the least element the closure has not reached each
    time.  A mismatch falls back to the scan of every (a, b), so the message
    names the first failing triple in (a, b, c) order.  The closures run on
    the Rack returned and build the packed tables a walk reads; they add to
    the ledger's `closures`, and the rows compared, n per generator, to its
    `distributivity_rows`.
    """
    n = len(op_table)
    if labels is None:
        labels = [str(i) for i in range(n)]
    for a, row in enumerate(op_table):
        if len(row) != n:
            raise RackAxiomError(f"row {a} has length {len(row)}, expected {n}")
        if any(type(v) is not int for v in row):
            raise RackAxiomError(f"row {a} contains an entry that is not an int")
        if any(not 0 <= v < n for v in row):
            raise RackAxiomError(f"row {a} contains an out-of-range element index")
        if len(set(row)) != n:
            raise RackAxiomError(f"row {a} is not a bijection: b -> {a} > b repeats a value")
    op = [tuple(row) for row in op_table]
    rack = Rack(op, _inverse_table(op), labels, provenance)
    full, gens, reached = rack.full_mask(), 0, rack.trivial_part
    while reached != full:
        g = ~reached & (reached + 1)
        gens |= g
        reached = rack.closure(reached | g, reached)
    ledger.update(closures=gens.bit_count(), distributivity_rows=n * gens.bit_count())
    # a > (b > c) = (a > b) > (a > c) for every c at once: op[a]∘op[b]
    # against op[a > b]∘op[a]
    compose = [_composer(row) for row in op]
    if not all(compose[b](op[a]) == compose[a](op[op[a][b]])
               for a in bit_list(gens) for b in range(n)):
        for a, b in itertools.product(range(n), repeat=2):
            if compose[b](op[a]) != compose[a](op[op[a][b]]):
                c = next(c for c in range(n) if op[a][op[b][c]] != op[op[a][b]][op[a][c]])
                raise RackAxiomError(f"self-distributivity fails at (a, b, c) = ({a}, {b}, {c})")
    return rack


def _inverse_table(op: Sequence[Sequence[int]]) -> list[list[int]]:
    """inv[a][a > b] = b: the inverses of the left translations."""
    inv = [[0] * len(op) for _ in op]
    for a, row in enumerate(op):
        for b, c in enumerate(row):
            inv[a][c] = b
    return inv


def is_quandle(rack: Rack) -> bool:
    return all(rack.op[a][a] == a for a in range(rack.size))


def conjugation_rack(
    G: FiniteGroup, mask: int | None = None, provenance: str | None = None
) -> Rack:
    """The rack on the elements of `mask` (default all of G) with
    a > b = a b a^-1.  The subset must be closed under internal conjugation."""
    if mask is None:
        mask = (1 << G.order) - 1
    elems = bit_list(mask)
    pos = {e: i for i, e in enumerate(elems)}
    op = []
    for a in elems:
        images = [G.conj(a, b) for b in elems]
        row = [pos.get(c) for c in images]
        if None in row:
            b = row.index(None)
            raise RackAxiomError(
                f"subset is not closed under conjugation: "
                f"{G.labels[a]} > {G.labels[elems[b]]} = {G.labels[images[b]]} is outside it"
            )
        op.append(row)
    rack = Rack(op, _inverse_table(op), [G.labels[e] for e in elems], provenance or G.name)
    if G.perms is not None:
        rack.perms = tuple(G.perms[e] for e in elems)
    return rack


def closure_forward_only(rack: Rack, seed: int) -> int:
    """Closure under a > b alone; equals `closure` on finite racks (self-check)."""
    op = rack.op
    members = set(bit_list(seed))
    todo = list(members)
    while todo:
        a = todo.pop()
        for b in list(members):
            for c in (op[a][b], op[b][a]):
                if c not in members:
                    members.add(c)
                    todo.append(c)
    return mask_of(members)


# ---------------------------------------------------------------------------
# rack specs ("GROUPSPEC[:FILTER]")

_CYCLES_RE = re.compile(r"cycles\(([0-9]+)\)")
_CLASS_RE = re.compile(r"class\((.+)\)")


def _cycle_type(p: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(sorted(len(c) for c in _perm_cycles(p) if len(c) > 1))


def _check_rack_cap(size: int) -> None:
    """Refuse a rack of more than `RACK_CAP` elements, which a caller may
    count before it builds the rack."""
    if size > RACK_CAP:
        raise CapExceeded(f"rack size {size} exceeds the enumeration cap {RACK_CAP}")


def _cycle_length(filt: str) -> int | None:
    """k for the filter `cycles(k)`, 2 for `transpositions`, else None."""
    if filt == "transpositions":
        return 2
    m = _CYCLES_RE.fullmatch(filt)
    return int(m.group(1)) if m else None


def rack_from_spec(text: str, max_order: int = DEFAULT_MAX_ORDER) -> Rack:
    """Build a conjugation rack from "GROUPSPEC[:FILTER]".

    FILTER is one of: all | noncentral | transpositions | cycles(k) | class(label);
    a colon with no filter after it is refused.

    The k-cycles of a lone S_n or A_n term are listed directly, in sorted
    order, which is their order in the group (the identity first, then the
    sorted permutations), with the group's labels; the group is never
    built.  A group above `max_order` is refused by its order first, as
    `build_group` refuses it, and a class over `RACK_CAP` before it is
    listed.  Every other spec conjugates inside `build_group(GROUPSPEC)`.
    """
    group_part, colon, filt = text.partition(":")
    spec = parse_group_spec(group_part)
    if colon and not filt:
        raise RackAxiomError("empty rack filter")
    k = _cycle_length(filt)
    if k is None or len(spec) != 1 or spec[0].kind not in ("S", "A"):
        G = build_group(spec, max_order=max_order)
        return conjugation_rack(G, filter_mask(G, filt), provenance=text)
    _check_order(spec, max_order)
    return _cycle_rack(spec[0], k, text)


def _cycle_rack(term: FamilyTerm, k: int, provenance: str) -> Rack:
    """The rack of the k-cycles of S_n or A_n, a > b = a b a^-1 computed on
    the permutations, under (p q)(i) = p(q(i)).

    A k-cycle is a k-subset of the n points with one of (k - 1)! cyclic
    orders, and it is even exactly when k is odd."""
    n = term.param
    if not 2 <= k <= n or term.kind == "A" and k % 2 == 0:
        raise RackAxiomError(f"no {k}-cycles in {format_group_spec((term,))}")
    _check_rack_cap(comb(n, k) * factorial(k - 1))
    perms = []
    for first, *rest in itertools.combinations(range(n), k):
        for order in itertools.permutations(rest):
            p = list(range(n))
            for x, y in zip((first, *order), (*order, first)):
                p[x] = y
            perms.append(tuple(p))
    perms.sort()
    index = {p: i for i, p in enumerate(perms)}
    right = [_composer(b) for b in perms]  # a -> a∘b
    op = []
    for a in perms:
        inverse = _composer(tuple(sorted(range(n), key=a.__getitem__)))  # x -> x∘a^-1
        op.append([index[inverse(times_b(a))] for times_b in right])
    rack = validate_rack(op, [_perm_label(p) for p in perms], provenance)
    rack.perms = tuple(perms)
    return rack


def filter_mask(G: FiniteGroup, filt: str) -> int:
    """The elements of G that the FILTER of a rack spec selects ("" is all).

    `rack_from_spec` lists the cycle classes of S_n and A_n without G; the
    `transpositions` and `cycles(k)` branch here, which scans G's
    permutations by cycle type, is the oracle the tests compare it with."""
    if not filt or filt == "all":
        return (1 << G.order) - 1
    if filt == "noncentral":
        return ((1 << G.order) - 1) & ~conjugacy_classes(G).center
    k = _cycle_length(filt)
    if k is not None:
        if G.perms is None:
            raise RackAxiomError(
                f"filter {filt!r} applies only to plain permutation groups (S or A families)"
            )
        mask = mask_of(
            i for i, p in enumerate(G.perms) if _cycle_type(p) == (k,)
        )
        if mask == 0:
            raise RackAxiomError(f"no {k}-cycles in {G.name}")
        return mask
    m = _CLASS_RE.fullmatch(filt)
    if not m:
        raise RackAxiomError(f"unrecognized rack filter {filt!r}")
    try:
        e = G.label_index(m.group(1))
    except KeyError as exc:
        raise RackAxiomError(exc.args[0]) from None
    return conjugacy_classes(G).class_mask_of(e)


# ---------------------------------------------------------------------------
# isomorphism


def _profiles(rack: Rack) -> list[tuple]:
    out = []
    for a in range(rack.size):
        row = rack.op[a]
        out.append((row[a] == a, _cycle_type(tuple(row))))
    return out


def rack_isomorphism(r1: Rack, r2: Rack) -> tuple[int, ...] | None:
    """A bijection f with f(a > b) = f(a) > f(b), or None if there is none.

    Backtracking with per-element invariant pruning (idempotence and the cycle
    type of the left translation).
    """
    if r1.size != r2.size:
        return None
    n = r1.size
    if n > ISO_CAP:
        raise CapExceeded(f"isomorphism search capped at size {ISO_CAP}, got {n}")
    if n == 0:
        return ()
    p1, p2 = _profiles(r1), _profiles(r2)
    if sorted(p1) != sorted(p2):
        return None
    candidates = [
        [b for b in range(n) if p2[b] == p1[a]] for a in range(n)
    ]
    # most-constrained-first element order
    order = sorted(range(n), key=lambda a: (len(candidates[a]), a))
    op1, op2 = r1.op, r2.op
    image = [-1] * n
    used = [False] * n

    def consistent(a: int) -> bool:
        fa = image[a]
        for x in range(n):
            fx = image[x]
            if fx < 0:
                continue
            for u, v, fu, fv in ((a, x, fa, fx), (x, a, fx, fa)):
                w = op1[u][v]
                fw = image[w]
                expected = op2[fu][fv]
                if fw >= 0:
                    if fw != expected:
                        return False
                elif used[expected]:
                    return False
        return True

    def search(k: int) -> bool:
        if k == n:
            return True
        a = order[k]
        for b in candidates[a]:
            if used[b]:
                continue
            image[a] = b
            used[b] = True
            if consistent(a) and search(k + 1):
                return True
            image[a] = -1
            used[b] = False
        return False

    if not search(0):
        return None
    f = tuple(image)
    for a in range(n):
        for b in range(n):
            if f[op1[a][b]] != op2[f[a]][f[b]]:
                raise AssertionError("isomorphism verification failed")
    return f
