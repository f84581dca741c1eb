"""Finite racks as operation tables: validation, conjugation racks, closures,
and isomorphism search.

A rack is a set with a binary operation ``a > b`` that is self-distributive
and whose left translations ``b -> a > b`` are bijections.  Conjugation racks
use ``a > b = a b a^-1`` inside a group.
"""

from __future__ import annotations

import re
from typing import Iterable, Sequence

from .bitsets import bit_list, mask_of
from .groups import (
    DEFAULT_MAX_ORDER,
    CapExceeded,
    FiniteGroup,
    _perm_cycles,
    build_group,
    conjugacy_classes,
)

ISO_CAP = 16


class RackAxiomError(ValueError):
    pass


class Rack:
    """Immutable finite rack over elements 0..size-1."""

    __slots__ = ("size", "op", "inv_op", "labels", "provenance", "trivial_part", "_tables")

    def __init__(self, op, inv_op, labels, provenance=None):
        self.op = tuple(tuple(row) for row in op)
        self.inv_op = tuple(tuple(row) for row in inv_op)
        self.size = len(self.op)
        self.labels = tuple(labels)
        self.provenance = provenance
        # T: the elements that act trivially and that every element fixes
        identity = tuple(range(self.size))
        self.trivial_part = mask_of(
            t for t in identity
            if self.op[t] == identity and all(row[t] == t for row in self.op)
        )
        self._tables = None

    def full_mask(self) -> int:
        return (1 << self.size) - 1

    # -- closure ---------------------------------------------------------

    def _merged_tables(self):
        # chunked bitmask images: tables[a][chunk][byte] is the union of
        # {a>y, y>a, a>^-1 y, y>^-1 a} over the elements y encoded by `byte`;
        # None for a in `trivial_part`, which `closure` never looks up
        if self._tables is not None:
            return self._tables
        n = self.size
        nchunks = (n + 7) // 8
        op, inv_op = self.op, self.inv_op
        tables = []
        for a in range(n):
            if self.trivial_part >> a & 1:
                tables.append(None)
                continue
            single = []
            for y in range(n):
                single.append(
                    (1 << op[a][y]) | (1 << inv_op[a][y]) | (1 << op[y][a]) | (1 << inv_op[y][a])
                )
            per_chunk = []
            for c in range(nchunks):
                base = c * 8
                tab = [0] * 256
                for byte in range(1, 256):
                    low = byte & -byte
                    y = base + low.bit_length() - 1
                    tab[byte] = tab[byte ^ low] | (single[y] if y < n else 0)
                per_chunk.append(tab)
            tables.append(per_chunk)
        self._tables = tables
        return tables

    def closure(self, seed: int, closed: int = 0, stop: int = 0) -> int:
        """Smallest subrack containing the bitmask `seed` (closed under the
        operation and its inverse, both arguments).

        The work list holds the elements whose pairs may add something.  The
        merged tables cover both argument orders and both inverses, so the
        elements of `closed`, a subrack already inside `seed`, start off it,
        and the elements of `trivial_part` never join it: a product or
        inverse product with one of them is its second argument.

        With `stop`, the closure returns as soon as it adds an element of
        `stop`: the set it returns then lies between `seed` and the closure
        and meets `stop` outside `seed`, but may not be a subrack.  It is the
        full closure whenever that adds no element of `stop`.
        """
        skip = self.trivial_part
        todo = seed & ~(closed | skip)
        if not todo:
            return seed
        tables = self._merged_tables()
        res = seed
        while todo:
            low = todo & -todo
            todo ^= low
            ta = tables[low.bit_length() - 1]
            add = 0
            s = res
            ci = 0
            while s:
                byte = s & 255
                if byte:
                    add |= ta[ci][byte]
                s >>= 8
                ci += 1
            new = add & ~res
            if new:
                res |= new
                if new & stop:
                    return res
                todo |= new & ~skip
        return res

    def is_closed(self, mask: int) -> bool:
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

    Raises RackAxiomError naming the failing row (bijectivity) or triple
    (self-distributivity).
    """
    n = len(op_table)
    for a, row in enumerate(op_table):
        if len(row) != n:
            raise RackAxiomError(f"row {a} has length {len(row)}, expected {n}")
        if any(not 0 <= v < n for v in row):
            raise RackAxiomError(f"row {a} contains an out-of-range element index")
        if len(set(row)) != n:
            raise RackAxiomError(f"row {a} is not a bijection: b -> {a} > b repeats a value")
    op = [tuple(row) for row in op_table]
    for a in range(n):
        for b in range(n):
            ab = op[a][b]
            for c in range(n):
                if op[a][op[b][c]] != op[ab][op[a][c]]:
                    raise RackAxiomError(
                        f"self-distributivity fails at (a, b, c) = ({a}, {b}, {c})"
                    )
    if labels is None:
        labels = [str(i) for i in range(n)]
    return Rack(op, _inverse_table(op), labels, provenance)


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
    G: FiniteGroup, subset: int | Iterable[int] | None = None, provenance: str | None = None
) -> Rack:
    """The rack on `subset` (bitmask or iterable; default all of G) with
    a > b = a b a^-1.  The subset must be closed under internal conjugation."""
    if subset is None:
        mask = (1 << G.order) - 1
    elif isinstance(subset, int):
        mask = subset
    else:
        mask = mask_of(subset)
    elems = bit_list(mask)
    pos = {e: i for i, e in enumerate(elems)}
    for a in elems:
        for b in elems:
            c = G.conj(a, b)
            if c not in pos:
                raise RackAxiomError(
                    f"subset is not closed under conjugation: "
                    f"{G.labels[a]} > {G.labels[b]} = {G.labels[c]} is outside it"
                )
    op = [[pos[G.conj(a, b)] for b in elems] for a in elems]
    return Rack(op, _inverse_table(op), [G.labels[e] for e in elems], provenance or G.name)


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

_CYCLES_RE = re.compile(r"cycles\((\d+)\)")
_CLASS_RE = re.compile(r"class\((.+)\)")


def _cycle_type(p: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(sorted(len(c) for c in _perm_cycles(p) if len(c) > 1))


def rack_from_spec(text: str, max_order: int = DEFAULT_MAX_ORDER) -> Rack:
    """Build a conjugation rack from "GROUPSPEC[:FILTER]".

    FILTER is one of: all | noncentral | transpositions | cycles(k) | class(label).
    """
    group_part, _, filt = text.partition(":")
    G = build_group(group_part, max_order=max_order)
    return conjugation_rack(G, filter_mask(G, filt), provenance=text)


def filter_mask(G: FiniteGroup, filt: str) -> int:
    """The elements of G that the FILTER of a rack spec selects ("" is all)."""
    if not filt or filt == "all":
        return (1 << G.order) - 1
    if filt == "noncentral":
        return ((1 << G.order) - 1) & ~conjugacy_classes(G).center
    if filt == "transpositions" or _CYCLES_RE.fullmatch(filt):
        if G.perms is None:
            raise RackAxiomError(
                f"filter {filt!r} applies only to plain permutation groups (S or A families)"
            )
        k = 2 if filt == "transpositions" else int(_CYCLES_RE.fullmatch(filt).group(1))
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
