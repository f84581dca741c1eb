"""Finite groups from a small constructor grammar, plus the subgroup toolkit.

Groups are stored as full multiplication tables over element indices
0..order-1, with index 0 always the identity.  A spec such as "D8xZ3xZ2" is
the tuple of its factors, each a `FamilyTerm`: cyclic, symmetric,
alternating, dihedral, dicyclic, semidihedral-16, SL(2,3) or an order-18
semidirect product.  One table, `_FAMILIES`, gives each family's order and
builder; the group of a spec is the direct product of its factors, taken
from the left.  One search, `_joins`, finds the subgroups as the joins of
cyclic subgroups and the normal subgroups as the joins of conjugacy classes;
each join is the identity closed under right multiplication by the
generators that reached it, and a subgroup is flagged normal when it is a
union of classes.  `build_group`'s `max_order` is the only size guard.
`group_properties` reads abelian and simple off the conjugacy classes,
nilpotent and solvable off the two commutator series, and supersolvable off
the factor orders of one chief series, the normal subgroups walked in order.

Every family builder gives only its elements, product rule and labels to one
table constructor, `_table_group`, which evaluates every product one at a
time; a symmetric or alternating group's rule is the composition of
permutations.  D_2k, DIC_k, Q8, Q16 and SD16 share one rule, `_metacyclic`,
for <a, b | a^m = 1, b^2 = a^s, b a b^-1 = a^r>, each giving (m, r, s).  So
`FiniteGroup._validate` checks each family's rule itself.
Its associativity test, Light's, is exact and compares only the rows of a
generating set; a failure names the first failing (a, b, c) in scan order.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from functools import reduce
from math import factorial, isqrt, prod
from operator import itemgetter
from typing import Callable, NamedTuple, Sequence

from .bitsets import bit_list, bits, mask_of
from .work import ledger

DEFAULT_MAX_ORDER = 120


class GroupSpecError(ValueError):
    """Rejected group spec; `position` is the offset of the offending token."""

    def __init__(self, message: str, position: int = 0):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class CapExceeded(RuntimeError):
    """An input beyond one of the fixed size guards."""


class OrderCapExceeded(CapExceeded):
    pass


# ---------------------------------------------------------------------------
# spec grammar


@dataclass(frozen=True)
class FamilyTerm:
    kind: str  # a key of _FAMILIES: "Z", "S", "A", "D", "DIC" or a fixed token
    param: int | None = None  # None for a fixed token


_FIXED_TOKENS = ("Q8", "Q16", "SD16", "SL(2,3)", "TV18")


def _parse_term(token: str, position: int) -> FamilyTerm:
    if token in _FIXED_TOKENS:
        return FamilyTerm(token)
    m = re.fullmatch(r"DIC([0-9]+)", token)
    if m:
        k = int(m.group(1))
        if k < 2:
            raise GroupSpecError("dicyclic parameter must be at least 2", position)
        return FamilyTerm("DIC", k)
    m = re.fullmatch(r"([ZSAD])([0-9]+)", token)
    if not m:
        raise GroupSpecError(f"unrecognized term {token!r}", position)
    kind, n = m.group(1), int(m.group(2))
    if kind == "Z":
        if n < 1:
            raise GroupSpecError("cyclic parameter must be at least 1", position)
    elif kind in ("S", "A"):
        if not 1 <= n <= 8:
            raise GroupSpecError(f"{kind}{n}: parameter must be between 1 and 8", position)
    else:  # D
        if n % 2 != 0 or n < 4:
            raise GroupSpecError(
                "dihedral parameter is the group order; it must be even and at least 4",
                position,
            )
    return FamilyTerm(kind, n)


def parse_group_spec(text: str) -> tuple[FamilyTerm, ...]:
    """Parse a group spec string such as "S4", "D8xZ3" or "SL(2,3)" into its
    factors, the terms between the x's, in order."""
    if not text:
        raise GroupSpecError("empty group spec")
    terms = []
    position = 0
    for piece in text.split("x"):
        if not piece:
            raise GroupSpecError("empty term", position)
        terms.append(_parse_term(piece, position))
        position += len(piece) + 1
    return tuple(terms)


def format_group_spec(spec: Sequence[FamilyTerm]) -> str:
    return "x".join(t.kind if t.param is None else f"{t.kind}{t.param}" for t in spec)


def spec_order(spec: Sequence[FamilyTerm]) -> int:
    return prod(_FAMILIES[t.kind].order(t.param) for t in spec)


def _check_order(spec: Sequence[FamilyTerm], max_order: int) -> None:
    """Refuse a spec whose group order exceeds `max_order`, before anything
    is built."""
    order = spec_order(spec)
    if order > max_order:
        raise OrderCapExceeded(
            f"group order {order} exceeds the cap {max_order} for {format_group_spec(spec)}"
        )


# ---------------------------------------------------------------------------
# group object


def _composer(q: Sequence[int]) -> Callable[[Sequence[int]], tuple[int, ...]]:
    """The map p -> p∘q = (p[q[0]], p[q[1]], ...) for a permutation q of
    0..len(q)-1, one gather in C.  itemgetter of a single index returns an
    item, not a tuple; the only permutation of one point is (0,), and
    p∘(0,) is tuple(p)."""
    return itemgetter(*q) if len(q) > 1 else tuple


class FiniteGroup:
    """Multiplication table group; element 0 is the identity."""

    __slots__ = ("name", "order", "mul", "inv", "labels", "perms", "_label_index")

    def __init__(self, name, mul, labels, perms=None):
        self.name = name
        self.mul = tuple(tuple(row) for row in mul)
        self.order = len(self.mul)
        self.labels = tuple(labels)
        self.perms = tuple(perms) if perms is not None else None
        # -1 marks a row without 0, which `_validate` rejects
        self.inv = tuple(row.index(0) if 0 in row else -1 for row in self.mul)
        self._label_index = {lab: i for i, lab in enumerate(self.labels)}
        self._validate()

    def _validate(self) -> None:
        n, mul, inv = self.order, self.mul, self.inv
        if n == 0:
            raise ValueError("the table is empty; a group has at least one element")
        if len(self.labels) != n or len(set(self.labels)) != n:
            raise ValueError("labels must be unique, one per element")
        for a, row in enumerate(mul):
            if any(type(v) is not int for v in row):
                raise ValueError(f"row {a} of the table holds an entry that is not an int")
        full = set(range(n))
        # zip stops at the shortest row: a ragged table runs out of columns,
        # and the () that stands in for a missing column fails the length test
        columns = zip(*mul)
        for a, row in enumerate(mul):
            col = next(columns, ())
            if not (len(row) == n and set(row) == full and len(col) == n and set(col) == full):
                raise ValueError(f"row/column {a} of the table is not a permutation")
            if mul[0][a] != a or row[0] != a:
                raise ValueError("element 0 is not an identity")
            if inv[a] < 0 or row[inv[a]] != 0 or mul[inv[a]][a] != 0:
                raise ValueError(f"element {a} has no two-sided inverse")
        # Light's test.  N = {a : (a b) c = a (b c) for all b, c} holds 0 and
        # is closed under products: ((g h) b) c = (g (h b)) c = g ((h b) c) =
        # g (h (b c)) = (g h) (b c).  So if the generators are in N, so is 0's
        # closure under right multiplication by them, here the whole table.
        # In a group each greedy generator doubles it: at most log2 n of them.
        gens, reached = 0, 1
        while reached != (1 << n) - 1:
            gens |= ~reached & (reached + 1)
            reached = subgroup_closure_mask(self, gens)
        ledger["associativity_rows"] += n * gens.bit_count()
        # row ab against row a composed with row b: (a b) c = a (b c) for all c
        compose = [_composer(row) for row in mul]
        if all(mul[mul[a][b]] == compose[b](mul[a]) for a in bit_list(gens) for b in range(n)):
            return
        for a, b in itertools.product(range(n), repeat=2):
            if mul[mul[a][b]] != compose[b](mul[a]):
                c = next(c for c in range(n) if mul[mul[a][b]][c] != mul[a][mul[b][c]])
                raise ValueError(f"associativity fails at ({a}, {b}, {c})")

    def conj(self, a: int, b: int) -> int:
        """a b a^-1"""
        return self.mul[self.mul[a][b]][self.inv[a]]

    def label_index(self, label: str) -> int:
        try:
            return self._label_index[label]
        except KeyError:
            raise KeyError(f"no element labeled {label!r} in {self.name}") from None

    def __repr__(self) -> str:
        return f"FiniteGroup({self.name!r}, order={self.order})"


# ---------------------------------------------------------------------------
# family constructors


def _table_group(
    name: str, elements: Sequence, product: Callable, labels: Sequence[str], perms=None
) -> FiniteGroup:
    """The group on `elements` (the identity first) under `product`, which
    maps two elements to their product; element i is `elements[i]`."""
    index = {x: i for i, x in enumerate(elements)}
    mul = [[index[product(x, y)] for y in elements] for x in elements]
    ledger["direct_products"] += len(mul) ** 2
    return FiniteGroup(name, mul, labels, perms)


def _perm_cycles(p: tuple[int, ...]) -> list[list[int]]:
    """The cycles of a permutation of 0..n-1, fixed points included, each
    starting at its least point."""
    seen = [False] * len(p)
    cycles = []
    for i in range(len(p)):
        cyc = []
        j = i
        while not seen[j]:
            seen[j] = True
            cyc.append(j)
            j = p[j]
        if cyc:
            cycles.append(cyc)
    return cycles


def _perm_label(p: tuple[int, ...]) -> str:
    cycles = [c for c in _perm_cycles(p) if len(c) > 1]
    return "".join("(" + "".join(str(v + 1) for v in c) + ")" for c in cycles) or "e"


def _perm_group(name: str, perms: list[tuple[int, ...]]) -> FiniteGroup:
    identity = tuple(range(len(perms[0])))
    perms = [identity] + sorted(p for p in perms if p != identity)
    labels = [_perm_label(p) for p in perms]
    # (p q)(i) = p(q(i))
    return _table_group(name, perms, lambda p, q: tuple(map(p.__getitem__, q)), labels, perms)


def _build_symmetric(n: int) -> FiniteGroup:
    return _perm_group(f"S{n}", list(itertools.permutations(range(n))))


def _build_alternating(n: int) -> FiniteGroup:
    # a permutation is even when n minus its number of cycles is even
    evens = [
        p for p in itertools.permutations(range(n)) if (n - len(_perm_cycles(p))) % 2 == 0
    ]
    return _perm_group(f"A{n}", evens)


def _power(symbol: str, i: int) -> str:
    return "" if i == 0 else symbol if i == 1 else f"{symbol}{i}"


def _build_cyclic(n: int) -> FiniteGroup:
    labels = [_power("g", i) or "e" for i in range(n)]
    return _table_group(f"Z{n}", range(n), lambda a, b: (a + b) % n, labels)


def _metacyclic(m: int, r: int, s: int) -> Callable:
    """The product of <a, b | a^m = 1, b^2 = a^s, b a b^-1 = a^r> on the
    pairs (f, i) = a^i b^f.  Since b^f a^j = a^(r^f j) b^f and b b = a^s,
    a^i b^f a^j b^g = a^(i + r^f j + s f g) b^(f + g)."""

    def mul(x, y):
        (f, i), (g, j) = x, y
        return ((f + g) % 2, (i + r**f * j + s * f * g) % m)

    return mul


def _build_dihedral(order: int) -> FiniteGroup:
    # r^i, then s r^i = a^-i b, with a = r and b = s
    k = order // 2
    elems = [(0, i) for i in range(k)] + [(1, -i % k) for i in range(k)]
    labels = [_power("r", i) or "e" for i in range(k)] + ["s" + _power("r", i) for i in range(k)]
    return _table_group(f"D{order}", elems, _metacyclic(k, -1, 0), labels)


def _ab_group(name: str, m: int, r: int, s: int) -> FiniteGroup:
    """The group of `_metacyclic(m, r, s)` on a^i (i < m), then a^i b."""
    elems = [(f, i) for f in range(2) for i in range(m)]
    labels = [_power("a", i) or "e" for i in range(m)] + [_power("a", i) + "b" for i in range(m)]
    return _table_group(name, elems, _metacyclic(m, r, s), labels)


def _build_sl23() -> FiniteGroup:
    ident = (1, 0, 0, 1)
    elems = [ident] + [
        (a, b, c, d)
        for a, b, c, d in itertools.product(range(3), repeat=4)
        if (a * d - b * c) % 3 == 1 and (a, b, c, d) != ident
    ]

    def mul(x, y):
        a, b, c, d = x
        e, f, g, h = y
        return ((a * e + b * g) % 3, (a * f + b * h) % 3,
                (c * e + d * g) % 3, (c * f + d * h) % 3)

    labels = ["e"] + [f"[{a}{b}|{c}{d}]" for a, b, c, d in elems[1:]]
    return _table_group("SL(2,3)", elems, mul, labels)


def _build_tv18() -> FiniteGroup:
    # (eps, v) with eps in Z2, v in Z3 x Z3 and (eps,v)(delta,w) = (eps+delta, (-1)^delta v + w)
    def mul(x, y):
        e1, v1, w1 = x
        e2, v2, w2 = y
        s = -1 if e2 else 1
        return ((e1 + e2) % 2, (s * v1 + v2) % 3, (s * w1 + w2) % 3)

    elems = list(itertools.product(range(2), range(3), range(3)))
    labels = ["e"] + [f"{'tv' if e else 'v'}{v}{w}" for e, v, w in elems[1:]]
    return _table_group("TV18", elems, mul, labels)


def _build_product(a: FiniteGroup, b: FiniteGroup) -> FiniteGroup:
    elems = list(itertools.product(range(a.order), range(b.order)))

    def mul(x, y):
        return (a.mul[x[0]][y[0]], b.mul[x[1]][y[1]])

    labels = ["e"] + [f"({a.labels[i]}|{b.labels[j]})" for i, j in elems[1:]]
    return _table_group(f"{a.name}x{b.name}", elems, mul, labels)


class _Family(NamedTuple):
    order: Callable[[int | None], int]  # the group order, from the parameter
    build: Callable[[int | None], FiniteGroup]


# every family of the grammar, by token; a fixed token's parameter is None
_FAMILIES = {
    "Z": _Family(lambda n: n, _build_cyclic),
    "S": _Family(factorial, _build_symmetric),
    "A": _Family(lambda n: max(1, factorial(n) // 2), _build_alternating),
    "D": _Family(lambda n: n, _build_dihedral),
    "DIC": _Family(lambda k: 4 * k, lambda k: _ab_group(f"DIC{k}", 2 * k, -1, k)),
    "Q8": _Family(lambda _: 8, lambda _: _ab_group("Q8", 4, -1, 2)),
    "Q16": _Family(lambda _: 16, lambda _: _ab_group("Q16", 8, -1, 4)),
    "SD16": _Family(lambda _: 16, lambda _: _ab_group("SD16", 8, 3, 0)),
    "SL(2,3)": _Family(lambda _: 24, lambda _: _build_sl23()),
    "TV18": _Family(lambda _: 18, lambda _: _build_tv18()),
}


def build_group(
    spec: Sequence[FamilyTerm] | str, max_order: int = DEFAULT_MAX_ORDER
) -> FiniteGroup:
    """Build the group described by `spec` (its factors or a spec string): the
    direct product of the factors, taken from the left, so A x B x C is
    (A x B) x C."""
    if isinstance(spec, str):
        spec = parse_group_spec(spec)
    _check_order(spec, max_order)
    return reduce(_build_product, (_FAMILIES[t.kind].build(t.param) for t in spec))


# ---------------------------------------------------------------------------
# conjugacy classes


@dataclass(frozen=True)
class ClassDecomposition:
    classes: tuple[int, ...]  # element-set bitmasks sorted by (size, min element)
    class_of: tuple[int, ...]
    center: int  # bitmask

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(c.bit_count() for c in self.classes)

    def class_mask_of(self, e: int) -> int:
        return self.classes[self.class_of[e]]


def conjugacy_classes(G: FiniteGroup) -> ClassDecomposition:
    n, mul, inv = G.order, G.mul, G.inv
    assigned = [-1] * n
    raw = []
    for e in range(n):
        if assigned[e] >= 0:
            continue
        members = {mul[mul[g][e]][inv[g]] for g in range(n)}
        for m in members:
            assigned[m] = len(raw)
        raw.append(mask_of(members))
    order_keys = sorted(range(len(raw)), key=lambda i: (raw[i].bit_count(), raw[i] & -raw[i], raw[i]))
    classes = tuple(raw[i] for i in order_keys)
    renumber = {old: new for new, old in enumerate(order_keys)}
    class_of = tuple(renumber[c] for c in assigned)
    center = mask_of(e for e in range(n) if classes[class_of[e]].bit_count() == 1)
    return ClassDecomposition(classes, class_of, center)


# ---------------------------------------------------------------------------
# subgroups


@dataclass(frozen=True)
class SubgroupHandle:
    elems: int  # bitmask
    normal: bool
    maximal: bool


def subgroup_closure_mask(G: FiniteGroup, seed: int) -> int:
    """The subgroup generated by the elements of `seed`: in a finite group
    every inverse is a positive power, so it is the identity closed under
    right multiplication by each of them.  On a table not yet known to be
    associative (`FiniteGroup._validate`) it is just that closure."""
    mul = G.mul
    gens = bit_list(seed)
    members = 1
    todo = [0]
    while todo:
        row = mul[todo.pop()]
        for c in map(row.__getitem__, gens):
            if not members >> c & 1:
                members |= 1 << c
                todo.append(c)
    return members


def conjugate_subgroup_mask(G: FiniteGroup, mask: int, g: int) -> int:
    return mask_of(G.conj(g, h) for h in bits(mask))


def _joins(G: FiniteGroup, generators: Sequence[int]) -> dict[int, bool]:
    """Every subgroup generated by a set of the element masks `generators`,
    in (order, mask) order, each mapped to whether it is maximal among them:
    the trivial subgroup, closed under the join with each generator, each
    join closed from the generators that reached it.  The joins of one
    element per cyclic subgroup are all the subgroups; those of the
    conjugacy classes are the normal ones.

    A subgroup h is maximal among them exactly when its joins with the
    generators outside it are one subgroup.  Then h is not the top, which
    holds every generator, and that one join holds h and every generator
    outside it, so it is the top; a k strictly between h and the top would
    hold a generator outside h, whose join with h lies in k.  Conversely,
    when h is maximal each of those joins lies strictly above h, so each is
    the top."""
    found = {1: 0}  # subgroup mask -> the generators that reached it
    joins: dict[int, set[int]] = {}  # subgroup mask -> its joins
    queue = [1]
    while queue:
        h = queue.pop()
        above = joins[h] = set()
        for c in generators:
            if c | h != h:
                k = subgroup_closure_mask(G, found[h] | c)
                above.add(k)
                if k not in found:
                    found[k] = found[h] | c
                    queue.append(k)
    return {m: len(joins[m]) == 1 for m in sorted(found, key=lambda m: (m.bit_count(), m))}


def all_subgroups(G: FiniteGroup) -> list[SubgroupHandle]:
    """Every subgroup of G, sorted by (order, mask), with its flags: normal
    when it is a union of conjugacy classes, maximal when it is proper and
    every join with an element outside it is G (`_joins`)."""
    cyclic = {subgroup_closure_mask(G, 1 << g): 1 << g for g in range(G.order)}
    flags = _joins(G, list(cyclic.values()))
    classes = conjugacy_classes(G).classes
    return [
        SubgroupHandle(m, normal=all(c & m in (0, c) for c in classes), maximal=maximal)
        for m, maximal in flags.items()
    ]


def core_and_normalizer(G: FiniteGroup, mask: int) -> tuple[int, int]:
    """The core of the subgroup `mask`, the meet of its conjugates, and its
    normalizer, as masks."""
    core = (1 << G.order) - 1
    normalizer = 0
    for g in range(G.order):
        cj = conjugate_subgroup_mask(G, mask, g)
        core &= cj
        if cj == mask:
            normalizer |= 1 << g
    return core, normalizer


def subgroup_conjugates(G: FiniteGroup, mask: int) -> frozenset[int]:
    return frozenset(conjugate_subgroup_mask(G, mask, g) for g in range(G.order))


# ---------------------------------------------------------------------------
# normal subgroups and the solvability hierarchy


def normal_subgroups_masks(G: FiniteGroup) -> list[int]:
    """All normal subgroups, the joins of conjugacy classes."""
    return list(_joins(G, conjugacy_classes(G).classes))


def commutator_mask(G: FiniteGroup, a_mask: int, b_mask: int) -> int:
    mul, inv = G.mul, G.inv
    gens = set()
    for a in bits(a_mask):
        for b in bits(b_mask):
            gens.add(mul[mul[mul[a][b]][inv[a]]][inv[b]])
    return subgroup_closure_mask(G, mask_of(gens))


def _series_end(G: FiniteGroup, central: bool) -> int:
    """The last term of the derived series G, [G, G], [[G, G], [G, G]], ...
    or, if `central`, of the lower central series G, [G, G], [[G, G], G], ...:
    the first term that the next commutator leaves unchanged."""
    full = (1 << G.order) - 1
    term = full
    while True:
        nxt = commutator_mask(G, term, full if central else term)
        if nxt == term:
            return term
        term = nxt


def _is_prime(n: int) -> bool:
    return n > 1 and all(n % d for d in range(2, isqrt(n) + 1))


def _chief_series(G: FiniteGroup) -> list[int]:
    """A chief series 1 = N0 < N1 < ... < Nk = G, as masks: the normal
    subgroups walked in (order, mask) order, each appended when it strictly
    contains the last entry N.  The member appended after N is the first
    above N in that order, so of least order among the normal subgroups
    above N, and no normal subgroup lies strictly between the two."""
    series = [1]
    for m in normal_subgroups_masks(G):
        if m != series[-1] and m & series[-1] == series[-1]:
            series.append(m)
    return series


@dataclass(frozen=True)
class GroupProperties:
    """The five flags by which the paper's second claim tells groups apart;
    `group_properties` reads each off one structure."""

    abelian: bool
    nilpotent: bool
    solvable: bool
    supersolvable: bool
    simple: bool


def group_properties(G: FiniteGroup) -> GroupProperties:
    """The flags of G, from one list of conjugacy classes, the two
    commutator series and, for a non-abelian solvable G, one chief series:

    - abelian: every class is a singleton.
    - simple: G != 1 and every non-identity class generates G.  A normal
      subgroup N != 1 holds a whole non-identity class and the subgroup it
      generates, which is then G; conversely the subgroup a class generates
      is normal and not 1.
    - nilpotent, solvable: the lower central, resp. derived, series ends at 1.
    - supersolvable: solvable, and abelian or every factor of the chief
      series of `_chief_series` has prime order.  A finite group has a
      normal series with cyclic factors exactly when its chief factors have
      prime order: every subgroup of a cyclic factor M/N is characteristic
      in it, so normal in G/N, and the series refines to one whose factors
      have prime order, each then a chief factor; the converse is
      immediate.  By Jordan-Hölder, any two chief series have the same
      factor orders, so one series decides."""
    classes = conjugacy_classes(G).classes
    full = (1 << G.order) - 1
    abelian = len(classes) == G.order
    solvable = _series_end(G, central=False) == 1
    supersolvable = solvable and (abelian or all(
        _is_prime(m.bit_count() // n.bit_count())
        for n, m in itertools.pairwise(_chief_series(G))
    ))
    simple = G.order > 1 and all(subgroup_closure_mask(G, c) == full for c in classes if c != 1)
    return GroupProperties(
        abelian, _series_end(G, central=True) == 1, solvable, supersolvable, simple
    )


# ---------------------------------------------------------------------------
# class avoidance


@dataclass(frozen=True)
class ClassAvoidanceReport:
    ok: bool
    witnesses: tuple[tuple[int, int], ...]  # (subgroup mask, avoided class mask)
    detail: str


def check_class_avoidance(
    G: FiniteGroup, subgroups: Sequence[SubgroupHandle]
) -> ClassAvoidanceReport:
    """For every proper subgroup in `subgroups` (G's, from `all_subgroups`),
    find a conjugacy class it misses entirely; stop at the first proper
    subgroup that meets every class, and name it."""
    classes = conjugacy_classes(G).classes
    full = (1 << G.order) - 1
    witnesses = []
    for h in subgroups:
        if h.elems == full:
            continue
        witness = next((c for c in classes if c & h.elems == 0), None)
        if witness is None:
            members = ", ".join(G.labels[e] for e in bits(h.elems))
            detail = f"the proper subgroup {{{members}}} of {G.name} meets every conjugacy class"
            return ClassAvoidanceReport(False, tuple(witnesses), detail)
        witnesses.append((h.elems, witness))
    return ClassAvoidanceReport(True, tuple(witnesses), "every proper subgroup misses a class")
