"""Set variables over a finite universe and their constraint encodings.

A set variable over universe {1..N} is a block of N Boolean variables,
bit i standing for "element i is in the set".  Blocks for the variables of
one model are allocated in an interleaved element-major order: all bits
for element 1 (one per set variable), then all bits for element 2, and so
on.  That interleaving keeps every element-wise constraint encoding linear
in N.
"""

from __future__ import annotations

from dataclasses import dataclass

from .engine import FALSE, TRUE, NodeStore


@dataclass(frozen=True)
class Universe:
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("universe must have at least one element")

    @property
    def elements(self) -> range:
        return range(1, self.n + 1)


class SetVar:
    """A set variable: a named, ordered block of membership bits."""

    __slots__ = ("name", "bits", "universe")

    def __init__(self, name: str, bits: tuple[int, ...], universe: Universe):
        self.name = name
        self.bits = bits
        self.universe = universe

    def bit(self, element: int) -> int:
        """The Boolean variable for the proposition `element in self`."""
        if not 1 <= element <= self.universe.n:
            raise ValueError(f"element {element} outside universe 1..{self.universe.n}")
        return self.bits[element - 1]

    def __repr__(self):
        return f"SetVar({self.name})"


@dataclass
class ConstraintBdd:
    """A constraint as a BDD plus the variables it ranges over."""

    bdd: int
    scope: tuple = ()
    name: str = ""


def alloc_set_vars(store: NodeStore, universe: Universe, names) -> list[SetVar]:
    """Allocate set variables with the interleaved element-major order."""
    names = list(names)
    cols = [[] for _ in names]
    for _elem in universe.elements:
        for j in range(len(names)):
            cols[j].append(store.new_var())
    return [SetVar(n, tuple(c), universe) for n, c in zip(names, cols)]


# ----------------------------------------------------------------------
# primitive constraints (elementwise encodings)


def member(store, k: int, v: SetVar) -> int:
    return store.literal(v.bit(k))


def not_member(store, k: int, v: SetVar) -> int:
    return store.literal(v.bit(k), positive=False)


def eq_const(store, v: SetVar, d) -> int:
    d = set(d)
    if not d <= set(v.universe.elements):
        raise ValueError(f"{sorted(d)} is not a subset of the universe")
    # build the stick bottom-up so each mk_node call is ordered
    acc = TRUE
    for i in reversed(range(v.universe.n)):
        if (i + 1) in d:
            acc = store.mk_node(v.bits[i], acc, FALSE)
        else:
            acc = store.mk_node(v.bits[i], FALSE, acc)
    return acc


def _elementwise(store, universe, fn) -> int:
    acc = TRUE
    for i in reversed(range(universe.n)):
        acc = store.apply_and(fn(i), acc)
    return acc


def eq(store, u: SetVar, v: SetVar) -> int:
    return _elementwise(
        store, u.universe,
        lambda i: store.apply_iff(store.literal(u.bits[i]), store.literal(v.bits[i])),
    )


def subseteq(store, u: SetVar, v: SetVar) -> int:
    return _elementwise(
        store, u.universe,
        lambda i: store.apply_imp(store.literal(u.bits[i]), store.literal(v.bits[i])),
    )


def union_eq(store, u: SetVar, v: SetVar, w: SetVar) -> int:
    return _elementwise(
        store, u.universe,
        lambda i: store.apply_iff(
            store.literal(u.bits[i]),
            store.apply_or(store.literal(v.bits[i]), store.literal(w.bits[i])),
        ),
    )


def inter_eq(store, u: SetVar, v: SetVar, w: SetVar) -> int:
    return _elementwise(
        store, u.universe,
        lambda i: store.apply_iff(
            store.literal(u.bits[i]),
            store.apply_and(store.literal(v.bits[i]), store.literal(w.bits[i])),
        ),
    )


def diff_eq(store, u: SetVar, v: SetVar, w: SetVar) -> int:
    return _elementwise(
        store, u.universe,
        lambda i: store.apply_iff(
            store.literal(u.bits[i]),
            store.apply_and(
                store.literal(v.bits[i]), store.literal(w.bits[i], positive=False)
            ),
        ),
    )


def complement_eq(store, u: SetVar, v: SetVar) -> int:
    return _elementwise(
        store, u.universe,
        lambda i: store.negate(
            store.apply_iff(store.literal(u.bits[i]), store.literal(v.bits[i]))
        ),
    )


def neq(store, u: SetVar, v: SetVar) -> int:
    return store.negate(eq(store, u, v))


def _count(node, xs, l: int, u: int) -> int:
    """BDD true iff between l and u of the conditions xs hold.

    node(x, t, f) branches on one condition: t if it holds, f otherwise.
    """
    xs = list(xs)
    n = len(xs)
    memo = {}

    def rec(i, l, u):
        if u < 0:
            return FALSE
        rem = n - i
        if l <= 0 and rem <= u:
            return TRUE
        if rem < l:
            return FALSE
        key = (i, l, u)
        r = memo.get(key)
        if r is None:
            r = node(xs[i], rec(i + 1, l - 1, u - 1), rec(i + 1, l, u))
            memo[key] = r
        return r

    try:
        return rec(0, l, u)
    finally:
        # rec refers to itself, and node is bound to the store: clear the
        # cycle so the store is freed once its owner drops it
        rec = None


def card(store, bits, l: int, u: int) -> int:
    """BDD true iff the number of true bits among `bits` lies in [l, u].

    `bits` must be listed in increasing variable order.
    """
    return _count(store.mk_node, bits, l, u)


def card_formulas(store, formulas, l: int, u: int) -> int:
    """Like card, but counting how many of the given formula bits hold.

    Used to encode bounds on |v & w| without a named intermediate
    variable: the membership formulas are substituted into the counting
    structure directly.  `formulas` must be ordered so that formula i only
    mentions variables preceding those of formula i+1.
    """
    return _count(store.ite, formulas, l, u)


def card_eq(store, v: SetVar, k: int) -> int:
    return card(store, v.bits, k, k)


def card_ge(store, v: SetVar, k: int) -> int:
    return card(store, v.bits, k, v.universe.n)


def card_le(store, v: SetVar, k: int) -> int:
    return card(store, v.bits, 0, k)


# ----------------------------------------------------------------------
# ordering and global constraints


def lexlt_bits(store, xs, ys) -> int:
    """Strict lexicographic order on two equal-length lists of bit formulas.

    Position 0 is most significant.
    """
    if len(xs) != len(ys):
        raise ValueError("bit lists must have equal length")
    acc = FALSE
    for x, y in zip(reversed(xs), reversed(ys)):
        lt_here = store.apply_and(store.negate(x), y)
        acc = store.apply_or(lt_here, store.apply_and(store.apply_iff(x, y), acc))
    return acc


def lexlt(store, v: SetVar, w: SetVar) -> int:
    """v strictly before w in lexicographic order of characteristic vectors.

    Bit 1 (element 1) is most significant.
    """
    xs = [store.literal(b) for b in v.bits]
    ys = [store.literal(b) for b in w.bits]
    return lexlt_bits(store, xs, ys)


def lexle(store, v: SetVar, w: SetVar) -> int:
    return store.negate(lexlt(store, w, v))


def partition(store, vs) -> int:
    """The sets vs form a partition of the universe.

    Equivalent to conjoining pairwise-empty intersections with a chained
    union covering the universe and projecting out the intermediates; the
    elementwise exactly-one form built here is the same canonical BDD.
    """
    vs = list(vs)
    if not vs:
        raise ValueError("partition needs at least one variable")
    universe = vs[0].universe
    acc = TRUE
    for i in reversed(range(universe.n)):
        lits = [store.literal(v.bits[i]) for v in vs]
        exactly_one = FALSE
        for j in range(len(lits)):
            term = TRUE
            for k in reversed(range(len(lits))):
                term = store.apply_and(lits[k] if k == j else store.negate(lits[k]), term)
            exactly_one = store.apply_or(exactly_one, term)
        acc = store.apply_and(exactly_one, acc)
    return acc


def partition_lex(store, vs) -> int:
    """Partition plus strict lexicographic ordering of consecutive blocks."""
    vs = list(vs)
    acc = partition(store, vs)
    for a, b in zip(vs, vs[1:]):
        acc = store.apply_and(acc, lexlt(store, a, b))
    return acc


def inter_card_atmost(store, v: SetVar, w: SetVar, k: int) -> int:
    """|v & w| <= k, with the intersection eliminated internally."""
    formulas = [
        store.apply_and(store.literal(bv), store.literal(bw))
        for bv, bw in zip(v.bits, w.bits)
    ]
    return card_formulas(store, formulas, 0, k)
