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
    cols = zip(*(store.new_vars(len(names)) for _ in universe.elements))
    return [SetVar(n, c, universe) for n, c in zip(names, cols)]


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
    return store.cube({b: i in d for i, b in enumerate(v.bits, 1)})


def _elementwise(store, universe, fn) -> int:
    return store.conjoin(fn(i) for i in reversed(range(universe.n)))


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
        lambda i: store.apply_xor(store.literal(u.bits[i]), store.literal(v.bits[i])),
    )


def neq(store, u: SetVar, v: SetVar) -> int:
    return store.negate(eq(store, u, v))


def _count(node, xs, l: int, u: int) -> int:
    """BDD true iff between l and u of the conditions xs hold.

    node(x, t, f) branches on one condition: t if it holds, f otherwise.
    Built a row at a time from the last condition up, without recursion,
    so no length of xs reaches the recursion limit: row[d] is the BDD
    over xs[i:] when d of xs[:i] hold, and below is the row of xs[i + 1:].
    """
    xs = list(xs)
    n = len(xs)
    if u < 0 or n < l:
        return FALSE
    if l <= 0 and n <= u:
        return TRUE
    below = [TRUE if l <= d <= u else FALSE for d in range(min(n, u + 1) + 1)]
    for i in reversed(range(n)):
        left = n - i  # conditions from xs[i] on
        row = []
        for d in range(min(i, u + 1) + 1):
            if d > u or d + left < l:
                row.append(FALSE)
            elif l <= d and d + left <= u:
                row.append(TRUE)
            else:
                row.append(node(xs[i], below[d + 1], below[d]))
        below = row
    return below[0]


def card(store, bits, l: int, u: int) -> int:
    """BDD true iff the number of true bits among `bits` lies in [l, u].

    `bits` must be in strictly increasing variable order, else ValueError.
    """
    bits = list(bits)
    if any(a >= b for a, b in zip(bits, bits[1:])):
        raise ValueError(f"card bits {bits} are not strictly increasing")
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
    return _elementwise(
        store, vs[0].universe, lambda i: card(store, sorted(v.bits[i] for v in vs), 1, 1)
    )


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
