"""Domain abstraction: fixed bits, cardinality bounds, lexicographic bounds.

These operations turn an arbitrary domain BDD into a (usually much
smaller) BDD that over-approximates it, and are what distinguishes the
weaker propagation regimes from full domain propagation.
"""

from __future__ import annotations

from math import inf

from .engine import FALSE, TRUE, NodeStore
from .sets import card

# tags of this module's entries in the store's side table
_SIDE_FIXED_LITS = 1
_SIDE_COUNT_CARD = 2

EMPTY_INTERVAL = None  # stands for the <+inf, -inf> pair of the failed domain


class EmptyDomainError(ValueError):
    """Abstraction was asked for on the empty (failed) domain."""


def fixed_literals(store: NodeStore, a: int) -> dict[int, bool]:
    """Map each fixed variable of a to its forced truth value.

    A variable is fixed when it takes the same value in every satisfying
    assignment.  Computed in one memoized pass over a's nodes, children
    first: each node gets the literal set valid on all 1-paths through it.
    """
    if a == FALSE:
        raise EmptyDomainError("empty domain has no fixed-variable abstraction")
    if a == TRUE:
        return {}
    cache = store._cache
    var, hi, lo = store._var, store._hi, store._lo
    tag = _SIDE_FIXED_LITS
    for n in store._nodes(a, tag):
        v, t, f = var[n], hi[n], lo[n]
        if t == FALSE or f == FALSE:
            # one live child: its literals and this node's
            c, lit = (f, (v, False)) if t == FALSE else (t, (v, True))
            r = frozenset([lit]) if c == TRUE else cache[c << 2 | tag] | {lit}
        elif t == TRUE or f == TRUE:
            r = frozenset()
        else:
            r = cache[t << 2 | tag] & cache[f << 2 | tag]
        cache[n << 2 | tag] = r
    return dict(cache[a << 2 | tag])


def stick_of(store: NodeStore, literals: dict[int, bool]) -> int:
    """Build the stick BDD for a set of fixed literals."""
    return store.cube(literals)


# When true, every split re-checks its defining properties: the parts
# reconjoin to the input and together are never larger than it.  Enabled
# by the test suite; off in production, where the check would dominate.
check_split_sizes = False


def split(store: NodeStore, a: int) -> tuple[int, int]:
    """Split a into (stick, remainder) with a == stick & remainder.

    The remainder mentions no fixed variable, and the two parts together
    are never larger than the input.  Every node of a on a fixed variable
    has one FALSE child, so quantifying the fixed variables out of a is
    restricting a to the stick.
    """
    lits = fixed_literals(store, a)
    if not lits:
        return TRUE, a
    stick = stick_of(store, lits)
    rem = store.cofactor(a, stick)
    if check_split_sizes:
        assert store.apply_and(stick, rem) == a
        assert store.size(stick) + store.size(rem) <= store.size(a)
    return stick, rem


def count_cardinality(store: NodeStore, a: int, vs) -> tuple[int, int] | None:
    """Min and max number of true bits among vs over all models of a.

    vs must contain every variable of a, in any order.  Returns
    EMPTY_INTERVAL (None) when a is unsatisfiable.  Each node's fewest
    true and fewest false literals on a 1-path below it are memoized in
    the store's side table; they do not depend on vs, and the interval is
    (fewest trues, len(vs) - fewest falses), since a variable a path does
    not test may take either value.
    """
    if a == FALSE:
        return EMPTY_INTERVAL
    cache = store._cache
    hi, lo = store._hi, store._lo
    tag = _SIDE_COUNT_CARD
    ends = {FALSE: (inf, inf), TRUE: (0, 0)}  # FALSE has no 1-path
    for n in store._nodes(a, tag):
        t, f = hi[n], lo[n]
        tt, tf = ends[t] if t <= TRUE else cache[t << 2 | tag]
        ft, ff = ends[f] if f <= TRUE else cache[f << 2 | tag]
        cache[n << 2 | tag] = min(tt + 1, ft), min(tf, ff + 1)
    trues, falses = ends[a] if a == TRUE else cache[a << 2 | tag]
    return trues, len(vs) - falses


def card_bounds(store: NodeStore, a: int, vs) -> int:
    """BDD of the cardinality interval of a over bits vs (0 if a is 0);
    vs must be strictly increasing and contain every variable of a."""
    vs = tuple(vs)
    interval = count_cardinality(store, a, vs)
    if interval is EMPTY_INTERVAL:
        return FALSE
    l, u = interval
    return card(store, vs, l, u)


def _lex_bound(store: NodeStore, a: int, bs, lower: bool) -> int:
    """One lexicographic bound of a over bits bs.

    The upper bound is the mirror image of the lower one: the same
    recursion with every node's branches swapped, on the way down and in
    the nodes it builds.
    """
    if a == FALSE:
        raise EmptyDomainError("empty domain has no lexicographic bounds")
    bs = tuple(bs)
    var, hi, lo = store._var, store._hi, store._lo
    mk = store.mk_node
    if not lower:
        hi, lo = lo, hi

        def mk(b, t, f):
            return store.mk_node(b, f, t)

    # walk down the bound's one path, then build it bottom-up; d is never
    # FALSE, since it takes hi only when lo is FALSE, and then hi is not
    path = []  # (bit, whether the bound keeps only the then-branch)
    d = a
    for b in bs:
        if d == TRUE:
            break
        v = var[d]
        if b > v:
            raise ValueError("bs not sorted or missing a BDD variable")
        forced = b == v and lo[d] == FALSE
        path.append((b, forced))
        if b == v:
            d = hi[d] if forced else lo[d]
    r = TRUE
    for b, forced in reversed(path):
        r = mk(b, r, FALSE) if forced else mk(b, TRUE, r)
    return r


def lex_lower(store: NodeStore, a: int, bs) -> int:
    """BDD of "bit vector >= lexicographic minimum model of a".

    bs must be sorted in variable order and contain every variable of a.
    The result has at most one node per bit.
    """
    return _lex_bound(store, a, bs, lower=True)


def lex_upper(store: NodeStore, a: int, bs) -> int:
    """BDD of "bit vector <= lexicographic maximum model of a"."""
    return _lex_bound(store, a, bs, lower=False)


def lex_bounds(store: NodeStore, a: int, bs) -> int:
    """Conjunction of the lower and upper lexicographic bounds of a."""
    return store.apply_and(lex_lower(store, a, bs), lex_upper(store, a, bs))
