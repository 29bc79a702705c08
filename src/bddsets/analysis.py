"""Domain abstraction: fixed bits, cardinality bounds, lexicographic bounds.

These operations turn an arbitrary domain BDD into a (usually much
smaller) BDD that over-approximates it, and are what distinguishes the
weaker propagation regimes from full domain propagation.
"""

from __future__ import annotations

from .engine import FALSE, TRUE, NodeStore
from .sets import card

# tags of this module's entries in the store's side table (engine's
# var_set uses 0)
_SIDE_FIXED_LITS = 1
_SIDE_COUNT_CARD = 2

EMPTY_INTERVAL = None  # stands for the <+inf, -inf> pair of the failed domain


class EmptyDomainError(ValueError):
    """Abstraction was asked for on the empty (failed) domain."""


def fixed_literals(store: NodeStore, a: int) -> dict[int, bool]:
    """Map each fixed variable of a to its forced truth value.

    A variable is fixed when it takes the same value in every satisfying
    assignment.  Computed in one memoized pass: each node contributes the
    literal-set valid on all 1-paths through it.
    """
    if a == FALSE:
        raise EmptyDomainError("empty domain has no fixed-variable abstraction")
    cache = store._cache
    var, hi, lo = store._var, store._hi, store._lo

    ALL = True  # sentinel for terminal 1: "every literal holds vacuously"

    def rec(n):
        if n == 1:
            return ALL
        key = n << 2 | _SIDE_FIXED_LITS
        r = cache.get(key)
        if r is not None:
            return r
        v, t, f = var[n], hi[n], lo[n]
        if t == FALSE:
            below = rec(f)
            r = frozenset([(v, False)]) if below is ALL else below | {(v, False)}
        elif f == FALSE:
            below = rec(t)
            r = frozenset([(v, True)]) if below is ALL else below | {(v, True)}
        else:
            rt, rf = rec(t), rec(f)
            if rt is ALL or rf is ALL:
                r = frozenset()
            else:
                r = rt & rf
        cache[key] = r
        return r

    lits = rec(a)
    if lits is ALL:
        return {}
    return dict(lits)


def stick_of(store: NodeStore, literals: dict[int, bool]) -> int:
    """Build the stick BDD for a set of fixed literals."""
    acc = TRUE
    for v in sorted(literals, reverse=True):
        if literals[v]:
            acc = store.mk_node(v, acc, FALSE)
        else:
            acc = store.mk_node(v, FALSE, acc)
    return acc


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

    vs must be sorted in variable order and contain every variable of a.
    Returns EMPTY_INTERVAL (None) when a is unsatisfiable.  Results are
    memoized in the store's side table keyed on (node, remaining suffix
    length) so repeated extraction during one solve stays cheap.
    """
    vs = tuple(vs)
    cache = store._cache
    var, hi, lo = store._var, store._hi, store._lo
    n = len(vs)

    def rec(d, i):
        # i indexes the first still-relevant variable of vs
        if d == FALSE:
            return EMPTY_INTERVAL
        rem = n - i
        if d == TRUE:
            return (0, rem)
        key = (d << 32 | rem) << 2 | _SIDE_COUNT_CARD
        r = cache.get(key, 0)
        if r != 0:
            return r
        if rem == 0:
            raise ValueError("variable of the BDD missing from vs")
        v = var[d]
        if vs[i] > v:
            raise ValueError("vs not sorted or missing a BDD variable")
        if v == vs[i]:
            bt = rec(hi[d], i + 1)
            be = rec(lo[d], i + 1)
            if bt is EMPTY_INTERVAL:
                r = be
            elif be is EMPTY_INTERVAL:
                r = (bt[0] + 1, bt[1] + 1)
            else:
                lt, ut = bt
                le, ue = be
                r = (min(lt + 1, le), max(ut + 1, ue))
        else:
            l, u = rec(d, i + 1)
            r = (l, u + 1)
        cache[key] = r
        return r

    return rec(a, 0)


def card_bounds(store: NodeStore, a: int, vs) -> int:
    """BDD of the cardinality interval of a over bits vs (0 if a is 0)."""
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

    # walk down the bound's one path, then build it bottom-up
    path = []  # (bit, whether the bound keeps only the then-branch)
    d = a
    for b in bs:
        if d == TRUE:
            break
        if d == FALSE:
            raise ValueError("unsatisfiable branch during lex extraction")
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
