"""Reduced ordered binary decision diagram kernel.

Nodes live in a :class:`NodeStore` and are referred to by integer handles.
Handles 0 and 1 are the reserved terminals.  All operations are memoized
on their operand handles, and structural equality of the represented
Boolean functions is handle equality.

The recursions are built once, not on every call: one and/or/xor apply
body, ``ite``, ``negate`` and ``cofactor`` once per store, and one
``and_exists`` core per quantified variable set, kept for the store's
life; ``exists`` is that core with a ``TRUE`` operand.  They are closures
over the store's node arrays and tables, never over the store itself, so
those containers are cleared in place and never rebound.  They look an
existing node up in the unique table directly and call the node
allocator only on a miss.
The quantifier cores fuse the disjunction of a quantified level: they
call the OR core directly and skip the else-branch once the then-branch
is ``TRUE`` (Brace, Rudell & Bryant, "Efficient Implementation of a BDD
Package", DAC 1990).  No quantifier core is entered with a ``FALSE``
operand: a child pair with a ``FALSE`` member is ``FALSE`` without a call,
a quantified level disjoins with the OR core only when both halves are
not ``FALSE``, and ``exists`` and ``and_exists`` return ``FALSE`` before
calling the core.

Table layout.  Every hot table is a dict from one packed int to a handle:

* the unique table maps ``(v << 32 | t) << 32 | f`` to the node (v, t, f);
* and, or and xor each have a memo keyed ``a << 32 | b`` (a <= b),
  ite one keyed ``(c << 32 | t) << 32 | f`` and negate one keyed ``a``;
* each quantifier core has its own memo keyed ``a << 32 | b`` (a <= b,
  and ``exists`` keyed with a = ``TRUE``), so the variable set is not
  part of the key;
* ``cofactor`` has a memo keyed ``a << 32 | cube``.

A dict holding only ints is never tracked by CPython's cycle collector,
so these tables, millions of entries on long searches, cost the collector
nothing; with tuple keys every full collection walked all of them.  The
memo entries whose values are not handles share one side table,
``NodeStore._cache``, keyed ``n << 2 | tag`` for node n: tag 1 holds n's
fixed literals and tag 2 the fewest true and the fewest false literals
on a 1-path from n (both for :mod:`bddsets.analysis`).  Handles and
variables must stay below 2**32.  The store owns every memo that can
name a handle, a client's from ``NodeStore.memo()`` too (such as a
propagation state's run memo): ``collect_garbage`` and ``clear_cache``
empty them all in place, and a client's is dropped once its owner is
collected.
"""

from __future__ import annotations

import weakref
from typing import Callable, Iterable

FALSE = 0
TRUE = 1

# Variable label given to the two terminal handles.  Must sort after every
# real variable index so the ordering tests in the recursions need no
# special casing.
_TERMINAL_VAR = 1 << 60

def _drop_memo(memos, memo):
    """Remove memo from memos by identity: two empty memos compare equal."""
    for i, m in enumerate(memos):
        if m is memo:
            del memos[i]
            return

class NodeLimitExceeded(Exception):
    """Raised when the store grows past its configured node ceiling."""


class OrderingViolation(Exception):
    """A child node's variable does not strictly follow its parent's."""


def _build_kernel(var, hi, lo, unique, free, node_limit, debug_checks):
    """Build one store's recursions as closures over its containers."""
    memos = []

    def node(key: int, v: int, t: int, f: int) -> int:
        """Allocate the node (v, t, f), t != f, missing from the unique table at key."""
        if debug_checks and (var[t] <= v or var[f] <= v):
            raise OrderingViolation(f"children of v{v} not strictly below it")
        if free:
            r = free.pop()
            var[r] = v
            hi[r] = t
            lo[r] = f
        else:
            r = len(var)
            if node_limit is not None and r - 2 >= node_limit:
                raise NodeLimitExceeded(f"node ceiling {node_limit} reached")
            var.append(v)
            hi.append(t)
            lo.append(f)
        unique[key] = r
        return r

    def mk(v: int, t: int, f: int) -> int:
        return t if t == f else unique.get(k := (v << 32 | t) << 32 | f) or node(k, v, t, f)

    def binary(unit: int, zero: int, idempotent: bool):
        """Apply core for a commutative operator.

        unit is its identity element, zero its absorbing element (-1 for
        none), and idempotent says whether a op a is a rather than FALSE.
        XOR with TRUE needs no case of its own: it recurses to the
        negation.
        """
        memo = {}
        memos.append(memo)

        def rec(a: int, b: int) -> int:
            if a == unit:
                return b
            if b == unit:
                return a
            if a == zero or b == zero:
                return zero
            if a == b:
                return a if idempotent else FALSE
            if a > b:
                a, b = b, a
            key = a << 32 | b
            r = memo.get(key)
            if r is not None:
                return r
            va, vb = var[a], var[b]
            if va == vb:
                v, t, f = va, rec(hi[a], hi[b]), rec(lo[a], lo[b])
            elif va < vb:
                v, t, f = va, rec(hi[a], b), rec(lo[a], b)
            else:
                v, t, f = vb, rec(hi[b], a), rec(lo[b], a)
            r = t if t == f else unique.get(k := (v << 32 | t) << 32 | f) or node(k, v, t, f)
            memo[key] = r
            return r

        return rec

    and_ = binary(TRUE, FALSE, True)
    or_ = binary(FALSE, TRUE, True)
    xor = binary(FALSE, -1, False)
    ite_memo = {}
    not_memo = {}
    cof_memo = {}
    memos += (ite_memo, not_memo, cof_memo)

    def ite(c: int, t: int, f: int) -> int:
        if c <= 1:
            return t if c else f
        if t == f:
            return t
        if t <= 1 and f <= 1:
            # (TRUE, FALSE) or (FALSE, TRUE)
            return c if t else negate(c)
        key = (c << 32 | t) << 32 | f
        r = ite_memo.get(key)
        if r is not None:
            return r
        vc, vt, vf = var[c], var[t], var[f]
        v = min(vc, vt, vf)
        ct, cf = (hi[c], lo[c]) if vc == v else (c, c)
        tt, tf = (hi[t], lo[t]) if vt == v else (t, t)
        ft, ff = (hi[f], lo[f]) if vf == v else (f, f)
        t, f = ite(ct, tt, ft), ite(cf, tf, ff)
        r = t if t == f else unique.get(k := (v << 32 | t) << 32 | f) or node(k, v, t, f)
        ite_memo[key] = r
        return r

    def negate(a: int) -> int:
        if a <= 1:
            return 1 - a
        r = not_memo.get(a)
        if r is None:
            v, t, f = var[a], negate(hi[a]), negate(lo[a])
            # a is reduced, so its negated children differ too
            r = unique.get(k := (v << 32 | t) << 32 | f) or node(k, v, t, f)
            not_memo[a] = r
        return r

    def cofactor(a: int, c: int) -> int:
        # c is a cube: each of its nodes has one FALSE child, so the other
        # child is `hi[c] or lo[c]`; cube variables above a's top are skipped
        va, vc = var[a], var[c]
        while vc < va:
            c = hi[c] or lo[c]
            vc = var[c]
        if c <= 1:
            return a if c else FALSE
        key = a << 32 | c
        r = cof_memo.get(key)
        if r is not None:
            return r
        if va == vc:
            t = hi[c]
            r = cofactor(lo[a], lo[c]) if t == FALSE else cofactor(hi[a], t)
        else:
            t, f = cofactor(hi[a], c), cofactor(lo[a], c)
            r = t if t == f else unique.get(k := (va << 32 | t) << 32 | f) or node(k, va, t, f)
        cof_memo[key] = r
        return r

    def quantifiers(fs: frozenset[int]):
        """The and_exists core for the variable set fs, its memo registered.

        exists(fs, a) is and_exists(TRUE, a): a TRUE operand sorts first
        and is never descended into, so the core walks a alone.
        """
        # terminals are labelled above every variable, so they stop the
        # descent too; with fs empty every handle does
        top = max(fs, default=-1)
        memo = {}
        memos.append(memo)

        def and_exists(a: int, b: int) -> int:
            # neither operand is FALSE: callers return FALSE themselves
            if a == b:
                a = TRUE
            elif a > b:
                a, b = b, a
            va, vb = var[a], var[b]
            v = va if va < vb else vb
            if v > top:
                # no quantified variable can appear below here
                return and_(a, b)
            key = a << 32 | b
            r = memo.get(key)
            if r is not None:
                return r
            if va == vb:
                ta, fa, tb, fb = hi[a], lo[a], hi[b], lo[b]
            elif va < vb:
                ta, fa, tb, fb = hi[a], lo[a], b, b
            else:
                ta, fa, tb, fb = a, a, hi[b], lo[b]
            t = ta and tb and and_exists(ta, tb)
            if v in fs:
                if t == TRUE:
                    r = TRUE
                else:
                    f = fa and fb and and_exists(fa, fb)
                    r = or_(t, f) if t and f else t or f
            else:
                f = fa and fb and and_exists(fa, fb)
                r = t if t == f else unique.get(k := (v << 32 | t) << 32 | f) or node(k, v, t, f)
            memo[key] = r
            return r

        return and_exists

    return mk, and_, or_, xor, ite, negate, cofactor, quantifiers, memos


class NodeStore:
    """Unique table, operation caches and variable allocator for one solve.

    A store and everything referencing it belong to a single thread of
    control; there is no internal synchronization.  node_limit and
    debug_checks are fixed when the store is made.
    """

    def __init__(self, node_limit: int | None = None, debug_checks: bool = False):
        # parallel arrays indexed by handle; entries 0/1 are the terminals
        self._var = [_TERMINAL_VAR, _TERMINAL_VAR]
        self._hi = [0, 1]
        self._lo = [0, 1]
        self._unique: dict[int, int] = {}
        self._free: list[int] = []
        # the side table: memo entries whose values are not handles
        self._cache: dict = {}
        self._num_vars = 0
        self.debug_checks = debug_checks
        (
            self._mk,
            self._and,
            self._or,
            self._xor,
            self._ite,
            self._not,
            self._cofactor,
            self._new_quantifiers,
            self._memos,
        ) = _build_kernel(
            self._var, self._hi, self._lo, self._unique, self._free,
            node_limit, debug_checks,
        )
        # quantified variable set -> its and_exists core
        self._quantifier_cores: dict[frozenset[int], Callable[[int, int], int]] = {}

    def __del__(self):
        # The cores are self-recursive closures, so they outlive the store
        # until the cycle collector runs; emptying the tables they hold
        # releases the memory at once.
        self._var.clear()
        self._hi.clear()
        self._lo.clear()
        self._unique.clear()
        self.clear_cache()

    # ------------------------------------------------------------------
    # variables and nodes

    def new_var(self) -> int:
        """Allocate the next variable in the global order and return its id."""
        v = self._num_vars
        self._num_vars += 1
        return v

    def new_vars(self, count: int) -> list[int]:
        return [self.new_var() for _ in range(count)]

    def node_count(self) -> int:
        """Size of the node table (live nodes plus recyclable slots)."""
        return len(self._var) - 2

    def live_node_count(self) -> int:
        return len(self._var) - 2 - len(self._free)

    def collect_garbage(self, roots: Iterable[int]) -> int:
        """Reclaim every node unreachable from roots; return the number freed.

        Every table clear_cache empties is emptied too, since its entries
        may name swept handles.  Callers must treat any handle not
        reachable from roots as invalid afterwards.
        """
        var, hi, lo = self._var, self._hi, self._lo
        live = bytearray(len(var))
        live[FALSE] = live[TRUE] = 1
        stack = list(roots)
        while stack:
            n = stack.pop()
            if live[n]:
                continue
            live[n] = 1
            stack.append(hi[n])
            stack.append(lo[n])
        dead = [
            (key, r) for key, r in self._unique.items() if not live[r]
        ]
        for key, r in dead:
            del self._unique[key]
            var[r] = -1  # poison: any parent check on a stale child fails
            self._free.append(r)
        self.clear_cache()
        return len(dead)

    def clear_cache(self) -> None:
        """Empty, in place, the side table, every core's memo and every
        memo() a client took; the cores themselves are kept."""
        self._cache.clear()
        for memo in self._memos:
            memo.clear()

    def cache_entries(self) -> int:
        """Total number of entries in every memo table and the side table."""
        return len(self._cache) + sum(map(len, self._memos))

    def memo(self, owner) -> dict:
        """A new memo for a client, emptied with the store's own and
        dropped once owner is collected."""
        memo = {}
        self._memos.append(memo)
        weakref.finalize(owner, _drop_memo, self._memos, memo)
        return memo

    def mk_node(self, v: int, t: int, f: int) -> int:
        """Return the unique reduced node for (v, t, f)."""
        return self._mk(v, t, f)

    def literal(self, v: int, positive: bool = True) -> int:
        if positive:
            return self._mk(v, TRUE, FALSE)
        return self._mk(v, FALSE, TRUE)

    def cube(self, literals: dict[int, bool]) -> int:
        """The conjunction of the literals, given as variable -> value."""
        r = TRUE
        for v in sorted(literals, reverse=True):
            r = self._mk(v, r, FALSE) if literals[v] else self._mk(v, FALSE, r)
        return r

    # ------------------------------------------------------------------
    # Boolean combinators

    def apply_and(self, a: int, b: int) -> int:
        return self._and(a, b)

    def apply_or(self, a: int, b: int) -> int:
        return self._or(a, b)

    def apply_xor(self, a: int, b: int) -> int:
        return self._xor(a, b)

    def apply_iff(self, a: int, b: int) -> int:
        return self.negate(self.apply_xor(a, b))

    def apply_imp(self, a: int, b: int) -> int:
        return self.apply_or(self.negate(a), b)

    def negate(self, a: int) -> int:
        return self._not(a)

    def ite(self, c: int, t: int, f: int) -> int:
        return self._ite(c, t, f)

    # ------------------------------------------------------------------
    # quantification

    def _and_exists(self, vs: Iterable[int]):
        fs = vs if isinstance(vs, frozenset) else frozenset(vs)
        core = self._quantifier_cores.get(fs)
        if core is None:
            core = self._quantifier_cores[fs] = self._new_quantifiers(fs)
        return core

    def exists(self, vs: Iterable[int], a: int) -> int:
        """Existentially quantify every variable of vs out of a."""
        return a and self._and_exists(vs)(TRUE, a)

    def and_exists(self, vs: Iterable[int], a: int, b: int) -> int:
        """Compute exists(vs, a AND b) without building the full conjunction."""
        return a and b and self._and_exists(vs)(a, b)

    def cofactor(self, a: int, cube: int) -> int:
        """The restriction of a to the literals of cube.

        cube must be a conjunction of literals, such as a stick; the result
        equals and_exists(var_set(cube), a, cube) but needs no quantifier
        core for the cube's variables.
        """
        if self.debug_checks and self.cube_literals(cube) is None:
            raise ValueError(f"handle {cube} is not a cube")
        return self._cofactor(a, cube)

    # ------------------------------------------------------------------
    # queries

    def cube_literals(self, a: int) -> dict[int, bool] | None:
        """The literals of the cube a as variable -> value, or None if a is
        not a conjunction of literals.  Both terminals give no literals."""
        var, hi, lo = self._var, self._hi, self._lo
        lits = {}
        while a > 1:
            if hi[a] == FALSE:
                lits[var[a]] = False
                a = lo[a]
            elif lo[a] == FALSE:
                lits[var[a]] = True
                a = hi[a]
            else:
                return None
        return lits

    def _nodes(self, a: int, tag: int = 0) -> list[int]:
        """The internal nodes reachable from a, each after its children.

        They are sorted by variable, last in the order first, and a
        child's variable follows its parent's.  With a tag, a node that
        has a side-table entry under that tag is neither listed nor
        descended below, so a caller filling that entry for each listed
        node finds every child's entry filled.  The walk keeps its own
        stack, so no depth reaches the recursion limit.
        """
        hi, lo, cache = self._hi, self._lo, self._cache
        seen, stack = set(), [a]
        while stack:
            x = stack.pop()
            if x > 1 and x not in seen and not (tag and (x << 2 | tag) in cache):
                seen.add(x)
                stack.append(hi[x])
                stack.append(lo[x])
        return sorted(seen, key=self._var.__getitem__, reverse=True)

    def var_set(self, a: int) -> frozenset[int]:
        """Set of variables labelling internal nodes of a."""
        return frozenset(map(self._var.__getitem__, self._nodes(a)))

    def size(self, a: int) -> int:
        """Number of internal (non-terminal) nodes reachable from a."""
        return len(self._nodes(a))

    def sat_count(self, a: int, over: Iterable[int]) -> int:
        """Number of assignments to `over` satisfying a.

        Variables in `over` that a does not mention contribute a factor 2.
        Every variable of a must be listed in `over`, and none twice.
        """
        over = tuple(sorted(over))
        pos = {v: i for i, v in enumerate(over)}
        n = len(over)
        if len(pos) != n:
            raise ValueError("a variable is listed twice in `over`")
        var, hi, lo = self._var, self._hi, self._lo
        # node -> (models over the variables of `over` from its own on,
        # the index of its variable)
        got = {FALSE: (0, n), TRUE: (1, n)}
        for x in self._nodes(a):
            i = pos.get(var[x])
            if i is None:
                raise ValueError(f"variable v{var[x]} of the BDD missing from `over`")
            ct, lt = got[hi[x]]
            ce, le = got[lo[x]]
            got[x] = (ct << (lt - i - 1)) + (ce << (le - i - 1)), i
        c, i = got[a]
        return c << i

    # ------------------------------------------------------------------
    # bulk helpers

    def conjoin(self, nodes: Iterable[int]) -> int:
        r = TRUE
        for n in nodes:
            r = self.apply_and(r, n)
            if r == FALSE:
                return FALSE
        return r
