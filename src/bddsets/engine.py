"""Reduced ordered binary decision diagram kernel.

Nodes live in a :class:`NodeStore` and are referred to by integer handles.
Handles 0 and 1 are the reserved terminals.  All operations are memoized
on their operand handles, and structural equality of the represented
Boolean functions is handle equality.

The recursions are built once, not on every call: one and/or/xor apply
body, ``negate``, ``cofactor`` and ``var_set`` once per store, and the
``exists`` / ``and_exists`` pair once per quantified variable set.  They
are closures over the store's node arrays and tables, never over the
store itself.  They look an existing node up in the unique table directly
and call the node allocator only on a miss.  The quantifier cores fuse the
disjunction of a quantified level: they call the OR core directly and skip
the else-branch once the then-branch is ``TRUE`` (Brace, Rudell & Bryant,
"Efficient Implementation of a BDD Package", DAC 1990).

Table layout.  Every hot table is a dict from one packed int to a handle:

* the unique table maps ``(v << 32 | t) << 32 | f`` to the node (v, t, f);
* and, or and xor each have a memo keyed ``a << 32 | b`` (a <= b), and
  negate one keyed ``a``;
* each quantifier core has its own ``exists`` memo keyed ``a`` and
  ``and_exists`` memo keyed ``a << 32 | b``, so the variable set is not
  part of the key;
* ``cofactor`` has a memo keyed ``a << 32 | cube``.

A dict holding only ints is never tracked by CPython's cycle collector,
so these tables, millions of entries on long searches, cost the collector
nothing; with tuple keys every full collection walked all of them.  The
memo entries whose values are not handles (``var_set``'s frozensets, and
the fixed literals and cardinality intervals of :mod:`bddsets.analysis`)
share one side table, ``NodeStore._cache``, under keys tagged in their
low two bits.  Handles and variables must stay below 2**32.

Long-running searches can reclaim dead nodes with
:meth:`NodeStore.collect_garbage`, which sweeps everything unreachable
from a caller-supplied root set and recycles the freed table slots; every
memo table is cleared and the quantifier cores are dropped in the same
stroke (:meth:`NodeStore.clear_cache`), so stale handles can never
resurface through a memo hit.  The cores hold on to the store's
containers, so those are cleared in place and never rebound.
"""

from __future__ import annotations

from typing import Iterable

FALSE = 0
TRUE = 1

# Variable label given to the two terminal handles.  Must sort after every
# real variable index so the ordering tests in the recursions need no
# special casing.
_TERMINAL_VAR = 1 << 60

# Tag of var_set's entries in the side table; analysis uses 1 and 2.
_SIDE_SUPPORT = 0

_NO_VARS: frozenset[int] = frozenset()


class NodeLimitExceeded(Exception):
    """Raised when the store grows past its configured node ceiling."""


class OrderingViolation(Exception):
    """A child node's variable does not strictly follow its parent's."""


def _build_kernel(var, hi, lo, unique, free, side, node_limit, debug_checks):
    """Build one store's recursions as closures over its containers.

    Returns the node allocator, the and/or/xor apply cores, the negation,
    cofactor and support cores, a factory for the quantifier cores of one
    variable set, and the memo tables of the fixed cores.
    """
    # With the checks on, every node goes through node() so that each one
    # is checked; otherwise a unique-table hit skips the call.  The cores
    # pass the key they probed with, so a miss packs it only once.
    probe = {} if debug_checks else unique
    memos = []

    def node(key: int, v: int, t: int, f: int) -> int:
        """The node (v, t, f), t != f, whose unique-table key is key."""
        if debug_checks and (var[t] <= v or var[f] <= v):
            raise OrderingViolation(f"children of v{v} not strictly below it")
        r = unique.get(key)
        if r is None:
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
        return t if t == f else node((v << 32 | t) << 32 | f, v, t, f)

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
            r = t if t == f else (probe.get(k := (v << 32 | t) << 32 | f) or node(k, v, t, f))
            memo[key] = r
            return r

        return rec

    and_ = binary(TRUE, FALSE, True)
    or_ = binary(FALSE, TRUE, True)
    xor = binary(FALSE, -1, False)
    not_memo = {}
    cof_memo = {}
    memos += (not_memo, cof_memo)

    def negate(a: int) -> int:
        if a <= 1:
            return 1 - a
        r = not_memo.get(a)
        if r is None:
            v, t, f = var[a], negate(hi[a]), negate(lo[a])
            # a is reduced, so its negated children differ too
            r = probe.get(k := (v << 32 | t) << 32 | f) or node(k, v, t, f)
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
            r = t if t == f else (probe.get(k := (va << 32 | t) << 32 | f) or node(k, va, t, f))
        cof_memo[key] = r
        return r

    def support(a: int) -> frozenset[int]:
        if a <= 1:
            return _NO_VARS
        key = a << 2 | _SIDE_SUPPORT
        r = side.get(key)
        if r is None:
            r = support(hi[a]) | support(lo[a]) | {var[a]}
            side[key] = r
        return r

    def quantifiers(fs: frozenset[int]):
        """The exists and and_exists cores for the variable set fs, and
        their two memo tables."""
        # terminals are labelled above every variable, so they stop the
        # descent too; with fs empty every handle does
        top = max(fs, default=-1)
        ex_memo = {}
        ae_memo = {}

        def exists(a: int) -> int:
            v = var[a]
            if v > top:
                return a
            r = ex_memo.get(a)
            if r is not None:
                return r
            t = exists(hi[a])
            if v in fs:
                r = TRUE if t == TRUE else or_(t, exists(lo[a]))
            else:
                f = exists(lo[a])
                r = t if t == f else (probe.get(k := (v << 32 | t) << 32 | f) or node(k, v, t, f))
            ex_memo[a] = r
            return r

        def and_exists(a: int, b: int) -> int:
            if a == FALSE or b == FALSE:
                return FALSE
            if a == TRUE:
                return exists(b)
            if b == TRUE or a == b:
                return exists(a)
            if a > b:
                a, b = b, a
            va, vb = var[a], var[b]
            v = va if va < vb else vb
            if v > top:
                # no quantified variable can appear below here
                return and_(a, b)
            key = a << 32 | b
            r = ae_memo.get(key)
            if r is not None:
                return r
            if va == vb:
                ta, fa, tb, fb = hi[a], lo[a], hi[b], lo[b]
            elif va < vb:
                ta, fa, tb, fb = hi[a], lo[a], b, b
            else:
                ta, fa, tb, fb = a, a, hi[b], lo[b]
            t = and_exists(ta, tb)
            if v in fs:
                r = TRUE if t == TRUE else or_(t, and_exists(fa, fb))
            else:
                f = and_exists(fa, fb)
                r = t if t == f else (probe.get(k := (v << 32 | t) << 32 | f) or node(k, v, t, f))
            ae_memo[key] = r
            return r

        return exists, and_exists, (ex_memo, ae_memo)

    return mk, and_, or_, xor, negate, cofactor, support, quantifiers, memos


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
        self.node_limit = node_limit
        self.debug_checks = debug_checks
        (
            self._mk,
            self._and,
            self._or,
            self._xor,
            self._not,
            self._cofactor,
            self._support,
            self._new_quantifiers,
            self._memos,
        ) = _build_kernel(
            self._var, self._hi, self._lo, self._unique, self._free,
            self._cache, node_limit, debug_checks,
        )
        # quantified variable set -> its (exists, and_exists, memos) cores
        self._quantifier_cores: dict[frozenset[int], tuple] = {}

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

        The operation memo cache and the quantifier cores are cleared as
        well, since memo entries may name swept handles.  Callers must
        treat any handle not reachable from roots as invalid afterwards.
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
        """Empty every memo table and drop every quantifier core.

        The tables are cleared in place, since the cores hold them; a
        dropped core's own memos are emptied first, so their memory is
        released without waiting for the cycle collector.
        """
        self._cache.clear()
        for memo in self._memos:
            memo.clear()
        for _, _, memos in self._quantifier_cores.values():
            for memo in memos:
                memo.clear()
        self._quantifier_cores.clear()

    def cache_entries(self) -> int:
        """Total number of entries in every memo table and the side table."""
        n = len(self._cache) + sum(map(len, self._memos))
        for _, _, memos in self._quantifier_cores.values():
            n += sum(map(len, memos))
        return n

    def mk_node(self, v: int, t: int, f: int) -> int:
        """Return the unique reduced node for (v, t, f)."""
        return self._mk(v, t, f)

    def literal(self, v: int, positive: bool = True) -> int:
        if positive:
            return self._mk(v, TRUE, FALSE)
        return self._mk(v, FALSE, TRUE)

    def _quantifiers(self, vs: Iterable[int]) -> tuple:
        fs = vs if isinstance(vs, frozenset) else frozenset(vs)
        cores = self._quantifier_cores.get(fs)
        if cores is None:
            cores = self._new_quantifiers(fs)
            self._quantifier_cores[fs] = cores
        return cores

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
        return self.apply_or(self.apply_and(c, t), self.apply_and(self.negate(c), f))

    # ------------------------------------------------------------------
    # quantification

    def exists(self, vs: Iterable[int], a: int) -> int:
        """Existentially quantify every variable of vs out of a."""
        return self._quantifiers(vs)[0](a)

    def and_exists(self, vs: Iterable[int], a: int, b: int) -> int:
        """Compute exists(vs, a AND b) without building the full conjunction."""
        return self._quantifiers(vs)[1](a, b)

    def cofactor(self, a: int, cube: int) -> int:
        """The restriction of a to the literals of cube.

        cube must be a conjunction of literals, such as a stick; the result
        equals and_exists(var_set(cube), a, cube) but needs no quantifier
        core for the cube's variables.
        """
        if self.debug_checks:
            c = cube
            while c > 1:
                if self._hi[c] != FALSE and self._lo[c] != FALSE:
                    raise ValueError(f"handle {cube} is not a cube")
                c = self._hi[c] or self._lo[c]
        return self._cofactor(a, cube)

    # ------------------------------------------------------------------
    # queries

    def var_set(self, a: int) -> frozenset[int]:
        """Set of variables labelling internal nodes of a."""
        return self._support(a)

    def size(self, a: int) -> int:
        """Number of internal (non-terminal) nodes reachable from a."""
        seen = set()
        stack = [a]
        n = 0
        hi, lo = self._hi, self._lo
        while stack:
            x = stack.pop()
            if x <= 1 or x in seen:
                continue
            seen.add(x)
            n += 1
            stack.append(hi[x])
            stack.append(lo[x])
        return n

    def sat_count(self, a: int, over: Iterable[int]) -> int:
        """Number of assignments to `over` satisfying a.

        Variables in `over` that a does not mention contribute a factor 2.
        Every variable of a must be listed in `over`.
        """
        over = tuple(sorted(over))
        pos = {v: i for i, v in enumerate(over)}
        n = len(over)
        var, hi, lo = self._var, self._hi, self._lo
        memo: dict[int, int] = {}

        def rec(a: int) -> tuple[int, int]:
            # returns (count, level) where level is the index of a's top var
            if a == 0:
                return 0, n
            if a == 1:
                return 1, n
            got = memo.get(a)
            if got is None:
                v = var[a]
                if v not in pos:
                    raise ValueError(f"variable v{v} of the BDD missing from `over`")
                i = pos[v]
                ct, lt = rec(hi[a])
                ce, le = rec(lo[a])
                c = ct * (1 << (lt - i - 1)) + ce * (1 << (le - i - 1))
                got = (c, i)
                memo[a] = got
            return got

        c, lvl = rec(a)
        return c * (1 << lvl)

    def eval_node(self, a: int, assignment: dict[int, bool]) -> bool:
        """Evaluate a under a truth assignment (test helper)."""
        var, hi, lo = self._var, self._hi, self._lo
        while a > 1:
            a = hi[a] if assignment.get(var[a], False) else lo[a]
        return a == 1

    def audit(self) -> None:
        """Verify reducedness and orderedness of every node in the store."""
        freed = set(self._free)
        for h in range(2, len(self._var)):
            if h in freed:
                continue
            v, t, f = self._var[h], self._hi[h], self._lo[h]
            if t == f:
                raise AssertionError(f"redundant test at node {h}")
            if self._var[t] <= v or self._var[f] <= v:
                raise AssertionError(f"ordering violated at node {h}")
            if self._unique.get((v << 32 | t) << 32 | f) != h:
                raise AssertionError(f"unique table inconsistent at node {h}")

    # ------------------------------------------------------------------
    # bulk helpers

    def conjoin(self, nodes: Iterable[int]) -> int:
        r = TRUE
        for n in nodes:
            r = self.apply_and(r, n)
            if r == FALSE:
                return FALSE
        return r

    def disjoin(self, nodes: Iterable[int]) -> int:
        r = FALSE
        for n in nodes:
            r = self.apply_or(r, n)
            if r == TRUE:
                return TRUE
        return r
