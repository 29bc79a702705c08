"""Constraint propagation over BDD domains at five strengths.

A State owns a group of variables (set, integer, or multiset blocks —
anything with an ordered `bits` tuple), one domain per variable stored as
a pair (stick, rem) of BDDs whose conjunction is the domain, and a list
of constraint BDDs.  Propagation repeatedly projects each constraint,
conjoined with the current domains, onto each variable of its scope and
folds the projection back into the domain.  The mode decides how much of
the projection is kept:

  domain  the whole projection (strongest; domains are arbitrary BDDs)
  split   same information, but fixed bits are factored into the stick
  bounds  only the newly fixed bits
  card    fixed bits plus a cardinality interval on the rest
  lex     fixed bits plus lexicographic bounds on the rest

Sticks record exact information, so every mode may specialise constraints
against them.  A stick is a cube, a conjunction of literals, so
specialising a constraint to the sticks of its scope, that is quantifying
the stick bits out of its conjunction with them, is a cofactor: the
constraint restricted to the conjoined sticks (NodeStore.cofactor).

Projection divides the scope in halves and quantifies a half away one
variable at a time: each step is one and_exists over that variable's bits
that also conjoins its remainder.  A remainder mentions only its own
variable's bits, so this is exact early quantification over a
conjunctively partitioned product (Burch, Clarke & Long, 1991), and the
product of a half's remainders is never built.

A constraint is retired (marked inactive) once running it again cannot
change a domain: when specialising it leaves TRUE, and, in domain and
split modes, which absorb projections exactly, once at most one variable
of its scope is unfixed, so that the domains imply it.  Bounds, card and
lex keep only an abstraction of the projection, so there a constraint
with non-TRUE specialisation stays active.

All propagators are monotone, hence the fixpoint reached is independent
of queue order.  Every change to a domain, a constraint or its active
flag is trailed as (array, index, old value) so search can backtrack, and
whole propagator runs are memoised on (constraint handle, scope domain
handles) so revisiting a search node is nearly free.  propagate() takes
an optional deadline, checked between runs.

Precondition: each constraint's BDD mentions only bits of the variables
in its scope.  State() checks this once and raises ValueError otherwise,
so a projection onto one variable needs no further quantification.
"""

from __future__ import annotations

import time
from collections import deque

from .analysis import card_bounds, fixed_literals, lex_bounds, split
from .engine import FALSE, TRUE, NodeStore

MODES = ("domain", "bounds", "split", "card", "lex")

_FAIL = ("fail",)  # cache marker


class DeadlineExceeded(Exception):
    """Raised by State.propagate when its deadline has passed."""


def _stray_bit(store: NodeStore, a: int, bits) -> int | None:
    """A variable of a outside bits, or None if there is none.

    A plain traversal: var_set would memoise one frozenset per node.
    """
    var, hi, lo = store._var, store._hi, store._lo
    seen = set()
    stack = [a]
    while stack:
        x = stack.pop()
        if x > 1 and x not in seen:
            if var[x] not in bits:
                return var[x]
            seen.add(x)
            stack.append(hi[x])
            stack.append(lo[x])
    return None


class State:
    """Domains, constraints, trail and propagation queue for one problem."""

    def __init__(self, store: NodeStore, variables, constraints, mode="domain"):
        if mode not in MODES:
            raise ValueError(f"unknown propagation mode {mode!r}")
        self.store = store
        self.mode = mode
        self.vars = list(variables)
        self._index = {id(v): i for i, v in enumerate(self.vars)}
        self.bits = [tuple(v.bits) for v in self.vars]
        self.bitsets = [frozenset(b) for b in self.bits]
        n = len(self.vars)
        self.stick = [TRUE] * n
        self.rem = [TRUE] * n
        self.cons = []
        self.scopes = []
        self.active = []
        self.watch = [[] for _ in range(n)]
        for c in constraints:
            bdd = c.bdd
            scope = tuple(self._index[id(v)] for v in c.scope)
            if bdd == FALSE:
                raise ValueError("constraint is unsatisfiable at build time")
            scope_bits = frozenset().union(*(self.bitsets[vi] for vi in scope))
            stray = _stray_bit(store, bdd, scope_bits)
            if stray is not None:
                raise ValueError(
                    f"constraint {c.name or c!r} mentions bit {stray} outside its scope"
                )
            ci = len(self.cons)
            self.cons.append(bdd)
            self.scopes.append(scope)
            self.active.append(bdd != TRUE)
            for vi in scope:
                self.watch[vi].append(ci)
        self.trail = []
        self.queue = deque()
        self._inq = set()
        self._prop_cache = {}
        self.runs = 0
        self.cache_hits = 0
        self._gc_trigger = self.gc_node_trigger
        # the abstraction of the remainder in card and lex modes
        self._bound = {"card": card_bounds, "lex": lex_bounds}.get(mode)

    # -- trail ---------------------------------------------------------

    def mark(self) -> int:
        return len(self.trail)

    def undo(self, mark: int):
        trail = self.trail
        while len(trail) > mark:
            array, idx, old = trail.pop()
            array[idx] = old
        self.queue.clear()
        self._inq.clear()

    def _set(self, array, idx, value) -> bool:
        """Trail and store array[idx] = value; True if it changed."""
        old = array[idx]
        if old == value:
            return False
        self.trail.append((array, idx, old))
        array[idx] = value
        return True

    # -- memory maintenance --------------------------------------------

    # node-table size above which search triggers a garbage collection,
    # and memo-cache size above which the cache alone is dropped
    gc_node_trigger = 1_500_000
    cache_clear_trigger = 6_000_000

    def gc_roots(self):
        """Every BDD handle this state can still reach, including via undo."""
        roots = set(self.stick)
        roots.update(self.rem)
        roots.update(self.cons)
        active = self.active
        roots.update(old for array, _, old in self.trail if array is not active)
        for v in self.vars:
            expr = getattr(v, "expr", None)
            if expr:
                roots.update(expr)
        return roots

    def maintain(self):
        """Bound memory during long searches.

        Safe at any point between propagator runs; outstanding handles
        not reachable from gc_roots() become invalid after a collection.
        """
        store = self.store
        if store.live_node_count() > self._gc_trigger:
            self._prop_cache.clear()
            store.collect_garbage(self.gc_roots())
            self._gc_trigger = max(self.gc_node_trigger, 2 * store.live_node_count())
        elif store.cache_entries() > self.cache_clear_trigger:
            store.clear_cache()

    # -- inspection ----------------------------------------------------

    def var_index(self, v) -> int:
        return self._index[id(v)]

    def domain_bdd(self, v) -> int:
        vi = v if isinstance(v, int) else self._index[id(v)]
        return self.store.apply_and(self.stick[vi], self.rem[vi])

    def fixed_bit_values(self, v) -> dict[int, bool]:
        """Bit -> forced value over the variable's current domain."""
        return fixed_literals(self.store, self.domain_bdd(v))

    def is_determined(self, v) -> bool:
        return self._fixed(v if isinstance(v, int) else self._index[id(v)])

    # -- queue ---------------------------------------------------------

    def enqueue(self, ci):
        if self.active[ci] and ci not in self._inq:
            self._inq.add(ci)
            self.queue.append(ci)

    def enqueue_all(self):
        for ci in range(len(self.cons)):
            self.enqueue(ci)

    def _wake(self, vi):
        for ci in self.watch[vi]:
            self.enqueue(ci)

    # -- domain updates ------------------------------------------------

    def _put(self, vi, stick, rem):
        """Set variable vi's domain to (stick, rem), waking its watchers
        if either part changed."""
        if self._set(self.stick, vi, stick) | self._set(self.rem, vi, rem):
            self._wake(vi)

    def _absorb(self, vi, delta) -> bool:
        """Fold a projection into variable vi's domain per the mode.

        Returns False on a wipeout.  delta must be satisfiable and range
        over vi's unfixed bits (all bits in domain mode).
        """
        if self.mode == "domain":
            self._put(vi, TRUE, delta)
            return True
        store = self.store
        fixed, rem = split(store, delta)
        stick = store.apply_and(self.stick[vi], fixed)
        if stick == FALSE:
            return False
        if self.mode == "bounds":
            rem = TRUE
        elif self._bound is not None:
            rem = self._bound(store, rem, sorted(self.bitsets[vi] - store.var_set(stick)))
        self._put(vi, stick, rem)
        return True

    def assign(self, v, element, member=True) -> bool:
        """Branch decision: force element in (or out of) set variable v."""
        return self.assign_bit(self._index[id(v)], v.bit(element), member)

    def assign_bit(self, vi, bit, value) -> bool:
        store = self.store
        if self.mode != "domain":
            fixed = fixed_literals(store, self.stick[vi])
            if bit in fixed:
                return fixed[bit] == value
        delta = store.apply_and(self.rem[vi], store.literal(bit, value))
        return delta != FALSE and self._absorb(vi, delta)

    # -- propagation ---------------------------------------------------

    def _project(self, phi, scope):
        """Projections of phi /\\ scope domains onto each scope variable.

        Divide and conquer over the scope: each half is quantified away
        one variable at a time, conjoining that variable's remainder in
        the same and_exists, so every projection costs O(log n) halvings
        and no product of remainders is ever built.  Each remainder
        mentions only its own variable's bits, so this equals quantifying
        the whole half out of its conjunction.  Returns None on a wipeout.

        Each stack entry (p, keep, drop) projects p onto the variables of
        keep after quantifying away those of drop; the left half is
        finished before the right one is started.
        """
        store, rem, bitsets = self.store, self.rem, self.bitsets
        out = {}
        stack = [(phi, list(scope), ())]
        while stack:
            p, keep, drop = stack.pop()
            for vi in reversed(drop):
                p = store.and_exists(bitsets[vi], p, rem[vi])
            if len(keep) == 1:
                out[keep[0]] = store.apply_and(p, rem[keep[0]])
                continue
            m = len(keep) // 2
            left, right = keep[:m], keep[m:]
            stack.append((p, right, left))
            stack.append((p, left, right))
        if any(out[vi] == FALSE for vi in scope):
            return None
        return out

    def _fixed(self, vi) -> bool:
        """Whether variable vi's domain is a single value.

        In every mode the stick and the remainder mention disjoint bits,
        so the domain is one value exactly when both are cubes whose
        literals together cover every bit.
        """
        hi, lo = self.store._hi, self.store._lo
        n = len(self.bits[vi])
        for a in (self.stick[vi], self.rem[vi]):
            while a > 1:
                if hi[a] == FALSE:
                    a = lo[a]
                elif lo[a] == FALSE:
                    a = hi[a]
                else:
                    return False
                n -= 1
        return n == 0

    def _run(self, ci) -> bool:
        store = self.store
        cbdd = self.cons[ci]
        scope = self.scopes[ci]
        key = (cbdd, tuple((self.stick[vi], self.rem[vi]) for vi in scope))
        cached = self._prop_cache.get(key)
        if cached is not None:
            self.cache_hits += 1
            if cached is _FAIL:
                return False
            new_con, still_active, pairs = cached
            self._set(self.cons, ci, new_con)
            self._set(self.active, ci, still_active)
            for vi, (s, r) in zip(scope, pairs):
                self._put(vi, s, r)
            return True
        self.runs += 1
        phi = cbdd
        if self.mode != "domain":
            sticks = [self.stick[vi] for vi in scope if self.stick[vi] != TRUE]
            if sticks:
                phi = store.cofactor(phi, store.conjoin(sticks))
                if phi == FALSE:
                    self._prop_cache[key] = _FAIL
                    return False
                self._set(self.cons, ci, phi)
        if phi == TRUE:
            self._set(self.active, ci, False)
            self._prop_cache[key] = (phi, False, key[1])
            return True
        deltas = self._project(phi, scope)
        if deltas is None:
            self._prop_cache[key] = _FAIL
            return False
        for vi in scope:
            if not self._absorb(vi, deltas[vi]):
                self._prop_cache[key] = _FAIL
                return False
        still_active = self.active[ci]
        if (
            still_active
            and self.mode in ("domain", "split")
            and sum(not self._fixed(vi) for vi in scope) <= 1
        ):
            # these two modes absorb the projections exactly, so once at
            # most one scope variable is unfixed the domains imply the
            # constraint and running it again cannot change them
            self._set(self.active, ci, False)
            still_active = False
        pairs = tuple((self.stick[vi], self.rem[vi]) for vi in scope)
        self._prop_cache[key] = (self.cons[ci], still_active, pairs)
        return True

    def propagate(self, deadline: float | None = None) -> bool:
        """Run the queue to fixpoint.  False means failure (domain wipeout).

        With a deadline, a time.perf_counter() value, the clock is read
        before each propagator run and DeadlineExceeded is raised once it
        reaches the deadline.  Runs are never cut short, so the state is
        then consistent: undo() backtracks it, and propagate() resumes the
        queue where it stopped.
        """
        while self.queue:
            if deadline is not None and time.perf_counter() >= deadline:
                raise DeadlineExceeded
            ci = self.queue.popleft()
            self._inq.discard(ci)
            if not self.active[ci]:
                continue
            if not self._run(ci):
                self.queue.clear()
                self._inq.clear()
                return False
        return True

    def propagate_from_scratch(self) -> bool:
        self.enqueue_all()
        return self.propagate()
