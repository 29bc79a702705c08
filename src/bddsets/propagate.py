"""Constraint propagation over BDD domains at five strengths.

A State owns a group of variables (set, integer, or multiset blocks —
anything with an ordered `bits` tuple), one domain per variable stored as
a pair (stick, rem) of BDDs whose conjunction is the domain, and a list
of constraint BDDs.  The stick is a cube of the fixed bits and the
remainder ranges over the others.  Propagation repeatedly projects each
constraint, conjoined with the current domains, onto each variable of its
scope and folds the projection back into the domain: its fixed bits
extend the stick, and the mode decides how much of the rest is kept:

  domain, split  all of it (exact; the two names run one propagator)
  bounds         nothing: only the newly fixed bits
  card           a cardinality interval on the unfixed bits
  lex            lexicographic bounds on the unfixed bits

In every mode the remainder fixes no bit, so the stick alone gives a
domain's fixed bits, and the domain is one value exactly when its
remainder is TRUE and its stick fixes every bit.  _absorb splits every
projection, so the remainder it keeps has no fixed literal; a bounds
remainder is TRUE; a cardinality interval over m free bits fixes a bit
only if it is [m, m] or [0, 0], and a remainder with no fixed bit has
neither; and a lexicographic interval fixes exactly the common prefix of
its minimum and maximum, a prefix that would be fixed in the remainder.
So a remainder is the fixpoint of its own update, since card and lex
abstract an interval to itself: _absorb handed it returns at once.

Sticks record exact information, so every mode specialises constraints
against them: quantifying a cube's bits out of its conjunction with a
constraint is a cofactor.  Sticks of different variables range over
disjoint bits, so a run cofactors by each stick in turn.  In bounds mode
every remainder is TRUE, so a bit is fixed in the projection of a
specialised constraint onto its variable exactly when it is fixed in the
constraint itself: a bounds run reads the constraint's fixed literals
into the sticks and projects nothing.

Most constraints have a two-variable scope, and _project halves a pair
into its two variables: the projection onto each is one and_exists,
which quantifies the other variable out of its conjunction with the
constraint, then one apply_and with its own remainder.  Longer scopes are
halved down to single variables the same way, and the first empty
projection ends the run as a failure, since then every other projection
is empty too.

A constraint c is retired, replaced by TRUE, once running it again
cannot change a domain: when specialising it leaves TRUE, and, in domain
and split modes, which absorb projections exactly, once at most one scope
variable is unfixed.  The domains D then imply c, so c /\\ D' = D' for
every D' <= D, and undo restores c.

All propagators are monotone, hence the fixpoint reached is independent
of queue order.  Every change is trailed so search can backtrack, and
whole runs are memoised.  The run memo maps one packed int (the index ci,
then each scope variable's stick and remainder in scope order, 32 bits
per handle) to -1 for a failure, or to one packed int in the same layout:
the constraint after the run, then the domains it left; with ints alone
the cycle collector never tracks it.  A replay whose domains are the
key's restores only the constraint.  The index names the constraint
exactly, since by the invariants below a run's result depends only on ci
and the scope's domains.

The run memo also holds each domain update of _absorb, keyed
(delta << 32 | stick) << 32 | vi, in [2**64, 2**96), with value
new stick << 32 | new remainder: for one store and mode the update is a
pure function of those three (vi is there because delta = stick = TRUE
names no variable).  A run key is 2**32 | ci for an empty scope, or at
least 2**96, so the kinds never collide, and the store empties both
with its memos: a recycled handle never returns through a hit.

Every constraint that is neither TRUE nor on the queue is at its fixpoint
and specialised by its scope's sticks: a cofactor by one changes nothing.
A queued one that one variable v alone woke is specialised by every stick
but v's.  State() queues every constraint but TRUE; a run wakes the
watchers of each variable it changes except its own constraint, which it
leaves at its fixpoint, cofactored by the sticks it changed; a replay
restores what a run left; a run that fails or is cut short by an
exception queues its constraint again, so a failed state stays failed
until an undo; and undo() restores the constraints and the queue that
mark() saw.  So a queued constraint is never TRUE: nothing queues a TRUE
one, and only its own run or replay, off the queue, changes it.

A run is at its own fixpoint in every mode.  Let P_x be the projection of
the constraint conjoined with the product of the domains D onto scope
variable x.  After the run P_x <= D'_x <= D_x for every x: domain and
split keep P_x, and the bounds, card and lex abstractions contain it and
lie within D_x.  Every tuple supporting a value of P_x lies in the
product of the P, hence of the D', so a second run would project the
same P_x and absorb the same domains, and only specialise the constraint
to the new sticks (Schulte & Stuckey, "Efficient Constraint Propagation
Engines", TOPLAS 2008, on idempotent propagators).

A queued constraint records the variable that woke it, or -1 when more
than one did or it was queued otherwise.  A run woken by v alone
cofactors its constraint by v's stick alone, which by the invariant gives
the handle that cofactoring by every stick gives.  Projection is
idempotent, so shrinking only v's domain leaves the projection onto v
equal to that domain: domain and split modes skip that projection.
Bounds, card and lex never skip it, since there a stick can prune its own
variable: with c = not(x1 and x2), fixing x1 fixes x2 through c.
"""

from __future__ import annotations

import time
from collections import deque

from .analysis import card_bounds, fixed_literals, lex_bounds, split
from .engine import FALSE, TRUE, NodeStore

MODES = ("domain", "bounds", "split", "card", "lex")

class DeadlineExceeded(Exception):
    """Raised by State.propagate when its deadline has passed."""


class State:
    """Domains, constraints, trail and propagation queue for one problem."""

    def __init__(self, store: NodeStore, variables, constraints, mode=MODES[0]):
        if mode not in MODES:
            raise ValueError(f"unknown propagation mode {mode!r}")
        self.store = store
        self.mode = mode
        self.vars = list(variables)
        self._index = {}
        for i, v in enumerate(self.vars):
            if self._index.setdefault(id(v), i) != i:
                raise ValueError(f"variable {v!r} is listed twice")
        self.bits = [tuple(v.bits) for v in self.vars]
        self.bitsets = [frozenset(b) for b in self.bits]
        n = len(self.vars)
        self.stick = [TRUE] * n
        self.rem = [TRUE] * n
        self.cons = []
        self.scopes = []
        self.watch = [[] for _ in range(n)]
        for c in constraints:
            bdd = c.bdd
            name = c.name or repr(c)
            scope = tuple(self._index.get(id(v), -1) for v in c.scope)
            if -1 in scope:
                v = c.scope[scope.index(-1)]
                raise ValueError(f"constraint {name} names {v!r}, which is not a state variable")
            if len(set(scope)) < len(scope):
                raise ValueError(f"constraint {name} repeats a scope variable")
            scope_bits = frozenset().union(*(self.bitsets[vi] for vi in scope))
            stray = store.var_set(bdd) - scope_bits
            if stray:
                raise ValueError(f"constraint {name} mentions bit {min(stray)} outside its scope")
            ci = len(self.cons)
            self.cons.append(bdd)
            self.scopes.append(scope)
            for vi in scope:
                self.watch[vi].append(ci)
        self.trail = []
        self.queue = deque(ci for ci, c in enumerate(self.cons) if c != TRUE)
        # per constraint: None off the queue, else what woke it (a
        # variable, or -1 for several); see the module docstring
        self._why = [None if c == TRUE else -1 for c in self.cons]
        self._exact = mode in ("domain", "split")
        # the constraint propagate() is running, which _wake leaves alone
        self._running = -1
        self._prop_cache = store.memo(owner=self)
        self.runs = 0
        self.cache_hits = 0
        self._gc_trigger = self.gc_node_trigger
        # the abstraction of the remainder in card and lex modes
        self._bound = {"card": card_bounds, "lex": lex_bounds}.get(mode)

    # -- trail ---------------------------------------------------------

    def mark(self):
        """An opaque token for undo(): the trail length, and the queue
        with what woke each entry."""
        why = self._why
        return len(self.trail), [(ci, why[ci]) for ci in self.queue]

    def undo(self, mark):
        """Restore the domains, constraints and queue that mark() saw."""
        size, queued = mark
        trail, queue, why = self.trail, self.queue, self._why
        while len(trail) > size:
            array, idx, old = trail.pop()
            array[idx] = old
        for ci in queue:
            why[ci] = None
        queue.clear()
        for ci, woke in queued:
            why[ci] = woke
            queue.append(ci)

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
    # and total size of the store's memos, this run memo included, above
    # which the memos alone are dropped
    gc_node_trigger = 1_500_000
    cache_clear_trigger = 6_000_000

    def gc_roots(self):
        """Every BDD handle this state can still reach, including via undo."""
        roots = set(self.stick)
        roots.update(self.rem)
        roots.update(self.cons)
        roots.update(old for _, _, old in self.trail)
        return roots

    def maintain(self):
        """Bound memory during long searches.

        Safe at any point between propagator runs; outstanding handles
        not reachable from gc_roots() become invalid after a collection.
        """
        store = self.store
        if store.live_node_count() > self._gc_trigger:
            store.collect_garbage(self.gc_roots())
            self._gc_trigger = max(self.gc_node_trigger, 2 * store.live_node_count())
        elif store.cache_entries() > self.cache_clear_trigger:
            store.clear_cache()

    # -- inspection ----------------------------------------------------

    def var_index(self, v) -> int:
        vi = self._index.get(id(v))
        if vi is None:
            raise ValueError(f"{v!r} is not a state variable")
        return vi

    def fixed_bit_values(self, v) -> dict[int, bool]:
        """Bit -> forced value over the variable's domain: the stick's literals."""
        vi = v if isinstance(v, int) else self.var_index(v)
        return self.store.cube_literals(self.stick[vi])

    def is_determined(self, v) -> bool:
        return self._fixed(v if isinstance(v, int) else self.var_index(v))

    # -- queue ---------------------------------------------------------

    def enqueue(self, ci, vi=-1):
        """Queue constraint ci, woken by variable vi alone (-1: by more)."""
        if self.cons[ci] != TRUE:
            why = self._why[ci]
            if why is None:
                self._why[ci] = vi
                self.queue.append(ci)
            elif why != vi:
                self._why[ci] = -1

    def _wake(self, vi):
        """Queue the watchers of variable vi but the running constraint."""
        running = self._running
        for ci in self.watch[vi]:
            if ci != running:
                self.enqueue(ci, vi)

    # -- domain updates ------------------------------------------------

    def _put(self, vi, stick, rem):
        """Set variable vi's domain to (stick, rem), waking its watchers
        if either part changed."""
        if self._set(self.stick, vi, stick) | self._set(self.rem, vi, rem):
            self._wake(vi)

    def _absorb(self, vi, delta):
        """Fold a projection into variable vi's domain per the mode.

        delta must be satisfiable and range over vi's unfixed bits.  So
        the update cannot fail: its fixed literals never clash with the
        stick, and the card or lex bound of a satisfiable remainder is
        satisfiable.
        """
        if delta == self.rem[vi]:
            # a remainder is the fixpoint of its own update (see the
            # module docstring)
            return
        # an update memo key, in the run memo (see the module docstring)
        key = (delta << 32 | self.stick[vi]) << 32 | vi
        new = self._prop_cache.get(key)
        if new is None:
            store = self.store
            fixed, rem = split(store, delta)
            stick = store.apply_and(self.stick[vi], fixed)
            if self._bound is not None:
                free = self.bitsets[vi].difference(store.cube_literals(stick))
                rem = self._bound(store, rem, sorted(free))
            new = stick << 32 | rem
            self._prop_cache[key] = new
        self._put(vi, new >> 32, new & 0xFFFFFFFF)

    def assign(self, v, element, member=True) -> bool:
        """Branch decision: force element in (or out of) set variable v."""
        return self.assign_bit(self.var_index(v), v.bit(element), member)

    def assign_bit(self, vi, bit, value) -> bool:
        if bit not in self.bitsets[vi]:
            raise ValueError(f"bit {bit} is not a bit of variable {self.vars[vi]!r}")
        store = self.store
        fixed = store.cube_literals(self.stick[vi])
        if bit in fixed:
            return fixed[bit] == value
        # the remainder does not fix the bit, so either value is satisfiable
        self._absorb(vi, store.apply_and(self.rem[vi], store.literal(bit, value)))
        return True

    # -- propagation ---------------------------------------------------

    def _project(self, p, keep, skip=-1, out=None):
        """Projections of p /\\ keep's domains onto each variable of keep
        but skip, gathered in out; None on a wipeout.

        Divide and conquer over keep: each half is projected after the
        other is quantified away one variable at a time, conjoining that
        variable's remainder in the same and_exists, so every projection
        costs O(log n) halvings and no product of remainders is ever
        built.  Each remainder mentions only its own variable's bits, so
        this equals quantifying the whole half out of its conjunction:
        early quantification over a conjunctively partitioned product
        (Burch, Clarke & Long, 1991).  The left half is finished before
        the right one is started.  The base case is a single variable,
        whose projection is one apply_and with its remainder; a pair thus
        costs one and_exists and one apply_and per variable but skip.
        The first empty projection returns None.
        """
        store, rem, bitsets = self.store, self.rem, self.bitsets
        if out is None:
            out = {}
        if len(keep) == 1:
            x = keep[0]
            if x != skip:
                d = store.apply_and(p, rem[x])
                if d == FALSE:
                    return None
                out[x] = d
            return out
        m = len(keep) // 2
        left, right = keep[:m], keep[m:]
        for half, drop in ((left, right), (right, left)):
            if len(half) == 1 and half[0] == skip:
                continue
            q = p
            for vi in reversed(drop):
                q = store.and_exists(bitsets[vi], q, rem[vi])
            if self._project(q, half, skip, out) is None:
                return None
        return out

    def _fixed(self, vi) -> bool:
        """Whether variable vi's domain is one value (see the module docstring)."""
        if self.rem[vi] != TRUE:
            return False
        return len(self.store.cube_literals(self.stick[vi])) == len(self.bits[vi])

    def _run(self, ci, skip) -> bool:
        """Run constraint ci, woken by variable skip alone (-1: by more, or
        queued otherwise)."""
        scope = self.scopes[ci]
        # the leading 1 keeps keys of scopes of different lengths apart;
        # ci stands for its constraint (see the module docstring)
        key = self._pack(1 << 32 | ci, scope)
        cached = self._prop_cache.get(key)
        if cached is not None:
            self.cache_hits += 1
            if cached < 0:
                return False
            shift = 64 * len(scope)
            self._set(self.cons, ci, cached >> shift)
            # the domains follow in the key's layout: put them only if the
            # run changed one
            if (cached ^ key) & ((1 << shift) - 1):
                for vi in scope:
                    shift -= 64
                    self._put(vi, cached >> shift + 32 & 0xFFFFFFFF, cached >> shift & 0xFFFFFFFF)
            return True
        self.runs += 1
        if not self._propagator(ci, skip):
            self._prop_cache[key] = -1
            return False
        self._prop_cache[key] = self._pack(self.cons[ci], scope)
        return True

    def _pack(self, head, scope):
        """head, then the stick and remainder of each variable of scope,
        32 bits per handle."""
        stick, rem = self.stick, self.rem
        for vi in scope:
            head = (head << 32 | stick[vi]) << 32 | rem[vi]
        return head

    def _propagator(self, ci, skip) -> bool:
        """The propagator of constraint ci, without the memo.  It leaves
        ci where running it again would: see the module docstring."""
        scope, stick = self.scopes[ci], self.stick
        cofactor = self.store.cofactor
        phi = self.cons[ci]
        # woken by one variable alone, ci is specialised by every other
        # stick of its scope already (see the module docstring)
        for vi in scope if skip < 0 else (skip,):
            if stick[vi] != TRUE:
                phi = cofactor(phi, stick[vi])
        if phi == FALSE:
            return False
        self._set(self.cons, ci, phi)
        if phi == TRUE:
            return True
        if self.mode == "bounds":
            self._bounds_run(ci, phi)
            return True
        if not self._exact:
            skip = -1
        deltas = self._project(phi, scope, skip)
        if deltas is None:
            return False
        changed = []
        for vi in scope:
            if vi != skip:
                s = stick[vi]
                self._absorb(vi, deltas[vi])
                if stick[vi] != s:
                    changed.append(stick[vi])
        if self._exact and sum(not self._fixed(vi) for vi in scope) <= 1:
            # the domains imply the constraint: TRUE retires it exactly
            # (see the module docstring)
            self._set(self.cons, ci, TRUE)
            return True
        # the constraint stays satisfiable: the new domains hold the
        # projections
        for s in changed:
            phi = cofactor(phi, s)
        self._set(self.cons, ci, phi)
        return True

    def _bounds_run(self, ci, phi):
        """A bounds run of ci, specialised to phi, neither TRUE nor FALSE:
        phi's fixed literals extend the sticks (see the module docstring),
        then phi is specialised to them as a second run would."""
        store = self.store
        lits = fixed_literals(store, phi)
        if lits:
            for vi in self.scopes[ci]:
                own = {b: lits[b] for b in self.bitsets[vi].intersection(lits)}
                if own:
                    self._put(vi, store.apply_and(self.stick[vi], store.cube(own)), TRUE)
            self._set(self.cons, ci, store.cofactor(phi, store.cube(lits)))

    def propagate(self, deadline: float | None = None) -> bool:
        """Run the queue to fixpoint.  False means failure (domain wipeout).

        With a deadline, a time.perf_counter() value, the clock is read
        before each propagator run and DeadlineExceeded is raised once it
        reaches the deadline.  Runs are never cut short, so the state is
        then consistent: undo() backtracks it, and propagate() resumes the
        queue where it stopped.  A run that fails or raises puts its
        constraint back on the queue, so after a failure propagate()
        fails again until an undo.
        """
        queue, why = self.queue, self._why
        while queue:
            if deadline is not None and time.perf_counter() >= deadline:
                raise DeadlineExceeded
            ci = queue.popleft()
            skip = why[ci]
            why[ci] = None
            self._running = ci
            try:
                if not self._run(ci, skip):
                    self.enqueue(ci)
                    return False
            except BaseException:
                self.enqueue(ci)
                raise
            finally:
                self._running = -1
        return True
