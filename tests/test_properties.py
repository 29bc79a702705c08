"""Property tests: kernel operations against truth tables, and the
propagation trail.

Each kernel example is a random program over four variables, starting from
the terminals and the eight literals.  Every result is
checked against the truth table computed from its operands' tables, and
functions with equal tables must share one handle.  Garbage collections
that drop random results are interleaved.  After each one, every earlier
op whose operands survived but whose result was swept is done again, so a
stale handle coming back through the op cache, or a core that lost track
of the store's containers, shows as a wrong table, a swept node or a
second handle for one function.  A cofactor by a random cube must also
equal and_exists over the cube's bits, and ite of three operands from the
pool, which share variables as the intexpr adders' operands do, must equal
the or of two ands it replaces.  At the end of every program
the unique table and the memo tables must still be untracked by the
cycle collector.

Each trail example is a stack of search levels on a small set problem:
each level marks the trail, makes random branch decisions with
propagation, and may collect garbage from the state's roots.  A level may
take its mark with the constraints its first decision woke still queued,
and a level after a failed one takes it in the failed state.  Undoing the
levels in reverse must restore every domain, constraint and the queue,
each entry with what woke it, exactly, with every restored handle still a
live node.

The propagation properties check State._project, with or without a
skipped variable, against quantifying the conjunction of a random
constraint and random domains by brute force;
that every constraint retired during random walks of decisions and undos
is implied by its scope's domains, so running it again would change
nothing; and that after the same decisions the five modes are ordered by
strength: domain and split reach equal domains, which lie within the card
and lex domains, which lie within the bounds domains.  In every mode,
State.is_determined and State.fixed_bit_values, which read the stick
alone, must agree with the fixed literals of the conjoined domain.  In domain and split modes, where a
run woken by one variable alone skips the projection onto it, every
constraint but TRUE off the queue must be at the fixpoint of a full
projection after every propagate() that succeeds and every undo, also
over walks that mark the trail with constraints queued and that run out
of time mid-propagation.  In every mode, over the same walks, running
any constraint but TRUE off the queue again must change no stick,
remainder or constraint, since no run queues its own
constraint again, and no remainder may fix a bit; every constraint but
TRUE must be unchanged by a cofactor by any stick of its scope, but a
lone waker's while it is queued; absorbing a variable's own remainder
must change nothing, the run memo included; every pair constraint run
through State._run_pair must make the kernel calls and leave the state
that State._propagator does, and store the run memo entry State._run
would; and a bounds run, which reads the fixed literals of
the specialised constraint, must match projecting by brute force and
splitting each projection.  Cofactoring a function by cubes over
disjoint bits one at a time, in any order, must equal cofactoring it by
their conjunction.  In every mode, where the run memo is keyed by
constraint index and also holds each domain update, the same walk on two
states over one store, one of which empties its run memo before every
step, must pass through the same domains, constraints and queues.
"""

import gc
from functools import partial
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bddsets import propagate
from bddsets.analysis import fixed_literals, split, stick_of
from bddsets.engine import FALSE, TRUE, NodeStore
from bddsets.propagate import MODES, DeadlineExceeded, State
from bddsets.sets import (
    ConstraintBdd,
    Universe,
    alloc_set_vars,
    card_le,
    eq_const,
    inter_card_atmost,
    lexlt,
    subseteq,
    union_eq,
)

from conftest import audit, disjoin, domain_bdd, exists_table, hot_tables, truth_table

NVARS = 4

# few, fixed examples: the suite's run time barely moves and never flakes
PROPERTY_SETTINGS = settings(
    max_examples=40, deadline=None, database=None, derandomize=True
)

# an operand counts back from the newest pool entry
operand = st.integers(min_value=0, max_value=15)
var_sets = st.frozensets(st.integers(min_value=0, max_value=NVARS - 1))
step = st.one_of(
    st.tuples(st.sampled_from(["and", "or", "xor"]), operand, operand),
    st.tuples(st.just("not"), operand),
    st.tuples(st.just("exists"), var_sets, operand),
    st.tuples(st.just("and_exists"), var_sets, operand, operand),
    # collect garbage, dropping these pool entries from the roots
    st.tuples(st.just("gc"), st.frozensets(operand, min_size=1, max_size=4)),
)
# restrict an operand to a cube, given as variable -> literal sign
cofactor_step = st.tuples(
    st.just("cofactor"),
    st.dictionaries(st.integers(min_value=0, max_value=NVARS - 1), st.booleans()),
    operand,
)
ite_step = st.tuples(st.just("ite"), operand, operand, operand)

TABLE_OPS = {
    "and": lambda x, y: x and y,
    "or": lambda x, y: x or y,
    "xor": lambda x, y: x != y,
}


def nodes_of(store, a):
    """(handle, var, hi, lo) of each internal node reachable from a."""
    seen = set()
    stack = [a]
    while stack:
        x = stack.pop()
        if x > 1 and x not in seen:
            seen.add(x)
            yield x, store._var[x], store._hi[x], store._lo[x]
            stack += (store._hi[x], store._lo[x])


def check(store, pool, h, want):
    assert truth_table(store, h, NVARS) == want
    # every node of the result is live, not a swept slot
    assert all(store.mk_node(v, t, f) == n for n, v, t, f in nodes_of(store, h))
    assert all(g == h for g, t in pool if t == want), "one function, two handles"


def run_program(store, steps):
    """Apply steps to a pool of (handle, table) pairs, checking each result."""
    base = [FALSE, TRUE] + [store.literal(v, p) for v in store.new_vars(NVARS) for p in (True, False)]
    pool = [(h, truth_table(store, h, NVARS)) for h in base]
    done = []  # (operand handles, result, call, expected table) of each op

    def pick(i):
        return pool[-1 - i % len(pool)]

    for kind, *args in steps:
        if kind == "gc":
            drop = {len(pool) - 1 - i % len(pool) for i in args[0]} - set(range(len(base)))
            pool[:] = [p for i, p in enumerate(pool) if i not in drop]
            store.collect_garbage([h for h, _ in pool])
            audit(store)
            assert all(truth_table(store, h, NVARS) == t for h, t in pool)
            live = {h for h, _ in pool}
            # swept handles get recycled, so forget the ops that used them
            done[:] = [d for d in done if live.issuperset(d[0])]
            for _, r, call, want in done:
                if r not in live:
                    check(store, pool, call(), want)
            continue
        if kind == "not":
            (a, ta) = pick(args[0])
            operands, call, want = (a,), partial(store.negate, a), tuple(not x for x in ta)
        elif kind == "exists":
            qs, (a, ta) = args[0], pick(args[1])
            operands, call = (a,), partial(store.exists, qs, a)
            want = exists_table(ta, qs, NVARS)
        elif kind == "and_exists":
            qs, (a, ta), (b, tb) = args[0], pick(args[1]), pick(args[2])
            operands, call = (a, b), partial(store.and_exists, qs, a, b)
            want = exists_table(tuple(x and y for x, y in zip(ta, tb)), qs, NVARS)
        elif kind == "cofactor":
            lits, (a, ta) = args[0], pick(args[1])
            tc = truth_table(store, stick_of(store, lits), NVARS)
            operands = (a,)
            # the cube is rebuilt on each call, so a collection cannot sweep it
            call = partial(cofactor_as_and_exists, store, a, lits)
            want = exists_table(tuple(x and y for x, y in zip(ta, tc)), lits, NVARS)
        elif kind == "ite":
            (c, tc), (a, ta), (b, tb) = pick(args[0]), pick(args[1]), pick(args[2])
            operands, call = (c, a, b), partial(ite_as_or_of_ands, store, c, a, b)
            want = tuple(y if x else z for x, y, z in zip(tc, ta, tb))
        else:
            (a, ta), (b, tb) = pick(args[0]), pick(args[1])
            operands, call = (a, b), partial(getattr(store, f"apply_{kind}"), a, b)
            want = tuple(TABLE_OPS[kind](x, y) for x, y in zip(ta, tb))
        h = call()
        check(store, pool, h, want)
        pool.append((h, want))
        done.append((operands, h, call, want))
    audit(store)
    assert not any(map(gc.is_tracked, hot_tables(store)))


def cofactor_as_and_exists(store, a, lits):
    """cofactor(a, cube), checked against and_exists over the cube's bits."""
    cube = stick_of(store, lits)
    r = store.cofactor(a, cube)
    assert r == store.and_exists(store.var_set(cube), a, cube)
    return r


def ite_as_or_of_ands(store, c, t, f):
    """ite(c, t, f), checked against or(and(c, t), and(not c, f))."""
    r = store.ite(c, t, f)
    assert r == store.apply_or(store.apply_and(c, t), store.apply_and(store.negate(c), f))
    return r


@pytest.mark.parametrize("debug_checks", [False, True])
@PROPERTY_SETTINGS
@given(steps=st.lists(step, min_size=4, max_size=40))
def test_kernel_ops_match_truth_tables_under_gc(debug_checks, steps):
    run_program(NodeStore(debug_checks=debug_checks), steps)


@pytest.mark.parametrize("debug_checks", [False, True])
@PROPERTY_SETTINGS
@given(steps=st.lists(st.one_of(step, cofactor_step), min_size=4, max_size=40))
def test_cofactor_is_and_exists_of_the_cube_under_gc(debug_checks, steps):
    run_program(NodeStore(debug_checks=debug_checks), steps)


@pytest.mark.parametrize("debug_checks", [False, True])
@PROPERTY_SETTINGS
@given(steps=st.lists(st.one_of(step, ite_step), min_size=4, max_size=40))
def test_ite_is_or_of_ands_under_gc(debug_checks, steps):
    run_program(NodeStore(debug_checks=debug_checks), steps)


def trail_model(store):
    """The variables and constraints of the trail problem."""
    x, y, z = alloc_set_vars(store, Universe(4), ["x", "y", "z"])
    cons = [
        ConstraintBdd(subseteq(store, x, y), (x, y)),
        ConstraintBdd(union_eq(store, z, x, y), (z, x, y)),
        ConstraintBdd(card_le(store, y, 3), (y,)),
        ConstraintBdd(lexlt(store, x, z), (x, z)),
        ConstraintBdd(inter_card_atmost(store, x, z, 1), (x, z)),
    ]
    return [x, y, z], cons


def trail_problem(mode):
    store = NodeStore()
    return State(store, *trail_model(store), mode=mode)


def queue_of(st):
    """The queue, each entry with what woke it; no constraint off the
    queue may record a waker."""
    assert sum(why is not None for why in st._why) == len(st.queue)
    return [(ci, st._why[ci]) for ci in st.queue]


def state_of(st):
    return (list(st.stick), list(st.rem), list(st.cons), queue_of(st))


def assert_live(store, handles):
    for h in handles:
        for n, v, t, f in nodes_of(store, h):
            assert store.mk_node(v, t, f) == n, "handle lost to a collection"


# a level: branch decisions (variable, element index, value), whether to
# collect garbage before the next level, and whether to mark the trail
# after the first decision's assignment, with what it woke still queued
decision = st.tuples(
    st.integers(min_value=0, max_value=2),
    st.integers(min_value=0, max_value=3),
    st.booleans(),
)
level = st.tuples(st.lists(decision, min_size=1, max_size=6), st.booleans(), st.booleans())


@pytest.mark.parametrize("mode", MODES)
@PROPERTY_SETTINGS
@given(levels=st.lists(level, min_size=1, max_size=4))
def test_undo_restores_state_in_every_mode(mode, levels):
    s = trail_problem(mode)
    assert s.propagate()
    arrays = (s.stick, s.rem, s.cons)
    saved = []
    for decisions, collect, late in levels:
        if late:
            vi, i, value = decisions[0]
            s.assign_bit(vi, s.bits[vi][i], value)
        saved.append((s.mark(), state_of(s)))
        for vi, i, value in decisions:
            if not (s.assign_bit(vi, s.bits[vi][i], value) and s.propagate()):
                break
        assert all(any(a is b for b in arrays) for a, _, _ in s.trail)
        trailed = {old for _, _, old in s.trail}
        assert trailed <= s.gc_roots()
        if collect:
            s.store.collect_garbage(s.gc_roots())
    for mark, before in reversed(saved):
        s.undo(mark)
        assert state_of(s) == before
        assert_live(s.store, s.stick + s.rem + s.cons)


# a random function over a list of bits: a disjunction of cubes, each cube
# mapping a bit position (modulo the list's length) to its sign
cube = st.dictionaries(st.integers(min_value=0, max_value=14), st.booleans(), max_size=4)
dnf = st.lists(cube, min_size=1, max_size=5)


def function_of(store, bits, cubes):
    return disjoin(
        store,
        (stick_of(store, {bits[i % len(bits)]: sign for i, sign in c.items()}) for c in cubes),
    )


@PROPERTY_SETTINGS
@given(
    universe=st.integers(min_value=1, max_value=3),
    order=st.permutations(range(5)),
    size=st.integers(min_value=2, max_value=5),
    phi=st.lists(dnf, min_size=1, max_size=2),
    domains=st.lists(dnf, min_size=5, max_size=5),
    skip=st.integers(min_value=-1, max_value=4),
)
def test_project_matches_brute_force(universe, order, size, phi, domains, skip):
    # skip is a scope variable, whose projection is left out, or -1
    store = NodeStore()
    s = State(store, alloc_set_vars(store, Universe(universe), "abcde"), [])
    scope = tuple(order[:size])
    skip = scope[skip % size] if skip >= 0 else -1
    scope_bits = [b for vi in scope for b in s.bits[vi]]
    # a conjunction of two disjunctions may be FALSE
    p = store.conjoin(function_of(store, scope_bits, f) for f in phi)
    for vi in scope:
        s.rem[vi] = function_of(store, s.bits[vi], domains[vi])
    conj = store.conjoin([p] + [s.rem[vi] for vi in scope])
    want = {
        vi: store.apply_and(store.exists(set(scope_bits) - s.bitsets[vi], conj), s.rem[vi])
        for vi in scope
        if vi != skip
    }
    got = s._project(p, scope, skip)
    if FALSE in want.values():
        assert got is None
    else:
        assert got == want


@PROPERTY_SETTINGS
@given(phi=dnf, cubes=st.lists(cube, min_size=2, max_size=3), order=st.permutations(range(3)))
def test_cofactor_by_disjoint_cubes_in_turn_is_cofactor_by_their_conjunction(phi, cubes, order):
    # State._propagator rests on this: sticks of different variables range
    # over disjoint bits, here interleaved in the variable order
    store = NodeStore()
    bits = store.new_vars(12)
    groups = [bits[g::3] for g in range(3)]
    p = function_of(store, bits, phi)
    sticks = [
        stick_of(store, {g[i % len(g)]: sign for i, sign in c.items()})
        for g, c in zip(groups, cubes)
    ]
    folded = p
    for i in order:
        if i < len(sticks):
            folded = store.cofactor(folded, sticks[i])
    assert folded == store.cofactor(p, store.conjoin(sticks))


def check_retired(s, original):
    """Every retired constraint is implied by its scope's domains, and
    projecting it onto each of them again changes no domain."""
    store = s.store
    for ci, scope in enumerate(s.scopes):
        if s.cons[ci] != TRUE:
            continue
        doms = [domain_bdd(s, vi) for vi in scope]
        conj = store.conjoin(doms)
        assert store.apply_and(conj, store.negate(original[ci])) == FALSE
        both = store.apply_and(conj, original[ci])
        for vi, dom in zip(scope, doms):
            others = frozenset().union(*(s.bitsets[w] for w in scope if w != vi))
            assert store.exists(others, both) == dom


class Ticks:
    """A clock for propagate() that reads 0, 1, 2, ...: a deadline of n
    passes after n queue entries."""

    def __init__(self):
        self.now = -1

    def perf_counter(self):
        self.now += 1
        return self.now


def walk(s, steps, invariant):
    """Propagate s to its root fixpoint, then take steps: decisions, each
    undone at once if it fails, and undos of the last open decision.
    invariant() runs at the root and after every step.

    A plain decision (variable, element index, value) marks the trail
    first.  ("late", decision) marks it after the assignment, while the
    constraints it woke are queued.  ("timeout", decision, n, resume)
    gives propagate() a deadline that passes after n queue entries, then
    resumes propagation or undoes the decision.  Undo must restore the
    queue that the mark saw, each entry with what woke it."""
    assert s.propagate()
    invariant()
    marks = []  # (trail mark, queue_of(s) when it was taken)

    def undo():
        mark, queued = marks.pop()
        s.undo(mark)
        assert queue_of(s) == queued

    for step in steps:
        if step == "undo":
            if marks:
                undo()
            invariant()
            continue
        kind, (vi, i, value), *deadline = step if isinstance(step[0], str) else ("plain", step)
        if kind != "late":
            marks.append((s.mark(), queue_of(s)))
        ok = s.assign_bit(vi, s.bits[vi][i], value)
        if kind == "late":
            marks.append((s.mark(), queue_of(s)))
        if ok and kind == "timeout":
            runs, resume = deadline
            try:
                with mock.patch.object(propagate, "time", Ticks()):
                    ok = s.propagate(runs)
            except DeadlineExceeded:
                ok = resume and s.propagate()
        elif ok:
            ok = s.propagate()
        if not ok:
            undo()
        invariant()


walk_steps = st.lists(st.one_of(decision, st.just("undo")), min_size=4, max_size=16)
late = st.tuples(st.just("late"), decision)
timeout = st.tuples(
    st.just("timeout"), decision, st.integers(min_value=0, max_value=6), st.booleans()
)
wake_steps = st.lists(
    st.one_of(decision, late, timeout, st.just("undo")), min_size=4, max_size=16
)


@pytest.mark.parametrize("mode", ["domain", "split"])
@PROPERTY_SETTINGS
@given(steps=walk_steps)
def test_retired_constraints_are_implied_by_the_domains(mode, steps):
    s = trail_problem(mode)
    original = list(s.cons)
    walk(s, steps, partial(check_retired, s, original))


def check_fixpoint(s):
    """Every constraint but TRUE off the queue is at its fixpoint: a full
    projection onto its whole scope gives back every remainder, so
    running it again changes no domain."""
    store = s.store
    for ci, scope in enumerate(s.scopes):
        if s.cons[ci] != TRUE and s._why[ci] is None:
            phi = store.cofactor(s.cons[ci], store.conjoin([s.stick[vi] for vi in scope]))
            assert s._project(phi, scope) == {vi: s.rem[vi] for vi in scope}, ci


# the modes whose runs skip the projection onto a lone waking variable
@pytest.mark.parametrize("mode", ["domain", "split"])
@PROPERTY_SETTINGS
@given(steps=wake_steps)
def test_propagate_reaches_the_fixpoint_of_full_runs(mode, steps):
    s = trail_problem(mode)
    walk(s, steps, partial(check_fixpoint, s))


def check_own_fixpoint(s):
    """No stick or remainder is FALSE, since a domain update cannot fail;
    no remainder fixes a bit, which is what lets the stick alone give the
    fixed bits; and every constraint but TRUE off the queue is where
    running it again would leave it: a run, undone at once, succeeds and
    changes no stick, remainder or constraint."""
    assert FALSE not in s.stick and FALSE not in s.rem
    for vi, rem in enumerate(s.rem):
        assert fixed_literals(s.store, rem) == {}, vi
    for ci in range(len(s.cons)):
        if s.cons[ci] != TRUE and s._why[ci] is None:
            before = state_of(s)
            m = s.mark()
            assert s._propagator(ci, -1), ci
            after = (list(s.stick), list(s.rem), list(s.cons))
            s.undo(m)
            assert after == before[:3], ci


def check_specialised(s):
    """Every constraint but TRUE is specialised by its scope's sticks: a
    cofactor by one leaves it unchanged, by any of them if it is off the
    queue, and by any but the waker's if one variable alone woke it."""
    cofactor = s.store.cofactor
    for ci, scope in enumerate(s.scopes):
        why = s._why[ci]
        if s.cons[ci] != TRUE and why != -1:
            for vi in scope:
                if vi != why:
                    assert cofactor(s.cons[ci], s.stick[vi]) == s.cons[ci], (ci, vi)


# a run cofactors its constraint by its lone waker's stick alone, which is
# exact only while this holds
@pytest.mark.parametrize("mode", MODES)
@PROPERTY_SETTINGS
@given(steps=wake_steps)
def test_constraints_stay_specialised_by_their_sticks(mode, steps):
    s = trail_problem(mode)
    walk(s, steps, partial(check_specialised, s))


def check_identity_absorb(s):
    """Absorbing a variable's own remainder changes nothing: no domain,
    trail entry, queue entry or memo entry."""
    for vi in range(len(s.vars)):
        before = state_of(s), list(s.trail), dict(s._prop_cache)
        s._absorb(vi, s.rem[vi])
        assert (state_of(s), list(s.trail), dict(s._prop_cache)) == before, vi


@pytest.mark.parametrize("mode", MODES)
@PROPERTY_SETTINGS
@given(steps=walk_steps)
def test_absorbing_a_remainder_is_the_identity(mode, steps):
    s = trail_problem(mode)
    walk(s, steps, partial(check_identity_absorb, s))


# no run queues its own constraint again, so each must leave it at its
# fixpoint itself
@pytest.mark.parametrize("mode", MODES)
@PROPERTY_SETTINGS
@given(steps=wake_steps)
def test_a_run_leaves_its_constraint_at_its_fixpoint(mode, steps):
    s = trail_problem(mode)
    walk(s, steps, partial(check_own_fixpoint, s))


def logged(log, name, fn, *args):
    log.append((name, *args))
    return fn(*args)


def check_pair_runs(s, posted):
    """Every pair constraint, run from one mark as propagate() would run
    it next, makes the same and_exists and apply_and calls in the same
    order and leaves the same domains, constraints, queue and wakers
    through _run_pair, which misses the run memo, as through _propagator:
    with its handle and waker if it is not TRUE, and, in any case, with
    its handle as posted and no waker, which reaches runs a retirement
    would otherwise hide."""
    for ci, scope in enumerate(s.scopes):
        if len(scope) == 2:
            if s.cons[ci] != TRUE:
                compare_pair_run(s, ci, -1 if s._why[ci] is None else s._why[ci])
            compare_pair_run(s, ci, -1, posted[ci])


def compare_pair_run(s, ci, skip, phi=None):
    """check_pair_runs for constraint ci, run with handle phi (None: its
    own); _run_pair must store what _run stores: -1 for a failure, else
    the constraint and domains it left, packed, which is also the entry
    a hit would have replayed."""
    store, memo, scope = s.store, s._prop_cache, s.scopes[ci]
    key = s._pack(1 << 32 | ci, scope)
    old = memo.pop(key, None)
    # both runs see the same domain-update entries, so make the same calls
    saved = dict(memo)
    seen = []
    for pair in (True, False):
        memo.clear()
        memo.update(saved)
        m = s.mark()
        if phi is not None:
            s._set(s.cons, ci, phi)
        if s._why[ci] is not None:
            s.queue.remove(ci)
            s._why[ci] = None
        s._running = ci
        log = []
        spies = {n: partial(logged, log, n, getattr(store, n)) for n in ("and_exists", "apply_and")}
        with mock.patch.multiple(store, **spies):
            ok = s._run_pair(ci, skip, *scope) if pair else s._propagator(ci, skip)
        s._running = -1
        seen.append((ok, state_of(s), log))
        if pair:
            want = s._pack(s.cons[ci], scope) if ok else -1
            assert memo[key] == want and old in (None, want), ci
        s.undo(m)
    assert seen[0] == seen[1], ci


@pytest.mark.parametrize("mode", MODES)
@PROPERTY_SETTINGS
@given(steps=wake_steps)
def test_a_pair_run_matches_the_general_run(mode, steps):
    s = trail_problem(mode)
    walk(s, steps, partial(check_pair_runs, s, list(s.cons)))


@PROPERTY_SETTINGS
@given(
    universe=st.integers(min_value=1, max_value=3),
    order=st.permutations(range(5)),
    size=st.integers(min_value=1, max_value=5),
    phi=st.lists(dnf, min_size=1, max_size=2),
    sticks=st.lists(cube, min_size=5, max_size=5),
)
def test_bounds_run_matches_project_then_split(universe, order, size, phi, sticks):
    # a bounds run reads the fixed literals of the specialised constraint
    # into the sticks; it must give the sticks and constraint
    # that projecting onto each variable by brute force, splitting each
    # projection and specialising to the new sticks give
    store = NodeStore()
    vs = alloc_set_vars(store, Universe(universe), "abcde")
    scope = tuple(order[:size])
    scope_bits = [b for vi in scope for b in vs[vi].bits]
    p = store.conjoin(function_of(store, scope_bits, f) for f in phi)
    s = State(store, vs, [ConstraintBdd(p, tuple(vs[vi] for vi in scope))], mode="bounds")
    for vi in scope:
        bits = s.bits[vi]
        s.stick[vi] = stick_of(store, {bits[i % len(bits)]: sign for i, sign in sticks[vi].items()})
    spec = store.cofactor(p, store.conjoin([s.stick[vi] for vi in scope]))
    if spec == FALSE:
        assert not s._propagator(0, -1)
        return
    want = []
    for vi in scope:
        others = set(scope_bits) - s.bitsets[vi]
        fixed, _ = split(store, store.exists(others, spec))
        want.append(store.apply_and(s.stick[vi], fixed))
    want_cons = store.cofactor(spec, store.conjoin(want))
    assert s._propagator(0, -1)
    assert [s.stick[vi] for vi in scope] == want
    assert s.rem == [TRUE] * 5
    assert s.cons[0] == want_cons


def record(s, states, forget):
    """Append s's state to states, then, if forget, empty its run memo."""
    states.append(state_of(s))
    if forget:
        s._prop_cache.clear()


def at_most(limit, run):
    """run, failing once it is called more than limit times: a wrong memo
    hit can widen a domain, and then propagation may never end."""
    calls = iter(range(limit))

    def counted(ci, skip):
        assert next(calls, None) is not None, "propagation does not end"
        return run(ci, skip)

    return counted


# in every mode the run memo is keyed by constraint index and also holds
# each domain update
@pytest.mark.parametrize("mode", MODES)
@PROPERTY_SETTINGS
@given(steps=wake_steps)
def test_memoised_domain_updates_are_exact(mode, steps):
    # the same walk on two states over one store, one of which empties its
    # run memo before every step, must pass through the same states
    store = NodeStore()
    variables, cons = trail_model(store)
    seen = {}
    for forget in (False, True):
        s = State(store, variables, cons, mode=mode)
        # no walk here needs 60 runs
        s._run = at_most(1000, s._run)
        seen[forget] = []
        walk(s, steps, partial(record, s, seen[forget], forget))
    assert seen[False] == seen[True]


def subset(store, a, b):
    return store.apply_and(a, store.negate(b)) == FALSE


# (stronger, weaker) pairs of modes; domain and split are equally strong
STRONGER = [
    ("domain", "split"),
    ("split", "domain"),
    ("domain", "card"),
    ("domain", "lex"),
    ("card", "bounds"),
    ("lex", "bounds"),
]


@PROPERTY_SETTINGS
@given(decisions=st.lists(decision, min_size=1, max_size=8))
def test_modes_are_ordered_by_strength(decisions):
    store = NodeStore()
    x, y, z = alloc_set_vars(store, Universe(4), ["x", "y", "z"])
    cons = [
        ConstraintBdd(subseteq(store, x, y), (x, y)),
        ConstraintBdd(union_eq(store, z, x, y), (z, x, y)),
        ConstraintBdd(lexlt(store, x, z), (x, z)),
        ConstraintBdd(inter_card_atmost(store, x, z, 1), (x, z)),
        ConstraintBdd(
            store.apply_or(eq_const(store, y, {1, 2, 4}), card_le(store, y, 2)), (y,)
        ),
    ]
    # the modes without a wipeout so far, all making the same decisions
    live = {m: State(store, [x, y, z], cons, mode=m) for m in MODES}
    ok = {m: s.propagate() for m, s in live.items()}
    for step in [None, *decisions]:
        if step is not None:
            vi, i, value = step
            ok = {
                m: s.assign_bit(vi, s.bits[vi][i], value) and s.propagate()
                for m, s in live.items()
            }
        for strong, weak in STRONGER:
            if strong in ok and weak in ok:
                assert ok[strong] <= ok[weak], (strong, weak)
        live = {m: s for m, s in live.items() if ok[m]}
        for vi in range(3):
            dom = {m: domain_bdd(s, vi) for m, s in live.items()}
            for strong, weak in STRONGER:
                if strong in dom and weak in dom:
                    assert subset(store, dom[strong], dom[weak]), (strong, weak)


def check_determined(s):
    """is_determined agrees with counting fixed literals, and
    fixed_bit_values, which reads the stick alone, with the fixed literals
    of the conjunction of stick and remainder."""
    for vi, bits in enumerate(s.bits):
        fixed = fixed_literals(s.store, domain_bdd(s, vi))
        assert s.is_determined(vi) == (len(fixed) == len(bits))
        assert s.fixed_bit_values(vi) == fixed


@pytest.mark.parametrize("mode", MODES)
@PROPERTY_SETTINGS
@given(steps=walk_steps)
def test_is_determined_matches_fixed_literals(mode, steps):
    s = trail_problem(mode)
    walk(s, steps, partial(check_determined, s))
