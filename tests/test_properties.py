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
equal and_exists over the cube's bits, and at the end of every program
the unique table and the memo tables must still be untracked by the
cycle collector.

Each trail example is a stack of search levels on a small set problem:
each level marks the trail, makes random branch decisions with
propagation, and may collect garbage from the state's roots.  Undoing the
levels in reverse must restore every domain, constraint and active flag
exactly, with every restored handle still a live node.

The propagation properties check State._project against quantifying the
conjunction of a random constraint and random domains by brute force;
that every constraint retired during random walks of decisions and undos
is implied by its scope's domains, so running it again would change
nothing; and that after the same decisions the five modes are ordered by
strength: domain and split reach equal domains, which lie within the card
and lex domains, which lie within the bounds domains.  In every mode,
State.is_determined's cube walk must agree with counting the fixed
literals of the conjoined domain.
"""

import gc
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bddsets.analysis import fixed_literals, stick_of
from bddsets.engine import FALSE, TRUE, NodeStore
from bddsets.propagate import MODES, State
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

from conftest import exists_table, hot_tables, truth_table

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
            store.audit()
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
        else:
            (a, ta), (b, tb) = pick(args[0]), pick(args[1])
            operands, call = (a, b), partial(getattr(store, f"apply_{kind}"), a, b)
            want = tuple(TABLE_OPS[kind](x, y) for x, y in zip(ta, tb))
        h = call()
        check(store, pool, h, want)
        pool.append((h, want))
        done.append((operands, h, call, want))
    store.audit()
    assert not any(map(gc.is_tracked, hot_tables(store)))


def cofactor_as_and_exists(store, a, lits):
    """cofactor(a, cube), checked against and_exists over the cube's bits."""
    cube = stick_of(store, lits)
    r = store.cofactor(a, cube)
    assert r == store.and_exists(store.var_set(cube), a, cube)
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


def trail_problem(mode):
    store = NodeStore()
    x, y, z = alloc_set_vars(store, Universe(4), ["x", "y", "z"])
    cons = [
        ConstraintBdd(subseteq(store, x, y), (x, y)),
        ConstraintBdd(union_eq(store, z, x, y), (z, x, y)),
        ConstraintBdd(card_le(store, y, 3), (y,)),
        ConstraintBdd(lexlt(store, x, z), (x, z)),
        ConstraintBdd(inter_card_atmost(store, x, z, 1), (x, z)),
    ]
    return State(store, [x, y, z], cons, mode=mode)


def state_of(st):
    return (list(st.stick), list(st.rem), list(st.cons), list(st.active))


def assert_live(store, handles):
    for h in handles:
        for n, v, t, f in nodes_of(store, h):
            assert store.mk_node(v, t, f) == n, "handle lost to a collection"


# a level: branch decisions (variable, element index, value), then
# whether to collect garbage before the next level
decision = st.tuples(
    st.integers(min_value=0, max_value=2),
    st.integers(min_value=0, max_value=3),
    st.booleans(),
)
level = st.tuples(st.lists(decision, min_size=1, max_size=6), st.booleans())


@pytest.mark.parametrize("mode", MODES)
@PROPERTY_SETTINGS
@given(levels=st.lists(level, min_size=1, max_size=4))
def test_undo_restores_state_in_every_mode(mode, levels):
    s = trail_problem(mode)
    assert s.propagate_from_scratch()
    arrays = (s.stick, s.rem, s.cons, s.active)
    saved = []
    for decisions, collect in levels:
        saved.append((s.mark(), state_of(s)))
        for vi, i, value in decisions:
            if not (s.assign_bit(vi, s.bits[vi][i], value) and s.propagate()):
                break
        assert all(any(a is b for b in arrays) for a, _, _ in s.trail)
        trailed = {old for a, _, old in s.trail if a is not s.active}
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
    return store.disjoin(
        stick_of(store, {bits[i % len(bits)]: sign for i, sign in c.items()})
        for c in cubes
    )


@PROPERTY_SETTINGS
@given(
    universe=st.integers(min_value=1, max_value=3),
    order=st.permutations(range(5)),
    size=st.integers(min_value=2, max_value=5),
    phi=st.lists(dnf, min_size=1, max_size=2),
    domains=st.lists(dnf, min_size=5, max_size=5),
)
def test_project_matches_brute_force(universe, order, size, phi, domains):
    store = NodeStore()
    s = State(store, alloc_set_vars(store, Universe(universe), "abcde"), [])
    scope = tuple(order[:size])
    scope_bits = [b for vi in scope for b in s.bits[vi]]
    # a conjunction of two disjunctions may be FALSE
    p = store.conjoin(function_of(store, scope_bits, f) for f in phi)
    for vi in scope:
        s.rem[vi] = function_of(store, s.bits[vi], domains[vi])
    conj = store.conjoin([p] + [s.rem[vi] for vi in scope])
    want = {
        vi: store.apply_and(store.exists(set(scope_bits) - s.bitsets[vi], conj), s.rem[vi])
        for vi in scope
    }
    got = s._project(p, scope)
    if FALSE in want.values():
        assert got is None
    else:
        assert got == want


def check_retired(s, original):
    """Every retired constraint is implied by its scope's domains, and
    projecting it onto each of them again changes no domain."""
    store = s.store
    for ci, scope in enumerate(s.scopes):
        if s.active[ci]:
            continue
        doms = [s.domain_bdd(vi) for vi in scope]
        conj = store.conjoin(doms)
        assert store.apply_and(conj, store.negate(original[ci])) == FALSE
        both = store.apply_and(conj, original[ci])
        for vi, dom in zip(scope, doms):
            others = frozenset().union(*(s.bitsets[w] for w in scope if w != vi))
            assert store.exists(others, both) == dom


def walk(s, steps, invariant):
    """Propagate s to its root fixpoint, then take steps: decisions, each
    undone at once if it fails, and undos of the last open decision.
    invariant() runs at the root and after every step."""
    assert s.propagate_from_scratch()
    invariant()
    marks = []
    for step in steps:
        if step == "undo":
            if marks:
                s.undo(marks.pop())
        else:
            vi, i, value = step
            marks.append(s.mark())
            if not (s.assign_bit(vi, s.bits[vi][i], value) and s.propagate()):
                s.undo(marks.pop())
        invariant()


walk_steps = st.lists(st.one_of(decision, st.just("undo")), min_size=4, max_size=16)


@pytest.mark.parametrize("mode", ["domain", "split"])
@PROPERTY_SETTINGS
@given(steps=walk_steps)
def test_retired_constraints_are_implied_by_the_domains(mode, steps):
    s = trail_problem(mode)
    original = list(s.cons)
    walk(s, steps, partial(check_retired, s, original))


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
    ok = {m: s.propagate_from_scratch() for m, s in live.items()}
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
            dom = {m: s.domain_bdd(vi) for m, s in live.items()}
            for strong, weak in STRONGER:
                if strong in dom and weak in dom:
                    assert subset(store, dom[strong], dom[weak]), (strong, weak)


def check_determined(s):
    """is_determined's cube walk agrees with counting fixed literals."""
    for vi, bits in enumerate(s.bits):
        fixed = fixed_literals(s.store, s.domain_bdd(vi))
        assert s.is_determined(vi) == (len(fixed) == len(bits))


@pytest.mark.parametrize("mode", MODES)
@PROPERTY_SETTINGS
@given(steps=walk_steps)
def test_is_determined_matches_fixed_literals(mode, steps):
    s = trail_problem(mode)
    walk(s, steps, partial(check_determined, s))
