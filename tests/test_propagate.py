import itertools
import random
from types import SimpleNamespace
from unittest import mock

import pytest

from bddsets import propagate
from bddsets.engine import FALSE, TRUE, NodeLimitExceeded, NodeStore
from bddsets.propagate import MODES, DeadlineExceeded, State
from bddsets.search import snapshot
from bddsets.sets import (
    ConstraintBdd,
    Universe,
    alloc_set_vars,
    card,
    card_eq,
    card_le,
    eq,
    eq_const,
    inter_card_atmost,
    lexlt,
    member,
    not_member,
    partition,
    subseteq,
    union_eq,
)

from conftest import domain_bdd, eval_node


def subsets(n):
    elems = list(range(1, n + 1))
    for r in range(n + 1):
        for c in itertools.combinations(elems, r):
            yield frozenset(c)


def holds(store, bdd, assignment):
    env = {}
    for var, val in assignment.items():
        for i, bit in enumerate(var.bits):
            env[bit] = (i + 1) in val
    return eval_node(store, bdd, env)


def domain_bdd_of(store, var, sets):
    from bddsets.sets import eq_const

    acc = FALSE
    for s in sets:
        acc = store.apply_or(acc, eq_const(store, var, s))
    return acc


def make_state(store, vars_, cons, mode):
    st = State(store, vars_, cons, mode=mode)
    ok = st.propagate()
    return st, ok


def random_problem(store, rng):
    u = Universe(3)
    x, y, z = alloc_set_vars(store, u, ["x", "y", "z"])
    pool = [
        lambda: ConstraintBdd(subseteq(store, x, y), (x, y)),
        lambda: ConstraintBdd(lexlt(store, x, y), (x, y)),
        lambda: ConstraintBdd(union_eq(store, z, x, y), (z, x, y)),
        lambda: ConstraintBdd(card_le(store, x, 2), (x,)),
        lambda: ConstraintBdd(inter_card_atmost(store, y, z, 1), (y, z)),
        lambda: ConstraintBdd(member(store, 1, z), (z,)),
        lambda: ConstraintBdd(not_member(store, 2, y), (y,)),
        lambda: ConstraintBdd(
            domain_bdd_of(store, x, [{1}, {2}, {1, 3}]), (x,)
        ),
    ]
    k = rng.randint(1, 4)
    cons = [rng.choice(pool)() for _ in range(k)]
    return (x, y, z), cons


def brute_solutions(store, vars_, cons):
    n = vars_[0].universe.n
    conj = store.conjoin([c.bdd for c in cons])
    out = []
    for combo in itertools.product(list(subsets(n)), repeat=len(vars_)):
        if holds(store, conj, dict(zip(vars_, combo))):
            out.append(combo)
    return out


def test_projection_example_subseteq(store):
    # D(v) = {{1},{1,3},{2,3}}, D(w) = {{2},{1,2},{1,3}} under v subseteq w
    u = Universe(3)
    v, w = alloc_set_vars(store, u, ["v", "w"])
    cons = [
        ConstraintBdd(domain_bdd_of(store, v, [{1}, {1, 3}, {2, 3}]), (v,)),
        ConstraintBdd(domain_bdd_of(store, w, [{2}, {1, 2}, {1, 3}]), (w,)),
        ConstraintBdd(subseteq(store, v, w), (v, w)),
    ]
    st, ok = make_state(store, [v, w], cons, "domain")
    assert ok
    assert domain_bdd(st, v) == domain_bdd_of(store, v, [{1}, {1, 3}])
    assert domain_bdd(st, w) == domain_bdd_of(store, w, [{1, 2}, {1, 3}])
    # element 1 is now forced into v
    fixed = st.fixed_bit_values(v)
    assert fixed.get(v.bit(1)) is True


def test_single_constraint_domain_mode_is_exact(store):
    rng = random.Random(7)
    for _ in range(25):
        s = NodeStore()
        vars_, cons = random_problem(s, rng)
        cons = cons[:1]
        st, ok = make_state(s, vars_, cons, "domain")
        sols = brute_solutions(s, vars_, cons)
        if not sols:
            assert not ok
            continue
        assert ok
        for i, v in enumerate(vars_):
            expected = {combo[i] for combo in sols}
            got = {
                t for t in subsets(3) if holds(s, domain_bdd(st, v), {v: t})
            }
            assert got == expected


@pytest.mark.parametrize("mode", MODES)
def test_propagation_sound_every_mode(mode):
    rng = random.Random(hash(mode) & 0xFFFF)
    for _ in range(20):
        s = NodeStore()
        vars_, cons = random_problem(s, rng)
        sols = brute_solutions(s, vars_, cons)
        st, ok = make_state(s, vars_, cons, mode)
        if not ok:
            assert not sols
            continue
        for combo in sols:
            for i, v in enumerate(vars_):
                assert holds(s, domain_bdd(st, v), {v: combo[i]})


def test_split_equals_domain_strength():
    rng = random.Random(99)
    for _ in range(20):
        s = NodeStore()
        vars_, cons = random_problem(s, rng)
        st_d, ok_d = make_state(s, vars_, cons, "domain")
        st_s, ok_s = make_state(s, vars_, cons, "split")
        assert ok_d == ok_s
        if ok_d:
            for v in vars_:
                assert domain_bdd(st_d, v) == domain_bdd(st_s, v)


def test_mode_dominance():
    # domain <= card/lex <= bounds as sets of remaining candidate values
    rng = random.Random(4242)
    for _ in range(15):
        s = NodeStore()
        vars_, cons = random_problem(s, rng)
        states = {}
        for mode in ("domain", "bounds", "card", "lex"):
            states[mode], ok = make_state(s, vars_, cons, mode)
            if not ok:
                states[mode] = None
        if states["domain"] is None:
            continue
        for weak in ("bounds", "card", "lex"):
            assert states[weak] is not None
            for v in vars_:
                strong = domain_bdd(states["domain"], v)
                approx = domain_bdd(states[weak], v)
                assert s.apply_imp(strong, approx) == TRUE
        for mid in ("card", "lex"):
            for v in vars_:
                assert (
                    s.apply_imp(
                        domain_bdd(states[mid], v), domain_bdd(states["bounds"], v)
                    )
                    == TRUE
                )


@pytest.mark.parametrize("mode", MODES)
def test_fixpoint_reached(mode):
    rng = random.Random(5)
    for _ in range(10):
        s = NodeStore()
        vars_, cons = random_problem(s, rng)
        st, ok = make_state(s, vars_, cons, mode)
        if not ok:
            continue
        before = (list(st.stick), list(st.rem), list(st.cons))
        for ci in range(len(st.cons)):
            st.enqueue(ci)
        assert st.propagate()
        assert (list(st.stick), list(st.rem), list(st.cons)) == before


def test_unsat_detected_and_undo(store):
    u = Universe(3)
    x, y = alloc_set_vars(store, u, ["x", "y"])
    cons = [
        ConstraintBdd(subseteq(store, x, y), (x, y)),
        ConstraintBdd(member(store, 1, x), (x,)),
        ConstraintBdd(not_member(store, 1, y), (y,)),
    ]
    st = State(store, [x, y], cons, mode="domain")
    m = st.mark()
    assert not st.propagate()
    st.undo(m)
    assert st.stick == [TRUE, TRUE] and st.rem == [TRUE, TRUE]


@pytest.mark.parametrize("mode", MODES)
def test_assign_propagate_undo_roundtrip(mode):
    s = NodeStore()
    u = Universe(4)
    x, y = alloc_set_vars(s, u, ["x", "y"])
    cons = [
        ConstraintBdd(subseteq(s, x, y), (x, y)),
        ConstraintBdd(card_le(s, y, 2), (y,)),
    ]
    st = State(s, [x, y], cons, mode=mode)
    assert st.propagate()
    snapshot = (list(st.stick), list(st.rem), list(st.cons))
    m = st.mark()
    assert st.assign(x, 3, True)
    assert st.propagate()
    # 3 in x forces 3 in y in every mode
    assert st.fixed_bit_values(y).get(y.bit(3)) is True
    st.undo(m)
    assert (list(st.stick), list(st.rem), list(st.cons)) == snapshot


def test_assign_conflicting_bit(store):
    u = Universe(3)
    (x,) = alloc_set_vars(store, u, ["x"])
    st = State(store, [x], [ConstraintBdd(member(store, 2, x), (x,))], mode="split")
    assert st.propagate()
    assert not st.assign(x, 2, False)
    assert st.assign(x, 2, True)  # agreeing assignment is a no-op


@pytest.mark.parametrize("element", [0, 4])
def test_assign_rejects_elements_outside_the_universe(store, element):
    (x,) = alloc_set_vars(store, Universe(3), ["x"])
    st = State(store, [x], [], mode="split")
    assert st.assign(x, 2, True)
    trail = list(st.trail)
    with pytest.raises(ValueError):
        st.assign(x, element, True)
    assert st.trail == trail


@pytest.mark.parametrize("mode", MODES)
def test_assign_bit_rejects_a_bit_of_another_variable(store, mode):
    # a remainder must mention only its own variable's bits
    x, y = alloc_set_vars(store, Universe(3), ["x", "y"])
    st = State(store, [x, y], [ConstraintBdd(subseteq(store, x, y), (x, y))], mode=mode)
    assert st.propagate()
    with pytest.raises(ValueError, match="not a bit of variable"):
        st.assign_bit(0, y.bits[0], True)
    assert st.trail == [] and st.fixed_bit_values(0) == {}


def test_card_mode_interval_extraction(store):
    # projection of lexlt(x, y) onto x allows cardinalities 0..2 over N=3
    u = Universe(3)
    x, y = alloc_set_vars(store, u, ["x", "y"])
    st = State(store, [x, y], [ConstraintBdd(lexlt(store, x, y), (x, y))], mode="card")
    assert st.propagate()
    xi = st.var_index(x)
    assert st.stick[xi] == TRUE
    assert st.rem[xi] == card(store, sorted(x.bits), 0, 2)
    # y cannot be empty, so its interval is 1..3 (which is entailed anyway)
    yi = st.var_index(y)
    assert st.rem[yi] == card(store, sorted(y.bits), 1, 3)


def test_bounds_mode_keeps_only_fixed_bits(store):
    u = Universe(3)
    x, y = alloc_set_vars(store, u, ["x", "y"])
    cons = [
        ConstraintBdd(subseteq(store, x, y), (x, y)),
        ConstraintBdd(eq_const(store, x, {1, 2}), (x,)),
    ]
    st, ok = make_state(store, [x, y], cons, "bounds")
    assert ok
    fy = st.fixed_bit_values(y)
    assert fy.get(y.bit(1)) is True and fy.get(y.bit(2)) is True
    assert st.rem[st.var_index(y)] == TRUE


def test_unary_retirement_by_mode():
    for mode, retired in [("domain", True), ("split", True), ("bounds", False)]:
        s = NodeStore()
        u = Universe(3)
        (x,) = alloc_set_vars(s, u, ["x"])
        st = State(s, [x], [ConstraintBdd(card_le(s, x, 1), (x,))], mode=mode)
        assert st.propagate()
        assert (st.cons[0] == TRUE) == retired


def test_entailed_constraint_retired_everywhere():
    for mode in MODES:
        s = NodeStore()
        u = Universe(3)
        x, y = alloc_set_vars(s, u, ["x", "y"])
        cons = [
            ConstraintBdd(eq_const(s, x, set()), (x,)),
            ConstraintBdd(subseteq(s, x, y), (x, y)),
        ]
        st, ok = make_state(s, [x, y], cons, mode)
        assert ok
        assert domain_bdd(st, y) == TRUE
        assert st.cons[1] == TRUE


def test_binary_retirement_by_mode():
    # with x = {1, 2} fixed, |x & y| <= 1 leaves "at most one of 1, 2 in y":
    # domain and split keep that exactly and retire the constraint; bounds,
    # card and lex cannot, so there it is not retired
    for mode in MODES:
        s = NodeStore()
        x, y = alloc_set_vars(s, Universe(3), ["x", "y"])
        cons = [
            ConstraintBdd(eq_const(s, x, {1, 2}), (x,)),
            ConstraintBdd(inter_card_atmost(s, x, y, 1), (x, y)),
        ]
        st, ok = make_state(s, [x, y], cons, mode)
        assert ok
        assert not st.is_determined(y)
        assert (st.cons[1] == TRUE) == (mode in ("domain", "split")), mode


def test_propagation_cache_reused(store):
    u = Universe(4)
    x, y = alloc_set_vars(store, u, ["x", "y"])
    cons = [ConstraintBdd(subseteq(store, x, y), (x, y))]
    st = State(store, [x, y], cons, mode="domain")
    assert st.propagate()
    m = st.mark()
    assert st.assign(x, 1, True) and st.propagate()
    st.undo(m)
    runs_before = st.runs
    assert st.assign(x, 1, True) and st.propagate()
    assert st.runs == runs_before
    assert st.cache_hits > 0


@pytest.mark.parametrize("mode", ["domain", "split"])
def test_wake_before_the_first_fixpoint_projects_the_whole_scope(mode):
    # the constraint has not run, so it is not at its fixpoint: the run
    # that x's change starts must still project onto x
    store = NodeStore()
    x, y = alloc_set_vars(store, Universe(3), ["x", "y"])
    st = State(store, [x, y], [ConstraintBdd(not_member(store, 1, x), (x, y))], mode=mode)
    start = st.mark()
    assert st.assign(x, 2, True) and st.propagate()
    assert st.fixed_bit_values(x) == {x.bit(1): False, x.bit(2): True}
    # and after an undo to the start, which queues the constraint again
    # (a new decision, since the run memo would replay the first run)
    st.undo(start)
    assert st.propagate()
    st.undo(start)
    assert st.assign(x, 3, True) and st.propagate()
    assert st.fixed_bit_values(x) == {x.bit(1): False, x.bit(3): True}


# In the next three tests, x subseteq y is woken by 1 in x but left short
# of its fixpoint.  The run that 3 in y then starts must still project onto
# y and find 1 in y: 3 in y alone changes no projection onto x.

def subseteq_state(mode):
    store = NodeStore()
    x, y = alloc_set_vars(store, Universe(3), ["x", "y"])
    st = State(store, [x, y], [ConstraintBdd(subseteq(store, x, y), (x, y))], mode=mode)
    assert st.propagate()
    return st, x, y


@pytest.mark.parametrize("mode", ["domain", "split"])
def test_undo_to_a_mark_taken_with_a_queue_projects_the_whole_scope(mode):
    # undo puts x subseteq y back on the queue, woken by x alone
    st, x, y = subseteq_state(mode)
    assert st.assign(x, 1, True)
    st.undo(st.mark())
    assert list(st.queue) == [0] and st._why == [st.var_index(x)]
    assert st.assign(y, 3, True) and st.propagate()
    assert st.fixed_bit_values(y) == {y.bit(1): True, y.bit(3): True}


@pytest.mark.parametrize("mode", ["domain", "split"])
def test_exception_in_propagate_projects_the_whole_scope_after(mode):
    # the run that the exception cuts short goes back on the queue
    st, x, y = subseteq_state(mode)
    assert st.assign(x, 1, True)
    with mock.patch.object(st.store, "and_exists", side_effect=NodeLimitExceeded):
        with pytest.raises(NodeLimitExceeded):
            st.propagate()
    assert list(st.queue) == [0] and st._why == [-1]
    assert st.assign(y, 3, True) and st.propagate()
    assert st.fixed_bit_values(y) == {y.bit(1): True, y.bit(3): True}


# and_exists calls of a pair run woken by one variable, of one woken by
# two, and of x = y over |x| = 1 and |y| = 2, with whether that run succeeds
PAIR_RUN_CALLS = {
    "domain": (1, 2, (False, 1)),
    "split": (1, 2, (False, 1)),
    "bounds": (0, 0, (True, 0)),
    "card": (2, 2, (False, 1)),
    "lex": (2, 2, (False, 2)),
}


@pytest.mark.parametrize("mode", MODES)
def test_a_pair_run_makes_only_its_kernel_calls(mode):
    # a pair run makes one and_exists per variable it projects onto: none
    # onto a lone waker in domain and split modes, none in bounds mode,
    # and none after the first empty projection
    def and_exists_calls(st, *decisions):
        store = st.store
        with mock.patch.object(store, "and_exists", wraps=store.and_exists) as spy:
            for v, k in decisions:
                assert st.assign(v, k, True)
            ok = st.propagate()
        return ok, spy.call_count

    lone, both, failing = PAIR_RUN_CALLS[mode]
    st, x, y = subseteq_state(mode)
    start = st.mark()
    assert and_exists_calls(st, (x, 1)) == (True, lone)
    st.undo(start)
    assert and_exists_calls(st, (x, 2), (y, 3)) == (True, both)
    # |x| = 1 and |y| = 2 are remainders, not sticks, so x = y cofactors
    # to itself; in domain, split and card modes its projection onto x is
    # empty, in lex mode the one onto y, and bounds mode projects nothing
    store = NodeStore()
    x, y = alloc_set_vars(store, Universe(3), ["x", "y"])
    cons = [
        ConstraintBdd(card_eq(store, x, 1), (x,)),
        ConstraintBdd(card_eq(store, y, 2), (y,)),
        ConstraintBdd(eq(store, x, y), (x, y)),
    ]
    assert and_exists_calls(State(store, [x, y], cons, mode=mode)) == failing


@pytest.mark.parametrize("mode", ["domain", "split"])
def test_failed_state_projects_the_whole_scope(mode):
    # 1 in x forces 1 in z and 1 out of z: the second run fails and goes
    # back on the queue, so the state stays failed, also after an undo to
    # a mark taken in it; x subseteq y, queued when the failure came,
    # still runs and projects onto y
    store = NodeStore()
    x, y, z = alloc_set_vars(store, Universe(3), ["x", "y", "z"])
    one_in_x = member(store, 1, x)
    cons = [
        ConstraintBdd(store.apply_imp(one_in_x, member(store, 1, z)), (x, z)),
        ConstraintBdd(store.apply_imp(one_in_x, not_member(store, 1, z)), (x, z)),
        ConstraintBdd(subseteq(store, x, y), (x, y)),
    ]
    st = State(store, [x, y, z], cons, mode=mode)
    assert st.propagate()
    assert st.assign(x, 1, True) and not st.propagate()
    st.undo(st.mark())
    assert st.assign(y, 3, True) and not st.propagate()
    assert st.fixed_bit_values(y) == {y.bit(1): True, y.bit(3): True}
    assert not st.propagate()


@pytest.mark.parametrize("mode", MODES)
def test_failed_state_stays_failed_until_an_undo(mode):
    # 1 in x forces 1 in z and 1 out of z; the failed run is queued
    # again, so every propagate() fails until an undo to before 1 in x
    store = NodeStore()
    x, z = alloc_set_vars(store, Universe(3), ["x", "z"])
    one_in_x = member(store, 1, x)
    cons = [
        ConstraintBdd(store.apply_imp(one_in_x, member(store, 1, z)), (x, z)),
        ConstraintBdd(store.apply_imp(one_in_x, not_member(store, 1, z)), (x, z)),
    ]
    st = State(store, [x, z], cons, mode=mode)
    assert st.propagate()
    m = st.mark()
    assert st.assign(x, 1, True) and not st.propagate()
    assert not st.propagate()
    assert not st.propagate()
    st.undo(m)
    assert st.propagate() and not st.queue
    assert st.fixed_bit_values(x) == {}


@pytest.mark.parametrize("mode", MODES)
def test_a_run_wakes_the_other_watchers_but_not_itself(mode):
    # 1 in x wakes x subseteq y alone; its run puts 1 in y, which wakes
    # y subseteq z, and leaves x subseteq y at its fixpoint, off the queue;
    # a replay from the run memo does the same
    store = NodeStore()
    x, y, z = alloc_set_vars(store, Universe(3), ["x", "y", "z"])
    cons = [
        ConstraintBdd(subseteq(store, x, y), (x, y)),
        ConstraintBdd(subseteq(store, y, z), (y, z)),
    ]
    st = State(store, [x, y, z], cons, mode=mode)
    assert st.propagate()
    woken = st.var_index(y)
    start = st.mark()
    for hits in (0, 1):
        assert st.assign(x, 1, True) and list(st.queue) == [0]
        # a clock that passes the deadline after one queue entry
        ticks = itertools.count()
        with mock.patch.object(propagate, "time", SimpleNamespace(perf_counter=lambda: next(ticks))):
            with pytest.raises(DeadlineExceeded):
                st.propagate(1)
        assert st.cache_hits == hits
        assert list(st.queue) == [1] and st._why == [None, woken]
        assert st.fixed_bit_values(y)[y.bit(1)] is True
        st.undo(start)


@pytest.mark.parametrize("mode", MODES)
def test_a_replay_that_changes_no_domain_restores_only_its_constraint(mode):
    # 1 in y specialises x subseteq y but prunes neither domain; replayed
    # from the run memo, the run puts no domain, so it trails only the
    # constraint and queues nothing
    store = NodeStore()
    x, y = alloc_set_vars(store, Universe(3), ["x", "y"])
    st = State(store, [x, y], [ConstraintBdd(subseteq(store, x, y), (x, y))], mode=mode)
    assert st.propagate()
    start = st.mark()
    assert st.assign(y, 1, True)
    domains = (list(st.stick), list(st.rem))
    assert st.propagate() and st.cache_hits == 0
    spec = st.cons[0]
    assert (list(st.stick), list(st.rem)) == domains and spec != TRUE
    st.undo(start)
    assert st.assign(y, 1, True)
    size = len(st.trail)
    with mock.patch.object(st, "_put", side_effect=AssertionError("a domain was put")):
        assert st.propagate() and st.cache_hits == 1
    assert [a is st.cons for a, _, _ in st.trail[size:]] == [True]
    assert st.cons[0] == spec and not st.queue
    assert (list(st.stick), list(st.rem)) == domains


@pytest.mark.parametrize("mode", ["bounds", "card", "lex"])
def test_stick_prunes_its_own_variable(mode):
    # these modes keep only an abstraction of a projection, so a run woken
    # by x alone must still project onto x: c, specialised to 1 in x,
    # fixes 2 out of x
    store = NodeStore()
    (x,) = alloc_set_vars(store, Universe(3), ["x"])
    c = store.negate(store.apply_and(member(store, 1, x), member(store, 2, x)))
    st = State(store, [x], [ConstraintBdd(c, (x,))], mode=mode)
    assert st.propagate() and st.cons[0] != TRUE
    assert st.assign(x, 1, True) and st.propagate()
    assert st.fixed_bit_values(x) == {x.bit(1): True, x.bit(2): False}


@pytest.mark.parametrize("mode", MODES)
def test_propagate_a_constraint_deeper_than_the_recursion_limit(deep_card_eq, mode):
    store, v, c = deep_card_eq
    state = State(store, [v], [ConstraintBdd(c, (v,))], mode=mode)
    assert state.propagate()
    assert state.fixed_bit_values(v) == {}


def test_partition_scenario(store):
    # x, y, z partition {1,2,3}; placing 1 and 2 in x leaves 3 shared
    # between y and z, and excludes 1,2 from both
    u = Universe(3)
    x, y, z = alloc_set_vars(store, u, ["x", "y", "z"])
    st = State(
        store,
        [x, y, z],
        [ConstraintBdd(partition(store, [x, y, z]), (x, y, z))],
        mode="domain",
    )
    assert st.propagate()
    assert st.assign(x, 1, True) and st.assign(x, 2, True) and st.propagate()
    for v in (y, z):
        f = st.fixed_bit_values(v)
        assert f.get(v.bit(1)) is False and f.get(v.bit(2)) is False
    assert st.assign(y, 3, True) and st.propagate()
    assert all(st.is_determined(v) for v in (x, y, z))
    values = snapshot(st)
    assert values["z"] == frozenset()
    assert values["x"] == frozenset({1, 2})


def test_false_constraint_fails_its_first_run(store):
    # a constraint that is FALSE when built is kept, and its first run
    # wipes out, like any other failure at the root; with an empty scope
    # there is nothing to project, and the run must still end
    x, y = alloc_set_vars(store, Universe(2), ["x", "y"])
    scoped = [
        ConstraintBdd(subseteq(store, x, y), (x, y)),
        ConstraintBdd(FALSE, (x, y)),
    ]
    for variables, cons in (([x, y], scoped), ([], [ConstraintBdd(FALSE)])):
        for mode in MODES:
            st = State(store, variables, cons, mode=mode)
            start = st.mark()
            assert TRUE not in st.cons
            assert not st.propagate()
            # the failed run is memoised like any other
            st.undo(start)
            runs = st.runs
            assert not st.propagate()
            assert st.runs == runs and st.cache_hits > 0, mode


def test_unknown_mode_rejected(store):
    (x,) = alloc_set_vars(store, Universe(2), ["x"])
    with pytest.raises(ValueError):
        State(store, [x], [], mode="strongest")


def test_constraint_outside_its_scope_rejected(store):
    u = Universe(3)
    x, y = alloc_set_vars(store, u, ["x", "y"])
    # x <= y mentions y's bits, but y is missing from the declared scope
    wrong = ConstraintBdd(subseteq(store, x, y), (x,), name="x-sub-y")
    # the error names the smallest stray bit, y's bit for element 1
    with pytest.raises(ValueError, match=f"x-sub-y.* bit {y.bits[0]} outside"):
        State(store, [x, y], [wrong])
    State(store, [x, y], [ConstraintBdd(subseteq(store, x, y), (x, y))])


@pytest.mark.parametrize(
    "variables,scope,match",
    [
        ("xx", "x", r"variable SetVar\(x\) is listed twice"),
        ("x", "xx", "in-x repeats a scope variable"),
        ("x", "xy", r"in-x names SetVar\(y\), which is not a state variable"),
    ],
    ids=["variable-listed-twice", "scope-repeats-a-variable", "scope-outside-the-state"],
)
def test_malformed_state_input_rejected(store, variables, scope, match):
    named = dict(zip("xy", alloc_set_vars(store, Universe(3), ["x", "y"])))
    in_x = ConstraintBdd(member(store, 1, named["x"]), tuple(named[v] for v in scope), "in-x")
    with pytest.raises(ValueError, match=match):
        State(store, [named[v] for v in variables], [in_x])


def test_foreign_variable_rejected_by_name(store):
    from bddsets.search import solve

    x, z = alloc_set_vars(store, Universe(3), ["x", "z"])
    st = State(store, [x], [ConstraintBdd(member(store, 1, x), (x,))])
    calls = [
        lambda: st.var_index(z),
        lambda: st.assign(z, 1),
        lambda: st.fixed_bit_values(z),
        lambda: st.is_determined(z),
        lambda: solve(st, branch_vars=[z]),
    ]
    for call in calls:
        with pytest.raises(ValueError, match=r"^SetVar\(z\) is not a state variable$"):
            call()
    assert st.var_index(x) == 0 and st.assign(x, 2) and st.propagate()


def test_a_state_run_memo_goes_with_the_state(store):
    # a store serves several states in turn: each state's run memo leaves
    # the store with the state, so neither the memo list nor the entry
    # count grows with the number of states solved
    from bddsets.search import solve

    x, y = alloc_set_vars(store, Universe(4), ["x", "y"])
    cons = [
        ConstraintBdd(subseteq(store, x, y), (x, y)),
        ConstraintBdd(card_eq(store, x, 2), (x,)),
    ]
    dropped = []
    for _ in range(100):
        st = State(store, [x, y], cons)
        assert len(solve(st, all_solutions=True).solutions) == 24
        dropped.append(st._prop_cache)
        del st
    assert all(dropped) and len(store._memos) <= 10
    assert not any(m is d for m in store._memos for d in dropped)
    # the dropped memos are not emptied, but no longer counted
    assert store.cache_entries() < sum(map(len, dropped))
