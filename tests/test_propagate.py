import itertools
import random

import pytest

from bddsets.engine import FALSE, TRUE, NodeStore
from bddsets.propagate import MODES, State
from bddsets.search import snapshot
from bddsets.sets import (
    ConstraintBdd,
    Universe,
    alloc_set_vars,
    card,
    card_le,
    eq_const,
    inter_card_atmost,
    lexlt,
    member,
    not_member,
    partition,
    subseteq,
    union_eq,
)


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
    return store.eval_node(bdd, env)


def domain_bdd_of(store, var, sets):
    from bddsets.sets import eq_const

    acc = FALSE
    for s in sets:
        acc = store.apply_or(acc, eq_const(store, var, s))
    return acc


def make_state(store, vars_, cons, mode):
    st = State(store, vars_, cons, mode=mode)
    ok = st.propagate_from_scratch()
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
    assert st.domain_bdd(v) == domain_bdd_of(store, v, [{1}, {1, 3}])
    assert st.domain_bdd(w) == domain_bdd_of(store, w, [{1, 2}, {1, 3}])
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
                t for t in subsets(3) if holds(s, st.domain_bdd(v), {v: t})
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
                assert holds(s, st.domain_bdd(v), {v: combo[i]})


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
                assert st_d.domain_bdd(v) == st_s.domain_bdd(v)


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
                strong = states["domain"].domain_bdd(v)
                approx = states[weak].domain_bdd(v)
                assert s.apply_imp(strong, approx) == TRUE
        for mid in ("card", "lex"):
            for v in vars_:
                assert (
                    s.apply_imp(
                        states[mid].domain_bdd(v), states["bounds"].domain_bdd(v)
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
        assert st.propagate_from_scratch()
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
    assert not st.propagate_from_scratch()
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
    assert st.propagate_from_scratch()
    snapshot = (list(st.stick), list(st.rem), list(st.cons), list(st.active))
    m = st.mark()
    assert st.assign(x, 3, True)
    assert st.propagate()
    # 3 in x forces 3 in y in every mode
    assert st.fixed_bit_values(y).get(y.bit(3)) is True
    st.undo(m)
    assert (list(st.stick), list(st.rem), list(st.cons), list(st.active)) == snapshot


def test_assign_conflicting_bit(store):
    u = Universe(3)
    (x,) = alloc_set_vars(store, u, ["x"])
    st = State(store, [x], [ConstraintBdd(member(store, 2, x), (x,))], mode="split")
    assert st.propagate_from_scratch()
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


def test_card_mode_interval_extraction(store):
    # projection of lexlt(x, y) onto x allows cardinalities 0..2 over N=3
    u = Universe(3)
    x, y = alloc_set_vars(store, u, ["x", "y"])
    st = State(store, [x, y], [ConstraintBdd(lexlt(store, x, y), (x, y))], mode="card")
    assert st.propagate_from_scratch()
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
        assert st.propagate_from_scratch()
        assert st.active[0] != retired


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
        assert st.domain_bdd(y) == TRUE
        assert st.active[1] is False


def test_binary_retirement_by_mode():
    # with x = {1, 2} fixed, |x & y| <= 1 leaves "at most one of 1, 2 in y":
    # domain and split keep that exactly and retire the constraint; bounds,
    # card and lex cannot, so it stays active there
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
        assert st.active[1] is (mode not in ("domain", "split")), mode


def test_propagation_cache_reused(store):
    u = Universe(4)
    x, y = alloc_set_vars(store, u, ["x", "y"])
    cons = [ConstraintBdd(subseteq(store, x, y), (x, y))]
    st = State(store, [x, y], cons, mode="domain")
    assert st.propagate_from_scratch()
    m = st.mark()
    assert st.assign(x, 1, True) and st.propagate()
    st.undo(m)
    runs_before = st.runs
    assert st.assign(x, 1, True) and st.propagate()
    assert st.runs == runs_before
    assert st.cache_hits > 0


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
    assert st.propagate_from_scratch()
    assert st.assign(x, 1, True) and st.assign(x, 2, True) and st.propagate()
    for v in (y, z):
        f = st.fixed_bit_values(v)
        assert f.get(v.bit(1)) is False and f.get(v.bit(2)) is False
    assert st.assign(y, 3, True) and st.propagate()
    assert all(st.is_determined(v) for v in (x, y, z))
    values = snapshot(st)
    assert values["z"] == frozenset()
    assert values["x"] == frozenset({1, 2})


def test_false_constraint_rejected(store):
    u = Universe(2)
    (x,) = alloc_set_vars(store, u, ["x"])
    with pytest.raises(ValueError):
        State(store, [x], [ConstraintBdd(FALSE, (x,))])
    with pytest.raises(ValueError):
        State(store, [x], [], mode="strongest")


def test_constraint_outside_its_scope_rejected(store):
    u = Universe(3)
    x, y = alloc_set_vars(store, u, ["x", "y"])
    # x <= y mentions y's bits, but y is missing from the declared scope
    wrong = ConstraintBdd(subseteq(store, x, y), (x,), name="x-sub-y")
    with pytest.raises(ValueError, match="x-sub-y"):
        State(store, [x, y], [wrong])
    State(store, [x, y], [ConstraintBdd(subseteq(store, x, y), (x, y))])
