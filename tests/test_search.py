import gc
import itertools
import random
import weakref
from types import SimpleNamespace

import pytest

from bddsets import propagate, search
from bddsets.engine import NodeStore, TRUE
from bddsets.models import HammingSpec, SteinerSpec, build_hamming, build_steiner
from bddsets.propagate import MODES, DeadlineExceeded, State
from bddsets.search import (
    SearchResult,
    Strategy,
    optimize_incremental,
    snapshot,
    solve,
)
from bddsets.sets import (
    ConstraintBdd,
    Universe,
    alloc_set_vars,
    card_eq,
    card_le,
    eq,
    lexlt,
    member,
    not_member,
    subseteq,
    union_eq,
)

from conftest import collect_at_every_node, eval_node


def subsets(n):
    elems = list(range(1, n + 1))
    for r in range(n + 1):
        for c in itertools.combinations(elems, r):
            yield frozenset(c)


def test_strategy_validation():
    with pytest.raises(ValueError):
        Strategy(var_order="static")
    with pytest.raises(ValueError):
        Strategy(value_order="median")
    with pytest.raises(ValueError):
        Strategy(branch="random")


def test_unconstrained_all_solutions(store):
    u = Universe(3)
    (x,) = alloc_set_vars(store, u, ["x"])
    st = State(store, [x], [], mode="domain")
    res = solve(st, all_solutions=True)
    assert res.status == "all"
    assert len(res.solutions) == 8
    # exhaustive search counts the backtrack past each non-final solution
    assert res.fails == 7
    assert {s["x"] for s in res.solutions} == set(subsets(3))


def test_first_solution_depends_on_branch_order(store):
    u = Universe(4)
    (x,) = alloc_set_vars(store, u, ["x"])
    cons = [ConstraintBdd(card_eq(store, x, 2), (x,))]
    st = State(store, [x], cons, mode="domain")
    res = solve(st, Strategy(value_order="largest", branch="not_in_first"))
    assert res.status == "sat"
    assert res.solutions[0]["x"] == frozenset({1, 2})
    st2 = State(store, [x], cons, mode="domain")
    res2 = solve(st2, Strategy(value_order="largest", branch="in_first"))
    assert res2.solutions[0]["x"] == frozenset({3, 4})
    st3 = State(store, [x], cons, mode="domain")
    res3 = solve(st3, Strategy(value_order="smallest", branch="in_first"))
    assert res3.solutions[0]["x"] == frozenset({1, 2})


def test_root_failure_counts_zero_fails(store):
    u = Universe(3)
    (x,) = alloc_set_vars(store, u, ["x"])
    cons = [
        ConstraintBdd(member(store, 1, x), (x,)),
        ConstraintBdd(not_member(store, 1, x), (x,)),
    ]
    st = State(store, [x], cons, mode="domain")
    res = solve(st)
    assert res.status == "unsat"
    assert res.fails == 0


def test_search_failures_counted_in_weak_mode(store):
    # |x| = 2 and |x| <= 1 conflict, but bounds propagation cannot see it
    # at the root, so search must discover it
    u = Universe(3)
    (x,) = alloc_set_vars(store, u, ["x"])
    cons = [
        ConstraintBdd(card_eq(store, x, 2), (x,)),
        ConstraintBdd(card_le(store, x, 1), (x,)),
    ]
    st = State(store, [x], cons, mode="bounds")
    res = solve(st)
    assert res.status == "unsat"
    assert res.fails > 0


def test_all_solutions_match_brute_force_every_mode():
    rng = random.Random(314)
    for mode in ("domain", "bounds", "split", "card", "lex"):
        for _ in range(6):
            s = NodeStore()
            u = Universe(3)
            x, y = alloc_set_vars(s, u, ["x", "y"])
            pool = [
                ConstraintBdd(subseteq(s, x, y), (x, y)),
                ConstraintBdd(lexlt(s, x, y), (x, y)),
                ConstraintBdd(card_le(s, y, 2), (y,)),
                ConstraintBdd(member(s, 2, y), (y,)),
            ]
            cons = rng.sample(pool, rng.randint(1, 3))
            conj = s.conjoin([c.bdd for c in cons])
            expected = set()
            for a, b in itertools.product(list(subsets(3)), repeat=2):
                env = {}
                for i, bit in enumerate(x.bits):
                    env[bit] = (i + 1) in a
                for i, bit in enumerate(y.bits):
                    env[bit] = (i + 1) in b
                if eval_node(s, conj, env):
                    expected.add((a, b))
            st = State(s, [x, y], cons, mode=mode)
            res = solve(st, all_solutions=True)
            got = {(sol["x"], sol["y"]) for sol in res.solutions}
            assert got == expected, mode


def test_first_fail_prefers_fewer_unfixed_bits(store):
    u = Universe(3)
    x, y = alloc_set_vars(store, u, ["x", "y"])
    # fix two of x's bits, leaving x with one unfixed bit against y's three
    cons = [
        ConstraintBdd(member(store, 1, x), (x,)),
        ConstraintBdd(not_member(store, 2, x), (x,)),
    ]
    st = State(store, [x, y], cons, mode="domain")
    assert st.propagate()
    steps = []

    def on_step(state, step):
        if step:
            steps.append((len(state.fixed_bit_values(0)), len(state.fixed_bit_values(1))))

    res = solve(st, Strategy(var_order="first_fail"), on_step=on_step)
    assert res.status == "sat"
    # the first labeling step finishes x (fewest unfixed bits) before y
    assert steps[0] == (3, 0)


def test_max_solutions_cap(store):
    u = Universe(3)
    (x,) = alloc_set_vars(store, u, ["x"])
    st = State(store, [x], [], mode="domain")
    res = solve(st, all_solutions=True, max_solutions=3)
    assert res.status == "sat"
    assert len(res.solutions) == 3


def test_time_limit(store):
    u = Universe(3)
    (x,) = alloc_set_vars(store, u, ["x"])
    st = State(store, [x], [], mode="domain")
    res = solve(st, all_solutions=True, time_limit=0.0)
    assert res.status == "timeout"


def test_zero_time_limit_runs_no_propagator():
    model = build_steiner(SteinerSpec(2, 3, 7))
    st = State(model.store, model.vars, model.constraints)
    res = solve(st, model.strategy, branch_vars=model.branch_vars, time_limit=0.0)
    assert res.status == "timeout"
    assert st.runs == 0 and res.nodes == 0
    # the deadline is checked before a constraint leaves the queue
    assert sorted(st.queue) == list(range(len(st.cons)))


def test_timeout_in_root_propagation_leaves_state_consistent(monkeypatch):
    model = build_steiner(SteinerSpec(2, 3, 7))
    fresh = State(model.store, model.vars, model.constraints)
    assert fresh.propagate()
    # a clock that ticks once per reading: solve starts it at 0, and
    # propagate reads it before each queue entry, so the deadline of 10
    # ticks falls after at most 9 runs, long before the root fixpoint
    ticks = itertools.count()
    clock = SimpleNamespace(perf_counter=lambda: next(ticks))
    monkeypatch.setattr(search, "time", clock)
    monkeypatch.setattr(propagate, "time", clock)
    st = State(model.store, model.vars, model.constraints)
    start = st.mark()
    res = solve(st, model.strategy, branch_vars=model.branch_vars, time_limit=10)
    assert res.status == "timeout" and res.nodes == 0
    assert 0 < st.runs < fresh.runs
    fixpoint = (fresh.stick, fresh.rem, fresh.cons)
    # no run was cut short, so the queue resumes where it stopped ...
    assert st.propagate()
    assert (st.stick, st.rem, st.cons) == fixpoint
    # ... and undo restores the state propagation started from, queue
    # included
    st.undo(start)
    assert st.propagate()
    assert (st.stick, st.rem, st.cons) == fixpoint


def test_node_limit_in_search_undoes_to_the_root_fixpoint():
    # limits from just above the root fixpoint's table size: the ceiling is
    # hit in the first choices' propagation, at depth 1 as well as deeper
    model = build_steiner(SteinerSpec(2, 3, 7))
    assert State(model.store, model.vars, model.constraints).propagate()
    at_root = model.store.node_count()
    for limit in range(at_root + 1, at_root + 60):
        model = build_steiner(SteinerSpec(2, 3, 7), node_limit=limit)
        st = State(model.store, model.vars, model.constraints)
        assert st.propagate()
        root = (list(st.stick), list(st.rem), list(st.cons))
        res = solve(st, model.strategy, branch_vars=model.branch_vars)
        assert res.status == "nodelimit" and res.nodes > 0
        assert (st.stick, st.rem, st.cons) == root, limit


@pytest.mark.parametrize("mode", MODES)
def test_run_memo_is_untracked_by_the_cycle_collector(mode):
    # the memo maps ints to ints, so the collector never walks it
    model = build_steiner(SteinerSpec(2, 3, 7))
    st = State(model.store, model.vars, model.constraints, mode=mode)
    res = solve(st, model.strategy, branch_vars=model.branch_vars, all_solutions=True)
    assert len(res.solutions) == 30 and st.cache_hits > 0
    assert gc.is_tracked(st._prop_cache) is False


# S(2,3,7) merged, all 30 solutions: fails, propagator runs, run-memo hits
# and table nodes per mode.  Runs and hits move with the queue order, the
# retirement rule and the run memo's keys, so a faster run path must leave
# all four as they are.
STEINER_237_COUNTS = {
    "domain": (47, 1_426, 139, 7_980),
    "bounds": (537, 3_128, 18_817, 6_408),
    "split": (47, 1_426, 139, 7_980),
    "card": (267, 2_814, 12_453, 9_621),
    "lex": (76, 4_193, 1_146, 11_973),
}


@pytest.mark.parametrize("mode", MODES)
def test_runs_memo_hits_and_nodes_are_pinned(mode):
    model = build_steiner(SteinerSpec(2, 3, 7))
    st = State(model.store, model.vars, model.constraints, mode=mode)
    res = solve(st, model.strategy, branch_vars=model.branch_vars, all_solutions=True)
    assert res.status == "all" and len(res.solutions) == 30
    got = (res.fails, st.runs, st.cache_hits, model.store.node_count())
    assert got == STEINER_237_COUNTS[mode]


@pytest.mark.parametrize("mode", MODES)
def test_search_specialises_without_conjoining_sticks(mode, monkeypatch):
    # sticks of different variables range over disjoint bits, so a
    # constraint is cofactored by each in turn and their conjunction is
    # never built; the model builders still conjoin
    def state():
        model = build_steiner(SteinerSpec(2, 3, 7))
        return model, State(model.store, model.vars, model.constraints, mode=mode)

    def conjoin(self, nodes):
        raise AssertionError("propagation built a conjunction")

    model, st = state()
    plain = solve(st, model.strategy, branch_vars=model.branch_vars, all_solutions=True)
    model, st = state()
    monkeypatch.setattr(NodeStore, "conjoin", conjoin)
    res = solve(st, model.strategy, branch_vars=model.branch_vars, all_solutions=True)
    assert res.status == plain.status == "all" and len(res.solutions) == 30
    assert (res.solutions, res.fails, res.nodes) == (plain.solutions, plain.fails, plain.nodes)


def test_search_leaves_state_restored(store):
    u = Universe(3)
    x, y = alloc_set_vars(store, u, ["x", "y"])
    cons = [ConstraintBdd(union_eq(store, y, x, x), (y, x))]
    st = State(store, [x, y], cons, mode="split")
    assert st.propagate()
    before = (list(st.stick), list(st.rem), list(st.cons))
    m = st.mark()
    res = solve(st, all_solutions=True)
    st.undo(m)
    assert len(res.solutions) == 8  # y = x, any x
    assert (list(st.stick), list(st.rem), list(st.cons)) == before


def test_branch_vars_channel_determines_rest(store):
    u = Universe(3)
    x, y = alloc_set_vars(store, u, ["x", "y"])
    cons = [ConstraintBdd(eq(store, x, y), (x, y))]
    st = State(store, [x, y], cons, mode="domain")
    res = solve(st, branch_vars=[x], all_solutions=True)
    assert len(res.solutions) == 8
    for sol in res.solutions:
        assert sol["x"] == sol["y"]


def test_optimize_incremental():
    # largest chain of lexicographically increasing singletons over {1..3}
    def build(n):
        s = NodeStore()
        u = Universe(3)
        vs = alloc_set_vars(s, u, [f"v{i}" for i in range(n)])
        cons = [ConstraintBdd(card_eq(s, v, 1), (v,)) for v in vs]
        cons += [
            ConstraintBdd(lexlt(s, a, b), (a, b)) for a, b in zip(vs, vs[1:])
        ]
        return State(s, vs, cons, mode="domain"), Strategy(), None

    best, status, fails = optimize_incremental(build)
    assert status == "optimal"
    n, sol = best
    assert n == 3
    assert {len(v) for v in sol.values()} == {1}


@pytest.mark.parametrize("status", ["timeout", "nodelimit"])
def test_optimize_keeps_best_when_a_solve_is_cut_short(status):
    # n = 1 solves S(2,3,7); the n = 2 solve, not build(2), is cut short:
    # its propagation raises DeadlineExceeded, as it does once its deadline
    # passes, or its store reaches a node ceiling just above the root
    # fixpoint's table
    model = build_steiner(SteinerSpec(2, 3, 7))
    st = State(model.store, model.vars, model.constraints)
    assert st.propagate()
    at_root = model.store.node_count()
    first = solve(st, model.strategy, branch_vars=model.branch_vars)
    assert first.status == "sat"

    def out_of_time(deadline=None):
        raise DeadlineExceeded

    cut = []

    def build(n):
        limit = at_root + 1 if n > 1 and status == "nodelimit" else None
        model = build_steiner(SteinerSpec(2, 3, 7), node_limit=limit)
        state = State(model.store, model.vars, model.constraints)
        if n > 1:
            cut.append(n)
            if status == "timeout":
                state.propagate = out_of_time
        return state, model.strategy, model.branch_vars

    best, got, fails = optimize_incremental(build)
    assert got == status and cut == [2]
    assert best == (1, first.solutions[0])
    assert fails >= first.fails


def test_optimize_incremental_unsat_at_start():
    def build(n):
        s = NodeStore()
        u = Universe(2)
        vs = alloc_set_vars(s, u, [f"v{i}" for i in range(n)])
        cons = [
            ConstraintBdd(member(s, 1, vs[0]), (vs[0],)),
            ConstraintBdd(not_member(s, 1, vs[0]), (vs[0],)),
        ]
        return State(s, vs, cons, mode="domain"), Strategy(), None

    best, status, fails = optimize_incremental(build)
    assert best is None and status == "optimal"


def small_problem(s, mode="domain"):
    u = Universe(4)
    x, y = alloc_set_vars(s, u, ["x", "y"])
    cons = [
        ConstraintBdd(card_eq(s, x, 2), (x,)),
        ConstraintBdd(subseteq(s, x, y), (x, y)),
        ConstraintBdd(lexlt(s, x, y), (x, y)),
    ]
    return State(s, [x, y], cons, mode=mode)


@pytest.mark.parametrize("mode", MODES)
def test_search_with_aggressive_garbage_collection(mode):
    # force a collection at every node, through maintain() and straight
    # from gc_roots(), and check the search result is unchanged from an
    # uncollected run; the run memo also holds domain updates, which a
    # collection must drop
    plain = solve(small_problem(NodeStore(), mode), all_solutions=True)
    for direct in (False, True):
        gc_state = small_problem(NodeStore(), mode)
        entries = collect_at_every_node(gc_state, direct)
        collected = solve(gc_state, all_solutions=True)
        assert gc_state.store._free and entries == [0] * collected.nodes
        assert (collected.status, collected.fails, collected.nodes, len(collected.solutions)) == (
            plain.status, plain.fails, plain.nodes, len(plain.solutions)
        )
        assert {(s["x"], s["y"]) for s in collected.solutions} == {
            (s["x"], s["y"]) for s in plain.solutions
        }


def test_run_memo_bounded_by_the_cache_trigger():
    # maintain() counts the run memo against the trigger and drops it with
    # the kernel memos, so a long search cannot grow it without limit
    unbounded = small_problem(NodeStore())
    plain = solve(unbounded, all_solutions=True)
    assert len(unbounded._prop_cache) > 4
    state = small_problem(NodeStore())
    state.cache_clear_trigger = 4
    sizes = []
    maintain = state.maintain

    def watched():
        maintain()
        sizes.append(len(state._prop_cache))

    state.maintain = watched
    bounded = solve(state, all_solutions=True)
    assert sizes and max(sizes) <= 4
    assert (bounded.status, bounded.fails, bounded.nodes) == (plain.status, plain.fails, plain.nodes)
    assert bounded.solutions == plain.solutions


def test_search_deeper_than_the_recursion_limit(store):
    # not-in first with only upper cardinality bounds labels every bit
    # of every variable out, one choice point per bit, and never fails
    xs = alloc_set_vars(store, Universe(30), [f"x{i}" for i in range(40)])
    cons = [ConstraintBdd(card_le(store, x, 2), (x,)) for x in xs]
    res = solve(State(store, xs, cons))
    assert (res.status, res.nodes, res.fails) == ("sat", 1200, 0)
    assert not any(res.solutions[0].values())


@pytest.mark.parametrize(
    "build, mode",
    [
        (lambda: build_steiner(SteinerSpec(t=2, k=3, n=7)), "domain"),
        (lambda: build_steiner(SteinerSpec(t=2, k=3, n=7)), "split"),
        (lambda: build_hamming(HammingSpec(l=5, d=3, w=2, n=2)), "lex"),
        (lambda: build_hamming(HammingSpec(l=5, d=3, w=2, n=2)), "card"),
    ],
)
def test_solved_store_freed_without_the_cycle_collector(build, mode):
    # model build, search and propagation leave no cycle through the store,
    # so a solved model's store goes as soon as the caller drops the state
    # and the model
    gc.collect()
    gc.disable()
    try:
        model = build()
        state = State(model.store, model.vars, model.constraints, mode=mode)
        res = solve(state, model.strategy, branch_vars=model.branch_vars, all_solutions=True)
        assert res.solutions
        ref = weakref.ref(model.store)
        del state, model
        assert ref() is None
    finally:
        gc.enable()


def test_optimize_keeps_best_when_a_build_hits_the_node_limit():
    # n = 1 ends at 9 nodes and the n = 2 build needs 44
    def build(n):
        model = build_hamming(HammingSpec(l=3, d=3, w=1, n=n), node_limit=20)
        state = State(model.store, model.vars, model.constraints, mode="domain")
        return state, model.strategy, model.branch_vars

    best, status, fails = optimize_incremental(build)
    assert status == "nodelimit" and fails == 0
    assert best[0] == 1
