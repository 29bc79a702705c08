import gc
import itertools
import operator
import random
import weakref

import pytest

from bddsets.analysis import stick_of
from bddsets.engine import FALSE, TRUE, NodeStore, NodeLimitExceeded, OrderingViolation

from conftest import apply_op, exists_table, hot_tables, models_of, random_bdd, truth_table

OPS = {
    "and": operator.and_,
    "or": operator.or_,
    "xor": operator.xor,
    "iff": lambda a, b: a == b,
}


def test_mk_node_redundant_test_elimination(store):
    v = store.new_var()
    x = store.literal(store.new_var())
    assert store.mk_node(v, x, x) == x


def test_mk_node_canonical_handle(store):
    v = store.new_var()
    a = store.mk_node(v, TRUE, FALSE)
    b = store.mk_node(v, TRUE, FALSE)
    assert a == b


def test_mk_node_two_variable_conjunction(store):
    v1, v2 = store.new_vars(2)
    inner = store.mk_node(v2, TRUE, FALSE)
    a = store.mk_node(v1, inner, FALSE)
    assert store.size(a) == 2
    # truth table oracle over {v1, v2}
    for b1, b2 in itertools.product([False, True], repeat=2):
        assert store.eval_node(a, {v1: b1, v2: b2}) == (b1 and b2)


def test_mk_node_ordering_violation_detected(store):
    v1, v2 = store.new_vars(2)
    child = store.literal(v1)
    with pytest.raises(OrderingViolation):
        store.mk_node(v2, child, FALSE)


def test_apply_contradiction_and_identity(store):
    x = store.literal(store.new_var())
    assert store.apply_and(x, store.negate(x)) == FALSE
    assert store.apply_or(x, FALSE) == x
    assert store.apply_and(x, TRUE) == x
    assert store.apply_xor(x, x) == FALSE
    assert store.apply_iff(x, x) == TRUE


def test_apply_binary_truth_tables_random(store, rng):
    nvars = 4
    store.new_vars(nvars)
    for _ in range(300):
        a = random_bdd(store, nvars, rng)
        b = random_bdd(store, nvars, rng)
        op = rng.choice(list(OPS))
        r = apply_op(store, op, a, b)
        ta = truth_table(store, a, nvars)
        tb = truth_table(store, b, nvars)
        tr = truth_table(store, r, nvars)
        assert tr == tuple(OPS[op](x, y) for x, y in zip(ta, tb))


def test_negate_involution_and_complement(store, rng):
    assert store.negate(TRUE) == FALSE
    assert store.negate(FALSE) == TRUE
    nvars = 4
    store.new_vars(nvars)
    for _ in range(100):
        a = random_bdd(store, nvars, rng)
        na = store.negate(a)
        assert store.negate(na) == a
        assert truth_table(store, na, nvars) == tuple(
            not x for x in truth_table(store, a, nvars)
        )


def test_exists_simple(store):
    v, w = store.new_vars(2)
    vw = store.apply_and(store.literal(v), store.literal(w))
    assert store.exists({v}, vw) == store.literal(w)
    assert store.exists({v}, FALSE) == FALSE
    assert store.exists(frozenset(), vw) == vw


def test_exists_oracle_random(store, rng):
    nvars = 4
    store.new_vars(nvars)
    for _ in range(100):
        a = random_bdd(store, nvars, rng)
        qs = frozenset(v for v in range(nvars) if rng.random() < 0.5)
        r = store.exists(qs, a)
        assert store.var_set(r).isdisjoint(qs)
        for bits in itertools.product([False, True], repeat=nvars):
            env = dict(enumerate(bits))
            expected = False
            for qbits in itertools.product([False, True], repeat=len(qs)):
                env2 = dict(env)
                env2.update(zip(sorted(qs), qbits))
                expected = expected or store.eval_node(a, env2)
            assert store.eval_node(r, env) == expected


def test_and_exists_matches_two_step(store, rng):
    v, w = store.new_vars(2)
    vw = store.apply_and(store.literal(v), store.literal(w))
    assert store.and_exists({v}, store.literal(v), vw) == store.literal(w)

    nvars = 5
    store.new_vars(nvars)
    for _ in range(200):
        a = random_bdd(store, nvars, rng)
        b = random_bdd(store, nvars, rng)
        qs = frozenset(v for v in range(nvars) if rng.random() < 0.4)
        assert store.and_exists(qs, a, b) == store.exists(
            qs, store.apply_and(a, b)
        )


def test_and_exists_empty_set_is_conjunction(store, rng):
    nvars = 4
    store.new_vars(nvars)
    a = random_bdd(store, nvars, rng)
    b = random_bdd(store, nvars, rng)
    assert store.and_exists(frozenset(), a, b) == store.apply_and(a, b)


def test_sat_count_terminals(store):
    vs = store.new_vars(3)
    assert store.sat_count(TRUE, vs) == 8
    assert store.sat_count(FALSE, vs) == 0


def test_sat_count_requires_cover(store):
    v, w = store.new_vars(2)
    vw = store.apply_and(store.literal(v), store.literal(w))
    with pytest.raises(ValueError):
        store.sat_count(vw, [v])


def test_sat_count_card_two_of_five(store):
    # oracle: brute-force enumeration of all 32 subsets
    from bddsets.sets import card

    bits = store.new_vars(5)
    c = card(store, bits, 2, 2)
    assert store.sat_count(c, bits) == 10
    brute = sum(
        1
        for b in itertools.product([0, 1], repeat=5)
        if sum(b) == 2
    )
    assert brute == 10


def test_sat_count_complement_sum(store, rng):
    nvars = 5
    vs = store.new_vars(nvars)
    for _ in range(50):
        a = random_bdd(store, nvars, rng)
        assert store.sat_count(a, vs) + store.sat_count(store.negate(a), vs) == 2 ** nvars


def test_size_and_var_set_paper_examples(store):
    # stick for v3 & ~v4 & ~v5 & v6 & v7 over order v1..v9
    vs = store.new_vars(9)
    stick = TRUE
    for v, pos in [(vs[6], True), (vs[5], True), (vs[4], False), (vs[3], False), (vs[2], True)]:
        stick = store.apply_and(store.literal(v, pos), stick)
    assert store.size(stick) == 5
    assert store.var_set(stick) == frozenset(vs[2:7])

    # ~(v1 <-> v9) & ~(v2 <-> v8) has 9 nodes under v1 < ... < v9
    r = store.apply_and(
        store.negate(store.apply_iff(store.literal(vs[0]), store.literal(vs[8]))),
        store.negate(store.apply_iff(store.literal(vs[1]), store.literal(vs[7]))),
    )
    assert store.size(r) == 9
    assert store.var_set(r) == frozenset([vs[0], vs[1], vs[7], vs[8]])

    assert store.size(FALSE) == 0
    assert store.size(TRUE) == 0


def test_canonicity_two_construction_orders(store, rng):
    nvars = 5
    store.new_vars(nvars)
    for _ in range(200):
        a = random_bdd(store, nvars, rng)
        b = random_bdd(store, nvars, rng)
        c = random_bdd(store, nvars, rng)
        # (a&b)&c vs a&(b&c); (a|b) vs ~(~a&~b)
        assert store.apply_and(store.apply_and(a, b), c) == store.apply_and(
            a, store.apply_and(b, c)
        )
        assert store.apply_or(a, b) == store.negate(
            store.apply_and(store.negate(a), store.negate(b))
        )


def test_store_audit(store, rng):
    nvars = 6
    store.new_vars(nvars)
    for _ in range(50):
        random_bdd(store, nvars, rng)
    store.audit()


def test_node_limit(store):
    limited = NodeStore(node_limit=4)
    vs = limited.new_vars(10)
    with pytest.raises(NodeLimitExceeded):
        acc = TRUE
        for v in reversed(vs):
            acc = limited.mk_node(v, acc, FALSE)


def test_memo_cache_hit(store):
    v, w = store.new_vars(2)
    a = store.literal(v)
    b = store.literal(w)
    r1 = store.apply_and(a, b)
    entries = store.cache_entries()
    assert entries > 0
    r2 = store.apply_and(a, b)
    assert r1 == r2
    assert store.cache_entries() == entries


def test_collect_garbage_preserves_roots(store, rng):
    nvars = 6
    store.new_vars(nvars)
    keep = [random_bdd(store, nvars, rng) for _ in range(20)]
    tables = [truth_table(store, a, nvars) for a in keep]
    for _ in range(200):
        random_bdd(store, nvars, rng)  # garbage
    before = store.live_node_count()
    freed = store.collect_garbage(keep)
    assert freed > 0
    assert store.live_node_count() == before - freed
    store.audit()
    # surviving roots still denote the same functions
    assert [truth_table(store, a, nvars) for a in keep] == tables
    # rebuilding a root reuses its canonical handle
    a, b = keep[0], keep[1]
    assert store.apply_and(a, b) == store.apply_and(b, a)


def test_collect_garbage_recycles_slots(store, rng):
    nvars = 5
    store.new_vars(nvars)
    root = random_bdd(store, nvars, rng)
    for _ in range(100):
        random_bdd(store, nvars, rng)
    store.collect_garbage([root])
    table_size = store.node_count()
    # new construction fills the freed slots before growing the table
    for _ in range(20):
        random_bdd(store, nvars, rng)
    assert store.node_count() == table_size
    store.audit()


def test_collect_garbage_then_equivalence(store, rng):
    # canonicity across a collection: same function, same handle space
    nvars = 5
    store.new_vars(nvars)
    a = random_bdd(store, nvars, rng)
    b = random_bdd(store, nvars, rng)
    conj = store.apply_and(a, b)
    store.collect_garbage([conj])
    rebuilt = store.apply_and(store.negate(store.negate(conj)), TRUE)
    assert rebuilt == conj
    assert truth_table(store, conj, nvars) == truth_table(
        store, rebuilt, nvars
    )


def _check_ops(store, rng, nvars, qs, trials=30):
    """Random ops through the store's cores, checked against truth tables."""
    for _ in range(trials):
        a = random_bdd(store, nvars, rng)
        b = random_bdd(store, nvars, rng)
        ta, tb = truth_table(store, a, nvars), truth_table(store, b, nvars)
        for op in ("and", "or", "xor"):
            r = apply_op(store, op, a, b)
            assert truth_table(store, r, nvars) == tuple(map(OPS[op], ta, tb))
        conj = tuple(map(OPS["and"], ta, tb))
        assert truth_table(store, store.negate(a), nvars) == tuple(not x for x in ta)
        assert truth_table(store, store.exists(qs, a), nvars) == exists_table(ta, qs, nvars)
        assert truth_table(store, store.and_exists(qs, a, b), nvars) == exists_table(
            conj, qs, nvars
        )


def test_cores_survive_garbage_collection(store, rng):
    # the cores are built once per store and per variable set, before the
    # collection; they must keep working on the swept containers
    nvars = 5
    store.new_vars(nvars)
    qs = frozenset({1, 3})
    a = random_bdd(store, nvars, rng)
    b = random_bdd(store, nvars, rng)
    conj = store.apply_and(a, b)
    proj = store.and_exists(qs, a, b)
    for _ in range(100):
        random_bdd(store, nvars, rng)  # garbage
    assert store.collect_garbage([a, b, conj, proj]) > 0
    store.audit()
    # recomputed after the cache is gone, the kept results come back as
    # the same canonical handles
    assert store.apply_and(b, a) == conj
    assert store.and_exists(qs, a, b) == proj
    assert store.exists(qs, conj) == proj
    _check_ops(store, rng, nvars, qs)
    store.audit()


def test_cores_survive_maintain_cache_clear(store, rng):
    from bddsets.propagate import State
    from bddsets.sets import ConstraintBdd, Universe, alloc_set_vars, card

    (x,) = alloc_set_vars(store, Universe(5), ["x"])
    nvars = len(x.bits)
    state = State(store, [x], [ConstraintBdd(card(store, x.bits, 2, 2), (x,))])
    qs = frozenset(x.bits[1:3])
    a = random_bdd(store, nvars, rng)
    b = random_bdd(store, nvars, rng)
    conj = store.apply_and(a, b)
    proj = store.and_exists(qs, a, b)
    cache, memos = store._cache, list(store._memos)
    assert store.cache_entries() > 0
    state.cache_clear_trigger = 0
    state.maintain()
    assert store._cache is cache and all(m is n for m, n in zip(store._memos, memos))
    assert store.cache_entries() == 0
    assert store.apply_and(a, b) == conj
    assert store.and_exists(qs, a, b) == proj
    _check_ops(store, rng, nvars, qs)
    store.audit()


def test_clear_cache_drops_quantifier_cores(store, rng):
    from bddsets.propagate import State
    from bddsets.sets import ConstraintBdd, Universe, alloc_set_vars, card

    (x,) = alloc_set_vars(store, Universe(5), ["x"])
    nvars = len(x.bits)
    state = State(store, [x], [ConstraintBdd(card(store, x.bits, 2, 2), (x,))])
    qs = frozenset(x.bits[1:3])
    a = random_bdd(store, nvars, rng)
    b = random_bdd(store, nvars, rng)
    proj = store.and_exists(qs, a, b)
    store.exists(frozenset(x.bits[:2]), a)
    cores = store._quantifier_cores
    assert len(cores) == 2
    # the dropped cores are cyclic garbage, so their memos are emptied too
    memos = hot_tables(store)[1:]
    # a collection clears the cores with the cache, in place
    store.collect_garbage([a, b, proj])
    assert store._quantifier_cores is cores and not cores and store.cache_entries() == 0
    assert not any(memos)
    assert store.and_exists(qs, a, b) == proj
    _check_ops(store, rng, nvars, qs)
    # so does maintain()'s cache-only clear
    assert cores
    state.cache_clear_trigger = 0
    state.maintain()
    assert store._quantifier_cores is cores and not cores and store.cache_entries() == 0
    assert store.and_exists(qs, a, b) == proj
    _check_ops(store, rng, nvars, qs)
    store.audit()


def test_hot_tables_stay_untracked_by_the_cycle_collector(rng):
    # every unique-table and memo entry is int to int, so CPython never
    # tracks those dicts, even across a collection of both kinds
    store = NodeStore()
    nvars = 6
    store.new_vars(nvars)

    def ops(n):
        out = []
        for _ in range(n):
            a = random_bdd(store, nvars, rng)
            b = random_bdd(store, nvars, rng)
            qs = frozenset(v for v in range(nvars) if rng.random() < 0.4)
            cube = stick_of(store, {v: rng.random() < 0.5 for v in qs})
            out += [
                store.apply_and(a, b),
                store.apply_or(a, b),
                store.apply_xor(a, b),
                store.negate(a),
                store.exists(qs, a),
                store.and_exists(qs, a, b),
                store.cofactor(a, cube),
            ]
        return out

    keep = ops(40)
    store.collect_garbage(keep[::3])
    gc.collect()
    ops(40)
    tables = hot_tables(store)
    # the unique table and the five fixed memos, then the quantifier memos
    assert all(tables[:6]) and any(tables[6:])
    assert not any(map(gc.is_tracked, tables))


def test_cache_entries_counts_every_table(store):
    # built with mk_node alone, f leaves every memo empty; then each core
    # fills only its own table, and maintain() bounds their total
    from bddsets.propagate import State
    from bddsets.sets import ConstraintBdd, Universe, alloc_set_vars

    (x,) = alloc_set_vars(store, Universe(3), ["x"])
    v0, v1, v2 = x.bits
    f = store.mk_node(v0, store.mk_node(v1, TRUE, FALSE), store.mk_node(v2, FALSE, TRUE))
    state = State(store, [x], [ConstraintBdd(f, (x,))])
    assert store.cache_entries() == 0
    # one exists entry for each node of f, and no OR below v2
    store.exists({v2}, f)
    assert store.cache_entries() == 3
    store.and_exists({v1}, f, store.literal(v2))
    store.cofactor(f, store.literal(v0))
    store.var_set(f)
    entries = store.cache_entries()
    assert entries == sum(map(len, hot_tables(store)[1:])) + len(store._cache) > 4
    state.cache_clear_trigger = entries
    state.maintain()
    assert store.cache_entries() == entries
    state.cache_clear_trigger = entries - 1
    state.maintain()
    assert store.cache_entries() == 0


def test_cofactor_by_a_cube(store):
    v0, v1, v2 = store.new_vars(3)
    f = store.apply_or(
        store.apply_and(store.literal(v0), store.literal(v2)),
        store.apply_and(store.literal(v1, False), store.literal(v2, False)),
    )
    cube = stick_of(store, {v0: True, v1: False})
    assert store.cofactor(f, cube) == TRUE
    assert store.cofactor(f, stick_of(store, {v0: False})) == store.apply_and(
        store.literal(v1, False), store.literal(v2, False)
    )
    assert store.cofactor(f, TRUE) == f
    assert store.cofactor(f, FALSE) == FALSE
    # the store fixture has debug checks on, which reject a non-cube
    with pytest.raises(ValueError):
        store.cofactor(f, store.apply_or(store.literal(v0), store.literal(v1)))


def test_debug_checks_give_the_same_handles():
    # with the checks on every node goes through mk_node; the handles must
    # match a store whose cores take unique-table hits inline
    nvars = 5
    stores = [NodeStore(debug_checks=True), NodeStore()]
    seqs = []
    for s in stores:
        s.new_vars(nvars)
        rng = random.Random(7)
        out = []
        for i in range(150):
            a = random_bdd(s, nvars, rng)
            b = random_bdd(s, nvars, rng)
            qs = frozenset(v for v in range(nvars) if rng.random() < 0.4)
            out += [
                a,
                b,
                s.apply_and(a, b),
                s.apply_or(a, b),
                s.apply_xor(a, b),
                s.negate(a),
                s.exists(qs, a),
                s.and_exists(qs, a, b),
            ]
            if i == 75:
                out.append(s.collect_garbage(out[-8:]))
        seqs.append(out)
    assert seqs[0] == seqs[1]


def test_node_limit_inside_and_exists():
    from bddsets.sets import card

    def inputs(s):
        bits = s.new_vars(10)
        return card(s, bits, 5, 5), card(s, bits[::2], 1, 2), frozenset(bits[:5])

    free = NodeStore()
    a, b, qs = inputs(free)
    needed = free.node_count()
    free.and_exists(qs, a, b)
    assert free.node_count() > needed + 1
    limited = NodeStore(node_limit=needed + 1, debug_checks=True)
    a, b, qs = inputs(limited)
    tables = [truth_table(limited, x, 10) for x in (a, b)]
    with pytest.raises(NodeLimitExceeded):
        limited.and_exists(qs, a, b)
    limited.audit()
    assert [truth_table(limited, x, 10) for x in (a, b)] == tables


def test_store_freed_without_the_cycle_collector():
    # the cores close over the store's containers, not over the store, so
    # a dropped store is freed at once instead of waiting for gc
    store = NodeStore()
    x, y = (store.literal(v) for v in store.new_vars(2))
    store.and_exists({0}, store.apply_or(x, y), store.negate(x))
    ref = weakref.ref(store)
    # the self-recursive cores still hold these until the cycle collector
    # runs, so the dying store empties them
    tables = [store._var, store._cache] + hot_tables(store)
    gc.disable()
    try:
        del store
        assert ref() is None
        assert not any(tables)
    finally:
        gc.enable()
