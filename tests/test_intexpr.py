import itertools

import pytest

from bddsets.engine import FALSE, TRUE, NodeStore
from bddsets.intexpr import (
    alloc_int_vars,
    alloc_multiset_vars,
    bits_needed,
    const_expr,
    int_eq,
    int_le,
    int_lt,
    max_expr,
    min_expr,
    monus,
    ms_card,
    ms_diff,
    ms_eq,
    ms_inter,
    ms_subseteq,
    ms_union,
    mul_bit,
    mul_const,
    pad,
    plus,
    set_bundles,
    shl,
    wsum,
)
from bddsets.propagate import State
from bddsets.search import solve
from bddsets.sets import ConstraintBdd, Universe, alloc_set_vars, card

from conftest import collect_at_every_node, decode, eval_node


def envs(bits):
    for vals in itertools.product([False, True], repeat=len(bits)):
        yield dict(zip(bits, vals))


def test_const_expr_roundtrip(store):
    for k in range(20):
        assert decode(store, const_expr(k), {}) == k
    assert const_expr(0) == ()
    with pytest.raises(ValueError):
        const_expr(-1)


def test_pad_preserves_value(store):
    x = alloc_int_vars(store, ["x"], 2)[0]
    for env in envs(x.bits):
        assert decode(store, pad(x.expr, 5), env) == decode(store, x.expr, env)
    with pytest.raises(ValueError):
        pad(x.expr, 1)


def test_bits_needed():
    assert bits_needed(0) == 1
    assert bits_needed(1) == 1
    assert bits_needed(2) == 2
    assert bits_needed(7) == 3
    assert bits_needed(8) == 4


def test_plus_exhaustive(store):
    x, y = alloc_int_vars(store, ["x", "y"], 3)
    s = plus(store, x.expr, y.expr)
    assert len(s) == 4
    for env in envs(x.bits + y.bits):
        assert decode(store, s, env) == decode(store, x.expr, env) + decode(store, y.expr, env)


def test_plus_constant_bit_formulas(store):
    # x + 3 for a two-bit x is <x1|x0, x1<->x0, ~x0>
    x = alloc_int_vars(store, ["x"], 2)[0]
    hi, lo = x.expr
    s = plus(store, x.expr, const_expr(3))
    assert s == (
        store.apply_or(hi, lo),
        store.apply_iff(hi, lo),
        store.negate(lo),
    )


def test_shl_and_mul_const(store):
    x = alloc_int_vars(store, ["x"], 3)[0]
    for env in envs(x.bits):
        v = decode(store, x.expr, env)
        assert decode(store, shl(x.expr, 2), env) == 4 * v
        for k in range(8):
            assert decode(store, mul_const(store, x.expr, k), env) == k * v


def test_mul_bit(store):
    x = alloc_int_vars(store, ["x"], 3)[0]
    b = store.literal(store.new_var())
    prod = mul_bit(store, x.expr, b)
    for env in envs(x.bits + (store._var[b],)):
        expect = decode(store, x.expr, env) if eval_node(store, b, env) else 0
        assert decode(store, prod, env) == expect


def test_min_max_monus_exhaustive(store):
    x, y = alloc_int_vars(store, ["x", "y"], 3)
    mn = min_expr(store, x.expr, y.expr)
    mx = max_expr(store, x.expr, y.expr)
    dm = monus(store, x.expr, y.expr)
    for env in envs(x.bits + y.bits):
        a = decode(store, x.expr, env)
        b = decode(store, y.expr, env)
        assert decode(store, mn, env) == min(a, b)
        assert decode(store, mx, env) == max(a, b)
        assert decode(store, dm, env) == max(0, a - b)


def test_comparisons_exhaustive(store):
    x = alloc_int_vars(store, ["x"], 3)[0]
    y = alloc_int_vars(store, ["y"], 2)[0]
    eq = int_eq(store, x.expr, y.expr)
    lt = int_lt(store, x.expr, y.expr)
    le = int_le(store, x.expr, y.expr)
    for env in envs(x.bits + y.bits):
        a = decode(store, x.expr, env)
        b = decode(store, y.expr, env)
        assert eval_node(store, eq, env) == (a == b)
        assert eval_node(store, lt, env) == (a < b)
        assert eval_node(store, le, env) == (a <= b)


def test_comparison_with_constant(store):
    x = alloc_int_vars(store, ["x"], 3)[0]
    le5 = int_le(store, x.expr, const_expr(5))
    assert store.sat_count(le5, x.bits) == 6


def test_wsum_exhaustive(store):
    u = Universe(3)
    (v,) = alloc_set_vars(store, u, ["v"])
    weights = [3, 1, 4]
    total = wsum(store, set_bundles(store, v), weights)
    for env in envs(v.bits):
        expect = sum(w for w, b in zip(weights, v.bits) if env[b])
        assert decode(store, total, env) == expect
    with pytest.raises(ValueError):
        wsum(store, set_bundles(store, v), [1, 2])
    with pytest.raises(ValueError):
        wsum(store, set_bundles(store, v), [1, -2, 3])


def test_unit_wsum_equals_cardinality_constraint(store):
    # counting with unit weights and comparing against k must produce the
    # identical BDD as the direct cardinality construction (canonicity)
    u = Universe(4)
    (v,) = alloc_set_vars(store, u, ["v"])
    total = wsum(store, set_bundles(store, v), [1] * 4)
    for k in range(5):
        assert int_eq(store, total, const_expr(k)) == card(store, v.bits, k, k)
    assert int_le(store, total, const_expr(2)) == card(store, v.bits, 0, 2)


def test_multiset_alloc_orders_and_bounds():
    for order in ("bundle_major", "bit_major"):
        store = NodeStore()
        u = Universe(2)
        (m, n), bounds = alloc_multiset_vars(store, u, ["m", "n"], 2, order=order)
        assert len(m.bundles) == 2 and len(m.bundles[0].bits) == 2
        assert len(set(m.bits) | set(n.bits)) == 8
        # multiplicity 2 in width 2 leaves value 3 excluded per bundle
        assert len(bounds) == 4
        sat = store.conjoin(bounds)
        assert store.sat_count(sat, sorted(m.bits + n.bits)) == 3 * 3 * 3 * 3
    store = NodeStore()
    with pytest.raises(ValueError):
        alloc_multiset_vars(store, Universe(2), ["m"], 2, order="zigzag")


def test_multiset_max_mult_power_of_two_minus_one(store):
    u = Universe(2)
    (m,), bounds = alloc_multiset_vars(store, u, ["m"], 3)
    assert bounds == []  # width 2 covers 0..3 exactly


def multiset_value(store, m, env):
    return tuple(decode(store, b.expr, env) for b in m.bundles)


def test_multiset_ops_exhaustive():
    store = NodeStore()
    u = Universe(2)
    (m, n), bounds = alloc_multiset_vars(store, u, ["m", "n"], 1)
    eq = ms_eq(store, m, n)
    sub = ms_subseteq(store, m, n)
    union = ms_union(store, m, n)
    inter = ms_inter(store, m, n)
    diff = ms_diff(store, m, n)
    for env in envs(m.bits + n.bits):
        a = multiset_value(store, m, env)
        b = multiset_value(store, n, env)
        assert eval_node(store, eq, env) == (a == b)
        assert eval_node(store, sub, env) == all(x <= y for x, y in zip(a, b))
        assert tuple(decode(store, e, env) for e in union) == tuple(
            x + y for x, y in zip(a, b)
        )
        assert tuple(decode(store, e, env) for e in inter) == tuple(
            min(x, y) for x, y in zip(a, b)
        )
        assert tuple(decode(store, e, env) for e in diff) == tuple(
            max(0, x - y) for x, y in zip(a, b)
        )


def test_ms_card(store):
    u = Universe(3)
    (m,), bounds = alloc_multiset_vars(store, u, ["m"], 2)
    total = ms_card(store, m)
    guard = store.conjoin(bounds)
    for env in envs(m.bits):
        if not eval_node(store, guard, env):
            continue
        assert decode(store, total, env) == sum(multiset_value(store, m, env))


@pytest.mark.parametrize("kind", ["int", "multiset"])
def test_expr_decodes_solutions_after_collections(kind):
    # a search that collects at every node frees every node the state does
    # not reach; each variable's expr must still decode every solution
    store = NodeStore()
    if kind == "int":
        x, y = alloc_int_vars(store, ["x", "y"], 3)
        variables = blocks = [x, y]
        bdd = int_eq(store, plus(store, x.expr, y.expr), const_expr(9))
        want = {t for t in itertools.product(range(8), repeat=2) if sum(t) == 9}
    else:
        (m,), bounds = alloc_multiset_vars(store, Universe(4), ["m"], 3)
        assert not bounds
        variables, blocks = [m], m.bundles
        bdd = int_eq(store, ms_card(store, m), const_expr(7))
        want = {t for t in itertools.product(range(4), repeat=4) if sum(t) == 7}
    state = State(store, variables, [ConstraintBdd(bdd, tuple(variables))])
    entries = collect_at_every_node(state)
    res = solve(state, all_solutions=True)
    assert entries and store._free
    got = set()
    for sol in res.solutions:
        env = {v.bits[i - 1]: True for v in variables for i in sol[v.name]}
        got.add(tuple(decode(store, block.expr, env) for block in blocks))
    assert got == want
