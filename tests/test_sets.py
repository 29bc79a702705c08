import itertools

import pytest

from bddsets.engine import FALSE, TRUE, NodeStore
from bddsets.sets import (
    Universe,
    alloc_set_vars,
    card,
    card_eq,
    card_ge,
    card_le,
    complement_eq,
    diff_eq,
    eq,
    eq_const,
    inter_card_atmost,
    inter_eq,
    lexle,
    lexlt,
    member,
    neq,
    not_member,
    partition,
    partition_lex,
    subseteq,
    union_eq,
)


def subsets(n):
    elems = list(range(1, n + 1))
    for r in range(n + 1):
        for c in itertools.combinations(elems, r):
            yield frozenset(c)


def holds(store, bdd, universe_n, assignment):
    """assignment: dict SetVar -> frozenset of elements."""
    env = {}
    for var, val in assignment.items():
        for i, bit in enumerate(var.bits):
            env[bit] = (i + 1) in val
    return store.eval_node(bdd, env)


def enumerate_solutions(store, bdd, vars_):
    n = vars_[0].universe.n
    out = []
    for combo in itertools.product(list(subsets(n)), repeat=len(vars_)):
        if holds(store, bdd, n, dict(zip(vars_, combo))):
            out.append(combo)
    return out


def test_interleaved_allocation_order(store):
    u = Universe(3)
    v, w = alloc_set_vars(store, u, ["v", "w"])
    order = [v.bits[0], w.bits[0], v.bits[1], w.bits[1], v.bits[2], w.bits[2]]
    assert order == sorted(order)


def test_single_bit_universe(store):
    u = Universe(1)
    (v,) = alloc_set_vars(store, u, ["v"])
    assert len(v.bits) == 1


@pytest.mark.parametrize("n", [2, 3, 4])
def test_primitives_match_set_semantics(n):
    store = NodeStore()
    u = Universe(n)
    a, b, c = alloc_set_vars(store, u, ["a", "b", "c"])
    k = 1 + n // 2
    d = frozenset([1, n])
    cases = [
        (member(store, k, a), lambda A, B, C: k in A),
        (not_member(store, k, a), lambda A, B, C: k not in A),
        (eq_const(store, a, d), lambda A, B, C: A == d),
        (eq(store, a, b), lambda A, B, C: A == B),
        (subseteq(store, a, b), lambda A, B, C: A <= B),
        (union_eq(store, a, b, c), lambda A, B, C: A == B | C),
        (inter_eq(store, a, b, c), lambda A, B, C: A == B & C),
        (diff_eq(store, a, b, c), lambda A, B, C: A == B - C),
        (complement_eq(store, a, b), lambda A, B, C: A == frozenset(u.elements) - B),
        (neq(store, a, b), lambda A, B, C: A != B),
        (card_eq(store, a, k), lambda A, B, C: len(A) == k),
        (card_ge(store, a, k), lambda A, B, C: len(A) >= k),
        (card_le(store, a, k), lambda A, B, C: len(A) <= k),
    ]
    for bdd, pred in cases:
        for A, B, C in itertools.product(list(subsets(n)), repeat=3):
            assert holds(store, bdd, n, {a: A, b: B, c: C}) == pred(A, B, C)


def test_member_bounds_checked(store):
    u = Universe(3)
    (v,) = alloc_set_vars(store, u, ["v"])
    with pytest.raises(ValueError):
        member(store, 4, v)
    with pytest.raises(ValueError):
        eq_const(store, v, {5})


def test_eq_free_side_count(store):
    u = Universe(3)
    a, b = alloc_set_vars(store, u, ["a", "b"])
    c = eq(store, a, b)
    assert store.sat_count(c, sorted(a.bits + b.bits)) == 8


def test_card_base_cases(store):
    bits = store.new_vars(4)
    assert card(store, bits, 0, 4) == TRUE
    assert card(store, bits, 5, 5) == FALSE
    assert card(store, bits, 2, 1) == FALSE


def test_card_count_and_size_bound(store):
    bits = store.new_vars(5)
    c = card(store, bits, 2, 2)
    assert store.sat_count(c, bits) == 10
    # O(k(N-k)) shape: (u - l + 1) * n plus a small linear slack
    for l, usz in [(2, 2), (1, 3), (0, 5)]:
        cb = card(store, bits, l, usz)
        assert store.size(cb) <= (usz - l + 1) * 5 + 5 + 2


def test_subseteq_size_linear(store):
    sizes = {}
    for n in (8, 16, 32):
        s = NodeStore()
        u = Universe(n)
        a, b = alloc_set_vars(s, u, ["a", "b"])
        sizes[n] = s.size(subseteq(s, a, b))
    # linear growth: doubling N doubles the increment
    assert sizes[32] - sizes[16] == 2 * (sizes[16] - sizes[8])
    assert sizes[32] < 4 * 32


def test_lexlt_ground_and_irreflexive(store):
    u = Universe(3)
    v, w = alloc_set_vars(store, u, ["v", "w"])
    c = lexlt(store, v, w)
    assert holds(store, c, 3, {v: frozenset(), w: frozenset([1])})
    assert store.apply_and(c, eq(store, v, w)) == FALSE


def test_lexlt_model_count(store):
    u = Universe(3)
    v, w = alloc_set_vars(store, u, ["v", "w"])
    c = lexlt(store, v, w)
    assert store.sat_count(c, sorted(v.bits + w.bits)) == 28


def test_lexlt_strict_total_order():
    store = NodeStore()
    u = Universe(4)
    v, w = alloc_set_vars(store, u, ["v", "w"])
    lt_vw = lexlt(store, v, w)
    lt_wv = lexlt(store, w, v)
    for A, B in itertools.product(list(subsets(4)), repeat=2):
        r1 = holds(store, lt_vw, 4, {v: A, w: B})
        r2 = holds(store, lt_wv, 4, {v: A, w: B})
        assert (r1, r2, A == B).count(True) == 1


def test_lexle_is_negated_reversed(store):
    u = Universe(3)
    v, w = alloc_set_vars(store, u, ["v", "w"])
    assert lexle(store, v, w) == store.negate(lexlt(store, w, v))


def test_partition_model_count(store):
    u = Universe(3)
    x, y, z = alloc_set_vars(store, u, ["x", "y", "z"])
    c = partition(store, [x, y, z])
    assert store.sat_count(c, sorted(x.bits + y.bits + z.bits)) == 27


def test_partition_single_block(store):
    u = Universe(4)
    (x,) = alloc_set_vars(store, u, ["x"])
    assert partition(store, [x]) == eq_const(store, x, set(u.elements))


def test_partition_brute_force():
    store = NodeStore()
    u = Universe(3)
    x, y, z = alloc_set_vars(store, u, ["x", "y", "z"])
    c = partition(store, [x, y, z])
    for A, B, C in itertools.product(list(subsets(3)), repeat=3):
        expected = (
            not (A & B) and not (A & C) and not (B & C)
            and A | B | C == frozenset(u.elements)
        )
        assert holds(store, c, 3, {x: A, y: B, z: C}) == expected


def test_partition_lex_counts():
    store = NodeStore()
    u = Universe(3)
    vs = alloc_set_vars(store, u, ["x", "y", "z"])
    c = partition_lex(store, vs)
    sols = enumerate_solutions(store, c, vs)
    # brute-force: ordered partitions with strictly increasing char-vectors
    def char(s):
        return tuple(1 if i in s else 0 for i in range(1, 4))
    expected = 0
    for A, B, C in itertools.product(list(subsets(3)), repeat=3):
        if (
            not (A & B) and not (A & C) and not (B & C)
            and A | B | C == frozenset(u.elements)
            and char(A) < char(B) < char(C)
        ):
            expected += 1
    assert len(sols) == expected

    (x,) = alloc_set_vars(store, u, ["solo"])
    assert partition_lex(store, [x]) == eq_const(store, x, set(u.elements))

    pruned = store.apply_and(c, member(store, 1, vs[2]))
    sols2 = enumerate_solutions(store, pruned, vs)
    assert sols2 == [s for s in sols if 1 in s[2]]


def test_inter_card_atmost_vacuous(store):
    u = Universe(4)
    v, w = alloc_set_vars(store, u, ["v", "w"])
    assert inter_card_atmost(store, v, w, 4) == TRUE


def test_inter_card_atmost_count():
    store = NodeStore()
    u = Universe(5)
    v, w = alloc_set_vars(store, u, ["v", "w"])
    c = inter_card_atmost(store, v, w, 2)
    expected = sum(
        1
        for A, B in itertools.product(list(subsets(5)), repeat=2)
        if len(A & B) <= 2
    )
    assert store.sat_count(c, sorted(v.bits + w.bits)) == expected


def test_inter_card_atmost_size_linear():
    sizes = {}
    for n in (8, 16, 32):
        s = NodeStore()
        u = Universe(n)
        v, w = alloc_set_vars(s, u, ["v", "w"])
        sizes[n] = s.size(inter_card_atmost(s, v, w, 2))
    assert sizes[32] - sizes[16] == 2 * (sizes[16] - sizes[8])


def test_example_3_5_projection(store):
    # D(v) = {{1},{1,3},{2,3}}, D(w) = {{2},{1,2},{1,3}}; conjoin with
    # v subseteq w and project
    u = Universe(3)
    v, w = alloc_set_vars(store, u, ["v", "w"])

    def domain_bdd(var, sets):
        return store.disjoin([eq_const(store, var, s) for s in sets])

    dv = domain_bdd(v, [{1}, {1, 3}, {2, 3}])
    dw = domain_bdd(w, [{2}, {1, 2}, {1, 3}])
    conj = store.conjoin([subseteq(store, v, w), dv, dw])
    new_dv = store.exists(w.bits, conj)
    new_dw = store.exists(v.bits, conj)
    assert new_dv == domain_bdd(v, [{1}, {1, 3}])
    assert new_dw == domain_bdd(w, [{1, 2}, {1, 3}])
