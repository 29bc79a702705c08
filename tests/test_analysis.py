import itertools

import pytest

from bddsets.analysis import (
    EMPTY_INTERVAL,
    EmptyDomainError,
    card_bounds,
    count_cardinality,
    fixed_literals,
    lex_bounds,
    lex_lower,
    lex_upper,
    split,
    stick_of,
)
from bddsets.engine import FALSE, TRUE
from bddsets.sets import card

from conftest import eval_node, models_of, random_bdd


def fixed_vars(store, a):
    """The stick of all fixed literals of a (the conv closure's bounds)."""
    return stick_of(store, fixed_literals(store, a))


def build_fig1(store):
    """LU = v3&~v4&~v5&v6&v7, R = ~(v1<->v9)&~(v2<->v8), over v1..v9."""
    vs = store.new_vars(9)
    stick = TRUE
    for v, pos in [(vs[6], True), (vs[5], True), (vs[4], False), (vs[3], False), (vs[2], True)]:
        stick = store.apply_and(store.literal(v, pos), stick)
    r = store.apply_and(
        store.negate(store.apply_iff(store.literal(vs[0]), store.literal(vs[8]))),
        store.negate(store.apply_iff(store.literal(vs[1]), store.literal(vs[7]))),
    )
    return vs, stick, r


def test_fixed_vars_of_stick_is_identity(store):
    vs, stick, _ = build_fig1(store)
    assert fixed_vars(store, stick) == stick


def test_fixed_vars_paper_example(store):
    vs, stick, r = build_fig1(store)
    d = store.apply_and(stick, r)
    assert fixed_vars(store, d) == stick


def test_fixed_vars_random_oracle(store, rng):
    nvars = 5
    vs = store.new_vars(nvars)
    for _ in range(200):
        a = random_bdd(store, nvars, rng)
        if a == FALSE:
            continue
        models = models_of(store, a, vs)
        expected = {}
        for i, v in enumerate(vs):
            vals = {m[i] for m in models}
            if len(vals) == 1:
                expected[v] = vals.pop()
        assert fixed_literals(store, a) == expected


def test_fixed_vars_rejects_empty_domain(store):
    with pytest.raises(EmptyDomainError):
        fixed_vars(store, FALSE)


def test_split_paper_sizes(store):
    vs, stick, r = build_fig1(store)
    d = store.apply_and(stick, r)
    assert store.size(d) == 29  # 9 + 4 * 5
    lu, rem = split(store, d)
    assert lu == stick
    assert rem == r
    assert store.size(lu) == 5
    assert store.size(rem) == 9


def test_split_trivial_and_reconstruction(store, rng):
    assert split(store, TRUE) == (TRUE, TRUE)
    nvars = 6
    store.new_vars(nvars)
    for _ in range(200):
        a = random_bdd(store, nvars, rng)
        if a == FALSE:
            continue
        lu, rem = split(store, a)
        assert store.apply_and(lu, rem) == a
        # Lemma 6.2 size inequality on every split
        assert store.size(lu) + store.size(rem) <= store.size(a)
        # remainder mentions no fixed variable
        assert store.var_set(rem).isdisjoint(store.var_set(lu))


def test_lemma_6_1_quantifying_fixed_var_shrinks(store, rng):
    nvars = 5
    store.new_vars(nvars)
    checked = 0
    for _ in range(300):
        a = random_bdd(store, nvars, rng)
        if a in (FALSE, TRUE):
            continue
        for v in fixed_literals(store, a):
            assert store.size(store.exists({v}, a)) < store.size(a)
            checked += 1
    assert checked > 20


def test_count_cardinality_terminals(store):
    vs = store.new_vars(4)
    assert count_cardinality(store, TRUE, vs) == (0, 4)
    assert count_cardinality(store, FALSE, vs) is EMPTY_INTERVAL


def test_count_cardinality_example_6_4(store):
    # delta_x: projection of lexlt(x, y) onto x's bits, N=3 -> range [0, 2]
    from bddsets.sets import Universe, alloc_set_vars, lexlt

    u = Universe(3)
    x, y = alloc_set_vars(store, u, ["x", "y"])
    c = lexlt(store, x, y)
    delta_x = store.exists(y.bits, c)
    assert count_cardinality(store, delta_x, sorted(x.bits)) == (0, 2)


def test_count_cardinality_random_oracle(store, rng):
    nvars = 5
    vs = store.new_vars(nvars)
    for _ in range(200):
        a = random_bdd(store, nvars, rng)
        models = models_of(store, a, vs)
        got = count_cardinality(store, a, vs)
        if not models:
            assert got is EMPTY_INTERVAL
        else:
            counts = [sum(m) for m in models]
            assert got == (min(counts), max(counts))


def test_analyses_of_a_bdd_deeper_than_the_recursion_limit(deep_card_eq):
    store, v, c = deep_card_eq
    assert count_cardinality(store, c, v.bits) == (500, 500)
    # the count does not need vs sorted
    assert count_cardinality(store, c, v.bits[::-1]) == (500, 500)
    assert fixed_literals(store, c) == {}


def test_card_bounds_fixpoint_and_empty(store):
    vs = store.new_vars(5)
    c = card(store, vs, 2, 3)
    assert card_bounds(store, c, vs) == c
    assert card_bounds(store, FALSE, vs) == FALSE


def test_card_bounds_sound_and_tight(store, rng):
    nvars = 5
    vs = store.new_vars(nvars)
    for _ in range(100):
        a = random_bdd(store, nvars, rng)
        if a == FALSE:
            continue
        b = card_bounds(store, a, vs)
        models_a = set(models_of(store, a, vs))
        models_b = set(models_of(store, b, vs))
        assert models_a <= models_b
        counts = [sum(m) for m in models_a]
        counts_b = [sum(m) for m in models_b]
        assert min(counts) == min(counts_b)
        assert max(counts) == max(counts_b)


def test_lex_lower_trivial(store):
    vs = store.new_vars(4)
    assert lex_lower(store, TRUE, vs) == TRUE
    assert lex_upper(store, TRUE, vs) == TRUE
    assert lex_bounds(store, TRUE, vs) == TRUE


def test_lex_bounds_card_two_of_five(store):
    # |s| = 2 over {1..5}: lex-min model is {4,5} (vector 00011),
    # lex-max is {1,2} (vector 11000)
    vs = store.new_vars(5)
    c = card(store, vs, 2, 2)
    low = lex_lower(store, c, vs)
    up = lex_upper(store, c, vs)
    for bits in itertools.product([0, 1], repeat=5):
        vec = tuple(bits)
        assert eval_node(store, low, dict(zip(vs, map(bool, bits)))) == (vec >= (0, 0, 0, 1, 1))
        assert eval_node(store, up, dict(zip(vs, map(bool, bits)))) == (vec <= (1, 1, 0, 0, 0))
    both = lex_bounds(store, c, vs)
    assert both == store.apply_and(low, up)
    assert store.size(low) <= 5 and store.size(up) <= 5


def test_lex_bounds_random_oracle(store, rng):
    nvars = 5
    vs = store.new_vars(nvars)
    for _ in range(150):
        a = random_bdd(store, nvars, rng)
        if a == FALSE:
            continue
        models = sorted(models_of(store, a, vs))
        lo_vec, hi_vec = models[0], models[-1]
        low = lex_lower(store, a, vs)
        up = lex_upper(store, a, vs)
        for bits in itertools.product([False, True], repeat=nvars):
            env = dict(zip(vs, bits))
            assert eval_node(store, low, env) == (tuple(bits) >= lo_vec)
            assert eval_node(store, up, env) == (tuple(bits) <= hi_vec)
        # every model of a satisfies the bounds
        b = lex_bounds(store, a, vs)
        assert set(models) <= set(models_of(store, b, vs))


def test_abstractions_idempotent(store, rng):
    nvars = 5
    vs = store.new_vars(nvars)
    for _ in range(100):
        a = random_bdd(store, nvars, rng)
        if a == FALSE:
            continue
        fx = fixed_vars(store, a)
        assert fixed_vars(store, fx) == fx
        cb = card_bounds(store, a, vs)
        assert card_bounds(store, cb, vs) == cb
        lb = lex_bounds(store, a, vs)
        assert lex_bounds(store, lb, vs) == lb
