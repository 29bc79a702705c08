import itertools
from pathlib import Path

import pytest

from bddsets.models import (
    BacpSpec,
    GolfersSpec,
    HammingSpec,
    SteinerSpec,
    bacp_assignment_from_periods,
    bacp_valid,
    build_bacp,
    build_golfers,
    build_hamming,
    build_steiner,
    golfers_valid,
    hamming_distance,
    hamming_valid,
    steiner_valid,
)
from bddsets.instances import build_from_instance, parse_instance
from bddsets.intexpr import const_expr, int_le, plus, wsum
from bddsets.propagate import State
from bddsets.search import optimize_incremental, solve
from bddsets.sets import lexlt

FANO = [
    {1, 2, 3},
    {1, 4, 5},
    {1, 6, 7},
    {2, 4, 6},
    {2, 5, 7},
    {3, 4, 7},
    {3, 5, 6},
]


def run_model(m, mode="domain", **kw):
    st = State(m.store, m.vars, m.constraints, mode=mode)
    return solve(st, m.strategy, branch_vars=m.branch_vars, **kw)


# ----------------------------------------------------------------------
# Steiner


def test_steiner_block_counts():
    assert SteinerSpec(2, 3, 7).blocks == 7
    assert SteinerSpec(3, 4, 8).blocks == 14


def test_steiner_inadmissible():
    with pytest.raises(ValueError):
        SteinerSpec(2, 3, 8)
    with pytest.raises(ValueError):
        SteinerSpec(4, 3, 7)


def test_steiner_validator():
    spec = SteinerSpec(2, 3, 7)
    assert steiner_valid(spec, FANO)
    broken = [set(b) for b in FANO]
    broken[0] = {1, 2, 4}
    assert not steiner_valid(spec, broken)
    assert not steiner_valid(spec, FANO[:-1])


def test_steiner_first_solution_is_valid():
    spec = SteinerSpec(2, 3, 7)
    m = build_steiner(spec)
    res = run_model(m)
    assert res.status == "sat"
    blocks = [res.solutions[0][f"s{i + 1}"] for i in range(spec.blocks)]
    assert steiner_valid(spec, blocks)


def test_steiner_merged_and_split_agree():
    spec = SteinerSpec(2, 3, 7)
    counts = {}
    for merged in (True, False):
        m = build_steiner(spec, merged=merged)
        res = run_model(m, all_solutions=True)
        sols = set()
        for sol in res.solutions:
            blocks = tuple(sol[f"s{i + 1}"] for i in range(spec.blocks))
            assert steiner_valid(spec, blocks)
            sols.add(blocks)
        counts[merged] = sols
    assert len(counts[True]) == 30
    assert counts[True] == counts[False]


def test_steiner_split_constraint_count():
    spec = SteinerSpec(2, 3, 7)
    m = build_steiner(spec, merged=False)
    mm = spec.blocks
    assert len(m.constraints) == mm + 3 * mm * (mm - 1) // 2
    assert len(m.vars) == mm + mm * (mm - 1) // 2
    merged = build_steiner(spec, merged=True)
    assert len(merged.constraints) == mm + mm * (mm - 1) // 2


# ----------------------------------------------------------------------
# Social Golfers


def test_golfers_variable_count():
    m = build_golfers(GolfersSpec(2, 5, 4))
    assert len(m.vars) == 10
    assert m.vars[0].universe.n == 20


def test_golfers_spec_validation():
    with pytest.raises(ValueError):
        GolfersSpec(0, 2, 2)


def test_golfers_tiny_matches_brute_force():
    spec = GolfersSpec(2, 2, 1)
    m = build_golfers(spec)
    res = run_model(m, all_solutions=True)
    # brute force over the model semantics: enumerate all week schedules
    def weeks():
        golfers = [1, 2]
        for a in golfers:
            b = [x for x in golfers if x != a][0]
            yield [frozenset([a]), frozenset([b])]

    count = 0
    for w1, w2 in itertools.product(list(weeks()), repeat=2):
        if not golfers_valid(spec, [w1, w2]):
            continue
        # model-internal symmetry breaking: groups within a week and the
        # first groups across weeks are lexicographically ordered by
        # characteristic vector, element 1 most significant
        def lex_key(s):
            return tuple(1 if e in s else 0 for e in (1, 2))

        if not (lex_key(w1[0]) < lex_key(w1[1]) and lex_key(w2[0]) < lex_key(w2[1])):
            continue
        if not lex_key(w1[0]) <= lex_key(w2[0]):
            continue
        count += 1
    assert len(res.solutions) == count > 0
    for sol in res.solutions:
        weeks_out = [
            [sol[f"v{i + 1}_{j + 1}"] for j in range(spec.g)] for i in range(spec.w)
        ]
        assert golfers_valid(spec, weeks_out)


def test_golfers_solution_valid_2_5_4():
    spec = GolfersSpec(2, 5, 4)
    m = build_golfers(spec)
    res = run_model(m)
    assert res.status == "sat"
    sol = res.solutions[0]
    weeks = [[sol[f"v{i + 1}_{j + 1}"] for j in range(spec.g)] for i in range(spec.w)]
    assert golfers_valid(spec, weeks)


def test_golfers_validator_rejects_repeated_pair():
    spec = GolfersSpec(2, 2, 2)
    ok = [
        [{1, 2}, {3, 4}],
        [{1, 3}, {2, 4}],
    ]
    assert golfers_valid(spec, ok)
    assert not golfers_valid(spec, [[{1, 2}, {3, 4}], [{1, 2}, {3, 4}]])
    assert not golfers_valid(spec, [[{1, 2}, {2, 3}], [{1, 3}, {2, 4}]])


# ----------------------------------------------------------------------
# Hamming codes


def test_hamming_distance_identity():
    # l=6: {1,2,3} vs {1,4,5} share 1 element, miss {6} jointly -> 6-1-1
    assert hamming_distance({1, 2, 3}, {1, 4, 5}, 6) == 4
    assert hamming_distance({1, 2}, {1, 2}, 5) == 0
    assert hamming_distance(set(), {1, 2, 3}, 3) == 3


def test_hamming_validator():
    spec = HammingSpec(6, 4, 3)
    assert hamming_valid(spec, [{1, 2, 3}, {1, 4, 5}])
    assert not hamming_valid(spec, [{1, 2, 3}, {1, 2, 4}])  # distance 2
    assert not hamming_valid(spec, [{1, 2}, {3, 4, 5}])  # wrong weight


def test_hamming_spec_validation():
    with pytest.raises(ValueError):
        HammingSpec(5, 2, 6)
    with pytest.raises(ValueError):
        HammingSpec(5, 2, 3, 0)
    # no two words of length 4 are distance 5 apart, so a model of this
    # spec could only admit pairs that are too close
    with pytest.raises(ValueError, match="exceeds the length"):
        HammingSpec(4, 5, 2)


def brute_force_optimum(spec):
    """Largest mutually-distant family of weight-w words, by clique search."""
    words = [
        frozenset(c)
        for c in itertools.combinations(range(1, spec.l + 1), spec.w)
    ]
    compatible = {
        (a, b)
        for a, b in itertools.combinations(words, 2)
        if hamming_distance(a, b, spec.l) >= spec.d
    }

    def extend(clique, rest):
        best = len(clique)
        for i, w in enumerate(rest):
            if all(
                (c, w) in compatible or (w, c) in compatible for c in clique
            ):
                best = max(best, extend(clique + [w], rest[i + 1 :]))
        return best

    return extend([], words)


def solver_optimum(spec, mode="domain"):
    from dataclasses import replace

    def build(n):
        m = build_hamming(replace(spec, n=n))
        st = State(m.store, m.vars, m.constraints, mode=mode)
        return st, m.strategy, m.branch_vars

    best, status, _ = optimize_incremental(build)
    assert status == "optimal"
    return best[0] if best else 0


def test_hamming_optimum_small_cases():
    for l, d, w in [(4, 2, 2), (5, 2, 2), (5, 4, 2), (6, 4, 3)]:
        spec = HammingSpec(l, d, w)
        assert solver_optimum(spec) == brute_force_optimum(spec), (l, d, w)


def test_hamming_trivial_when_distance_exceeds_length():
    # no two weight-1 words of length 3 are distance >= 3 apart
    assert solver_optimum(HammingSpec(3, 3, 1)) == 1


def adder_pair_constraint(store, si, sj, spec):
    """The pair constraint in integer form, the reference for build_hamming:
    two adder chains count agreeing positions, a comparator bounds the sum."""
    both = [
        (store.apply_and(store.literal(a), store.literal(b)),)
        for a, b in zip(si.bits, sj.bits)
    ]
    neither = [
        (store.apply_and(store.literal(a, False), store.literal(b, False)),)
        for a, b in zip(si.bits, sj.bits)
    ]
    agree = plus(store, wsum(store, both, [1] * spec.l), wsum(store, neither, [1] * spec.l))
    limit = const_expr(spec.l - spec.d)
    return store.apply_and(int_le(store, agree, limit), lexlt(store, si, sj))


@pytest.mark.parametrize(
    "l,d,w", [(3, 3, 1), (4, 2, 2), (5, 3, 2), (5, 5, 2), (6, 4, 3), (7, 1, 3), (9, 4, 7)]
)
def test_hamming_pair_constraint_matches_adder_form(l, d, w):
    spec = HammingSpec(l, d, w, n=3)
    m = build_hamming(spec)
    s = m.meta["set_vars"]
    pairs = [(0, 1), (0, 2), (1, 2)]
    pair_cons = m.constraints[spec.n:]
    assert len(pair_cons) == len(pairs)
    for (i, j), c in zip(pairs, pair_cons):
        assert c.bdd == adder_pair_constraint(m.store, s[i], s[j], spec), (i, j)


def test_hamming_build_node_count():
    # the card_formulas form makes no adder or comparator nodes, and the
    # native ite no intermediate and-products
    assert build_hamming(HammingSpec(9, 4, 7, n=5)).store.node_count() == 1715


INSTANCES = Path(__file__).parent.parent / "instances"


@pytest.mark.parametrize(
    "name,options,nodes,constraints",
    [
        ("steiner-2-3-7", {"merged": True}, 2443, 28),
        ("steiner-2-3-7", {"merged": False}, 18067, 70),
        ("golfers-2-5-4", {}, 6308, 38),
        ("bacp-toy", {"variant": "primal"}, 2663, 19),
        ("bacp-toy", {"variant": "dual"}, 3079, 29),
        ("bacp-toy", {"variant": "hybrid_primal"}, 4960, 29),
        ("bacp-toy", {"variant": "hybrid_dual"}, 5384, 39),
    ],
)
def test_build_node_and_constraint_counts(name, options, nodes, constraints):
    # a model builder that reorders or rewrites its constraints moves these
    parsed = parse_instance((INSTANCES / f"{name}.txt").read_text())
    m = build_from_instance({**parsed, **options})
    assert (m.store.node_count(), len(m.constraints)) == (nodes, constraints)


def test_hamming_solution_valid():
    spec = HammingSpec(6, 4, 3, n=4)
    m = build_hamming(spec)
    res = run_model(m)
    assert res.status == "sat"
    words = [res.solutions[0][f"c{i + 1}"] for i in range(spec.n)]
    assert hamming_valid(spec, words)


# ----------------------------------------------------------------------
# BACP


TOY = BacpSpec(
    loads=(1, 2, 1, 2),
    periods=2,
    load_min=1,
    load_max=4,
    courses_min=1,
    courses_max=3,
    prereqs=((2, 1),),  # course 2 requires course 1
)


def test_bacp_spec_validation():
    for loads, cycle in (((1, 1), ((1, 2), (2, 1))), ((1, 1, 1), ((1, 2), (2, 3), (3, 1)))):
        with pytest.raises(ValueError, match="prerequisite graph has a cycle"):
            BacpSpec(loads, 2, 0, 2, 0, 2, cycle)
    with pytest.raises(ValueError):
        BacpSpec((1, 1), 2, 0, 2, 0, 2, ((1, 3),))  # out of range
    with pytest.raises(ValueError, match="load_min 3 exceeds load_max 2"):
        BacpSpec((1, 1), 2, 3, 2, 0, 2, ())
    with pytest.raises(ValueError, match="courses_min 2 exceeds courses_max 1"):
        BacpSpec((1, 1), 2, 0, 2, 2, 1, ())
    # equal bounds are allowed
    BacpSpec((1, 1), 2, 2, 2, 1, 1, ())
    with pytest.raises(ValueError):
        build_bacp(TOY, variant="tertiary")


def test_bacp_validator():
    assert bacp_valid(TOY, [{1, 3}, {2, 4}])
    assert not bacp_valid(TOY, [{1, 2}, {3, 4}])  # prerequisite same period
    assert not bacp_valid(TOY, [{2, 4}, {1, 3}])  # prerequisite after
    assert not bacp_valid(TOY, [{1, 2, 3, 4}, set()])  # count bounds
    assert not bacp_valid(TOY, [{1}, {2, 4}])  # course 3 missing
    assert bacp_assignment_from_periods([{1, 3}, {2, 4}]) == {1: 1, 3: 1, 2: 2, 4: 2}


def brute_force_bacp(spec):
    out = set()
    for assign in itertools.product(
        range(1, spec.periods + 1), repeat=spec.courses
    ):
        periods = [
            frozenset(
                c + 1 for c, p in enumerate(assign) if p == i + 1
            )
            for i in range(spec.periods)
        ]
        if bacp_valid(spec, periods):
            out.add(tuple(periods))
    return out


@pytest.mark.parametrize("variant", ["primal", "dual", "hybrid_primal", "hybrid_dual"])
def test_bacp_variants_accept_same_assignments(variant):
    m = build_bacp(TOY, variant=variant)
    res = run_model(m, all_solutions=True)
    got = set()
    for sol in res.solutions:
        periods = tuple(sol[f"S{i + 1}"] for i in range(TOY.periods))
        assert bacp_valid(TOY, periods)
        got.add(periods)
    assert got == brute_force_bacp(TOY)


def test_bacp_x1_forces_singletons():
    m = build_bacp(TOY, variant="dual")
    res = run_model(m)
    assert res.status == "sat"
    sol = res.solutions[0]
    for i in range(TOY.courses):
        assert len(sol[f"X{i + 1}"]) == 1


def test_bacp_cx_model_count():
    # 2 courses, 2 periods: the CX channeling alone leaves 4 independent
    # mirrored incidence bits -> 16 models over the 8 raw bits
    spec = BacpSpec((1, 1), 2, 0, 2, 0, 2, ())
    m = build_bacp(spec, variant="dual")
    cx = [c for c in m.constraints if c.name.startswith("CX")]
    s = m.store
    conj = s.conjoin([c.bdd for c in cx])
    bits = sorted(
        b for v in m.meta["period_vars"] + m.meta["course_vars"] for b in v.bits
    )
    assert s.sat_count(conj, bits) == 16


def test_bacp_int_channels_decode():
    m = build_bacp(TOY, variant="hybrid_dual")
    res = run_model(m)
    assert res.status == "sat"
    sol = res.solutions[0]
    periods = [sol[f"S{i + 1}"] for i in range(TOY.periods)]
    for i, lv in enumerate(m.meta["load_vars"]):
        width = len(lv.bits)
        value = sum(
            1 << (width - pos) for pos in sol[lv.name]
        )
        assert value == sum(TOY.loads[c - 1] for c in periods[i])
    for i, qv in enumerate(m.meta["count_vars"]):
        width = len(qv.bits)
        value = sum(1 << (width - pos) for pos in sol[qv.name])
        assert value == len(periods[i])
