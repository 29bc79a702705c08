"""Acceptance gate: one test (and one printed verdict line) per criterion.

Very long benchmark cases — the S(2,6,16) all-solutions run and the three
unsatisfiable golfers instances — take tens of minutes in pure Python and
are only exercised when BDDSETS_ACCEPTANCE_FULL=1 is set; the verdict
lines say explicitly what was covered.  Everything else runs by default.
"""

import itertools
import os
import random
from dataclasses import replace

from bddsets import analysis
from bddsets.engine import FALSE, TRUE, NodeStore
from bddsets.intexpr import (
    alloc_int_vars,
    const_expr,
    int_eq,
    int_lt,
    max_expr,
    min_expr,
    monus,
    mul_const,
    plus,
    wsum,
)
from bddsets.models import (
    BacpSpec,
    GolfersSpec,
    HammingSpec,
    SteinerSpec,
    bacp_valid,
    build_bacp,
    build_golfers,
    build_hamming,
    build_steiner,
    hamming_distance,
)
from bddsets.propagate import State
from bddsets.search import optimize_incremental, solve
from bddsets.sets import (
    ConstraintBdd,
    Universe,
    alloc_set_vars,
    card,
    card_eq,
    card_le,
    lexlt,
    member,
    not_member,
    subseteq,
    union_eq,
)

from conftest import apply_op

FULL = os.environ.get("BDDSETS_ACCEPTANCE_FULL") == "1"


def verdict(num, desc, problems, note=""):
    ok = not problems
    line = f"[criterion {num}] {desc}: {'PASS' if ok else 'FAIL'}"
    if note:
        line += f" ({note})"
    print(line, flush=True)
    assert ok, line + "; " + "; ".join(problems)


def run_model(m, mode, **kw):
    st = State(m.store, m.vars, m.constraints, mode=mode)
    return solve(st, m.strategy, branch_vars=m.branch_vars, **kw)


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


# ----------------------------------------------------------------------
# 1. all-solutions counts on the merged block-design model


def test_criterion_1_solution_counts():
    expected = {
        (2, 3, 7): (30, 47),
        (3, 4, 8): (30, 492),
        (2, 3, 9): (840, 16794),
    }
    problems = []
    for (t, k, n), (sols, fails) in expected.items():
        res = run_model(build_steiner(SteinerSpec(t, k, n)), "domain", all_solutions=True)
        if (len(res.solutions), res.fails) != (sols, fails):
            problems.append(
                f"S({t},{k},{n}): got {len(res.solutions)}/{res.fails}, want {sols}/{fails}"
            )
    note = "S(2,6,16) covered in full mode only"
    if FULL:
        limit = os.environ.get("BDDSETS_TIME_LIMIT")
        res = run_model(build_steiner(SteinerSpec(2, 6, 16)), "domain",
                        all_solutions=True, time_limit=float(limit) if limit else None)
        if res.status != "unsat" or res.solutions:
            problems.append(f"S(2,6,16): got {res.status}/{len(res.solutions)}, want unsat/0")
        note = "including S(2,6,16)"
    verdict(1, "all-solutions counts 30/30/840(/0)", problems, note)


# ----------------------------------------------------------------------
# 2. first-solution fail counts, merged model


def test_criterion_2_first_solution_fails():
    domain_expected = {
        (2, 3, 7): 0,
        (3, 4, 8): 0,
        (2, 3, 9): 9,
        (2, 4, 13): 0,
        (2, 3, 15): 0,
    }
    bounds_expected = {(2, 3, 7): 8, (2, 3, 9): 325}
    problems = []
    for spec_t, fails in domain_expected.items():
        res = run_model(build_steiner(SteinerSpec(*spec_t)), "domain")
        if (res.status, res.fails) != ("sat", fails):
            problems.append(f"domain S{spec_t}: got {res.status}/{res.fails}, want sat/{fails}")
    for spec_t, fails in bounds_expected.items():
        res = run_model(build_steiner(SteinerSpec(*spec_t)), "bounds")
        if (res.status, res.fails) != ("sat", fails):
            problems.append(f"bounds S{spec_t}: got {res.status}/{res.fails}, want sat/{fails}")
    verdict(2, "merged-model fail counts, domain and bounds", problems)


# ----------------------------------------------------------------------
# 3. split-model parity


def test_criterion_3_split_model_fails():
    expected = {
        (2, 3, 7): (0, 10),
        (3, 4, 8): (0, 21),
        (2, 3, 9): (100, 1394),
    }
    problems = []
    for spec_t, (dom_fails, bounds_fails) in expected.items():
        m = build_steiner(SteinerSpec(*spec_t), merged=False)
        for mode, fails in (("domain", dom_fails), ("bounds", bounds_fails)):
            res = run_model(m, mode)
            if (res.status, res.fails) != ("sat", fails):
                problems.append(
                    f"{mode} split S{spec_t}: got {res.status}/{res.fails}, want sat/{fails}"
                )
    verdict(3, "split-model fail counts, domain and bounds", problems)


# ----------------------------------------------------------------------
# 4. golfers fail counts and unsatisfiable instances


def test_criterion_4_golfers():
    expected = {
        (2, 5, 4): (0, 30),
        (3, 5, 4): (0, 30),
        (6, 6, 3): (0, 5),
    }
    problems = []
    for spec_t, (dom_fails, bounds_fails) in expected.items():
        m = build_golfers(GolfersSpec(*spec_t))
        for mode, fails in (("domain", dom_fails), ("bounds", bounds_fails)):
            res = run_model(m, mode)
            if (res.status, res.fails) != ("sat", fails):
                problems.append(
                    f"{mode} {spec_t}: got {res.status}/{res.fails}, want sat/{fails}"
                )
    note = "unsat trio covered in full mode only"
    if FULL:
        # these refutations take days in pure Python (measured 2.5-19
        # fails/s against trees beyond 2*10^5 fails); each run gets an
        # hour unless BDDSETS_TIME_LIMIT says otherwise, and hitting the
        # cap is reported as an honest failure, not skipped
        limit = float(os.environ.get("BDDSETS_TIME_LIMIT") or 3600)
        for spec_t in ((5, 4, 3), (6, 4, 3), (7, 5, 5)):
            res = run_model(build_golfers(GolfersSpec(*spec_t)), "domain",
                            time_limit=limit)
            if res.status != "unsat":
                problems.append(f"{spec_t}: got {res.status}, want unsat")
        note = "including the unsat trio"
    verdict(4, "golfers fail counts and unsatisfiability", problems, note)


# ----------------------------------------------------------------------
# 5. propagation fixpoints against explicit-domain oracles


def random_system(store, rng):
    n = rng.randint(1, 3)
    u = Universe(n)
    k = rng.randint(1, 3)
    vs = alloc_set_vars(store, u, [f"v{i}" for i in range(k)])
    cons = []
    for _ in range(rng.randint(1, 4)):
        kind = rng.randrange(6)
        if kind == 0:
            v = rng.choice(vs)
            e = rng.randint(1, n)
            cons.append(ConstraintBdd(member(store, e, v), (v,)))
        elif kind == 1:
            v = rng.choice(vs)
            e = rng.randint(1, n)
            cons.append(ConstraintBdd(not_member(store, e, v), (v,)))
        elif kind == 2:
            v = rng.choice(vs)
            cons.append(ConstraintBdd(card_le(store, v, rng.randint(0, n)), (v,)))
        elif kind == 3:
            v = rng.choice(vs)
            cons.append(ConstraintBdd(card_eq(store, v, rng.randint(0, n)), (v,)))
        elif kind == 4 and k >= 2:
            a, b = rng.sample(vs, 2)
            cons.append(ConstraintBdd(subseteq(store, a, b), (a, b)))
        elif kind == 5 and k >= 2:
            a, b = rng.sample(vs, 2)
            cons.append(ConstraintBdd(lexlt(store, a, b), (a, b)))
    if not cons:
        v = rng.choice(vs)
        cons.append(ConstraintBdd(card_le(store, v, n), (v,)))
    return n, vs, cons


def oracle_domain(store, n, vs, cons):
    """Per-constraint filtering to fixpoint over explicit domains."""
    doms = {v: set(subsets(n)) for v in vs}
    while True:
        changed = False
        for c in cons:
            scope = list(c.scope)
            support = {v: set() for v in scope}
            for combo in itertools.product(*(list(doms[v]) for v in scope)):
                if holds(store, c.bdd, dict(zip(scope, combo))):
                    for v, a in zip(scope, combo):
                        support[v].add(a)
            for v in scope:
                if not support[v]:
                    return None
                if support[v] != doms[v]:
                    doms[v] = support[v]
                    changed = True
        if not changed:
            return doms


def oracle_bounds(store, n, vs, cons):
    """Interval-hull filtering (hull of the filtered range) to fixpoint."""
    full = frozenset(range(1, n + 1))
    lb = {v: frozenset() for v in vs}
    ub = {v: full for v in vs}

    def family(v):
        free = sorted(ub[v] - lb[v])
        return [
            lb[v] | frozenset(c)
            for r in range(len(free) + 1)
            for c in itertools.combinations(free, r)
        ]

    while True:
        changed = False
        for c in cons:
            scope = list(c.scope)
            support = {v: set() for v in scope}
            for combo in itertools.product(*(family(v) for v in scope)):
                if holds(store, c.bdd, dict(zip(scope, combo))):
                    for v, a in zip(scope, combo):
                        support[v].add(a)
            for v in scope:
                if not support[v]:
                    return None
                nlb = frozenset.intersection(*support[v])
                nub = frozenset.union(*support[v])
                if (nlb, nub) != (lb[v], ub[v]):
                    lb[v], ub[v] = nlb, nub
                    changed = True
        if not changed:
            return lb, ub


def test_criterion_5_propagation_oracles():
    rng = random.Random(987654)
    problems = []
    for case in range(500):
        store = NodeStore()
        n, vs, cons = random_system(store, rng)

        expected = oracle_domain(store, n, vs, cons)
        st = State(store, vs, cons, mode="domain")
        ok = st.propagate_from_scratch()
        if (expected is not None) != ok:
            problems.append(f"case {case}: domain feasibility mismatch")
            continue
        if ok:
            for v in vs:
                got = {t for t in subsets(n) if holds(store, st.domain_bdd(v), {v: t})}
                if got != expected[v]:
                    problems.append(f"case {case}: domain fixpoint differs on {v.name}")

        expected_b = oracle_bounds(store, n, vs, cons)
        st = State(store, vs, cons, mode="bounds")
        ok = st.propagate_from_scratch()
        if (expected_b is not None) != ok:
            problems.append(f"case {case}: bounds feasibility mismatch")
            continue
        if ok:
            lb, ub = expected_b
            full = frozenset(range(1, n + 1))
            for v in vs:
                fixed = st.fixed_bit_values(st.var_index(v))
                got_lb = frozenset(
                    i + 1 for i, b in enumerate(v.bits) if fixed.get(b) is True
                )
                got_ub = full - frozenset(
                    i + 1 for i, b in enumerate(v.bits) if fixed.get(b) is False
                )
                if (got_lb, got_ub) != (lb[v], ub[v]):
                    problems.append(f"case {case}: bounds fixpoint differs on {v.name}")
        if problems:
            break
    verdict(5, "500 random systems match domain and bounds oracles", problems)


# ----------------------------------------------------------------------
# 6. arithmetic circuits against integer arithmetic


def expr_value(store, expr, env):
    v = 0
    for bit in expr:
        v = (v << 1) | (1 if store.eval_node(bit, env) else 0)
    return v


def test_criterion_6_arithmetic_exhaustive():
    problems = []
    for wx in range(1, 5):
        for wy in range(1, 5):
            store = NodeStore()
            x, y = alloc_int_vars(store, ["x", "y"], max(wx, wy))
            xe, ye = x.expr[-wx:], y.expr[-wy:]
            total = plus(store, xe, ye)
            lt = int_lt(store, xe, ye)
            mn = min_expr(store, xe, ye)
            mx = max_expr(store, xe, ye)
            mo = monus(store, xe, ye)
            consts = [0, 1, 2, 3, 5, 7, 11, 15]
            muls = {c: mul_const(store, xe, c) for c in consts}
            bits = list(x.bits) + list(y.bits)
            for assign in itertools.product([False, True], repeat=len(bits)):
                env = dict(zip(bits, assign))
                a = expr_value(store, xe, env)
                b = expr_value(store, ye, env)
                checks = [
                    (expr_value(store, total, env), a + b, "plus"),
                    (store.eval_node(lt, env), a < b, "int_lt"),
                    (expr_value(store, mn, env), min(a, b), "min"),
                    (expr_value(store, mx, env), max(a, b), "max"),
                    (expr_value(store, mo, env), max(0, a - b), "monus"),
                ]
                checks += [
                    (expr_value(store, muls[c], env), a * c, f"mul_const {c}")
                    for c in consts
                ]
                for got, want, what in checks:
                    if got != want:
                        problems.append(f"{what} at widths {wx},{wy}: {got} != {want}")
    # weighted sums over four Boolean bundles, weights up to 15
    rng = random.Random(31)
    store = NodeStore()
    u = Universe(4)
    (s,) = alloc_set_vars(store, u, ["s"])
    for weights in [[1, 1, 1, 1], [15, 7, 3, 1]] + [
        [rng.randint(0, 15) for _ in range(4)] for _ in range(4)
    ]:
        ws = wsum(store, [(store.literal(b),) for b in s.bits], weights)
        for assign in itertools.product([False, True], repeat=4):
            env = dict(zip(s.bits, assign))
            want = sum(w for w, on in zip(weights, assign) if on)
            got = expr_value(store, ws, env)
            if got != want:
                problems.append(f"wsum {weights}: {got} != {want}")
    verdict(6, "arithmetic exhaustive up to width 4, constants to 15", problems)


# ----------------------------------------------------------------------
# 7. engine canonicity, split size bound, wsum/card identity


def random_tree(rng, nvars, depth=0):
    if depth > 4 or rng.random() < 0.3:
        return ("var", rng.randrange(nvars))
    op = rng.choice(["and", "or", "xor", "iff", "not"])
    if op == "not":
        return ("not", random_tree(rng, nvars, depth + 1))
    return (op, random_tree(rng, nvars, depth + 1), random_tree(rng, nvars, depth + 1))


def eval_tree(tree, env):
    if tree[0] == "var":
        return env[tree[1]]
    if tree[0] == "not":
        return not eval_tree(tree[1], env)
    a, b = eval_tree(tree[1], env), eval_tree(tree[2], env)
    return {"and": a and b, "or": a or b, "xor": a != b, "iff": a == b}[tree[0]]


def build_direct(store, tree):
    if tree[0] == "var":
        return store.literal(tree[1])
    if tree[0] == "not":
        return store.negate(build_direct(store, tree[1]))
    a, b = build_direct(store, tree[1]), build_direct(store, tree[2])
    return apply_op(store, tree[0], a, b)


def build_demorgan(store, tree):
    """Same function, built from a rewritten formula."""
    if tree[0] == "var":
        return store.literal(tree[1])
    if tree[0] == "not":
        return store.negate(build_demorgan(store, tree[1]))
    a, b = build_demorgan(store, tree[1]), build_demorgan(store, tree[2])
    na, nb = store.negate(a), store.negate(b)
    if tree[0] == "and":
        return store.negate(store.apply_or(na, nb))
    if tree[0] == "or":
        return store.negate(store.apply_and(na, nb))
    if tree[0] == "xor":
        return store.apply_or(store.apply_and(a, nb), store.apply_and(na, b))
    return store.negate(
        store.apply_or(store.apply_and(a, nb), store.apply_and(na, b))
    )


def test_criterion_7_engine_properties():
    problems = []
    if not analysis.check_split_sizes:
        problems.append("split size checking is not active in the test run")
    rng = random.Random(271828)
    store = NodeStore(debug_checks=True)
    nvars = 6
    store.new_vars(nvars)
    for case in range(1000):
        tree = random_tree(rng, nvars)
        direct = build_direct(store, tree)
        rewritten = build_demorgan(store, tree)
        if direct != rewritten:
            problems.append(f"case {case}: construction orders gave different handles")
            break
        for assign in itertools.product([False, True], repeat=nvars):
            env = dict(enumerate(assign))
            if store.eval_node(direct, env) != eval_tree(tree, env):
                problems.append(f"case {case}: truth table mismatch")
                break
        if direct != FALSE:
            stick, rem = analysis.split(store, direct)  # size bound self-checks
            if store.apply_and(stick, rem) != direct:
                problems.append(f"case {case}: split does not reconjoin")
        if problems:
            break
    store.audit()
    # unit-weight sums and cardinality constraints share canonical BDDs
    cstore = NodeStore()
    u = Universe(5)
    (s,) = alloc_set_vars(cstore, u, ["s"])
    ws = wsum(cstore, [(cstore.literal(b),) for b in s.bits], [1] * 5)
    for k in range(6):
        if int_eq(cstore, ws, const_expr(k)) != card(cstore, s.bits, k, k):
            problems.append(f"wsum/card identity fails at k={k}")
    verdict(7, "1000-case canonicity, split bound, wsum/card identity", problems)


# ----------------------------------------------------------------------
# 8. fixed-weight code optimization


def brute_force_code_optimum(spec):
    words = [
        frozenset(c) for c in itertools.combinations(range(1, spec.l + 1), spec.w)
    ]
    compatible = {
        frozenset((a, b))
        for a, b in itertools.combinations(words, 2)
        if hamming_distance(a, b, spec.l) >= spec.d
    }

    def extend(clique, rest):
        best = len(clique)
        for i, w in enumerate(rest):
            if all(frozenset((w, c)) in compatible for c in clique):
                best = max(best, extend(clique + [w], rest[i + 1 :]))
        return best

    return extend([], words)


def solver_code_optimum(spec, mode, time_limit=None):
    def build(n):
        m = build_hamming(replace(spec, n=n))
        st = State(m.store, m.vars, m.constraints, mode=mode)
        return st, m.strategy, m.branch_vars

    return optimize_incremental(build, time_limit=time_limit)


def test_criterion_8_code_optimization():
    problems = []
    spec = HammingSpec(9, 4, 7)
    want = brute_force_code_optimum(spec)
    for mode in ("bounds", "lex"):
        best, status, _ = solver_code_optimum(spec, mode, time_limit=60)
        if status != "optimal":
            problems.append(f"H(9,4,7) {mode}: no optimality proof inside 60 s")
        elif (best[0] if best else 0) != want:
            problems.append(f"H(9,4,7) {mode}: got {best[0]}, brute force says {want}")
    small = HammingSpec(6, 4, 3)
    best, status, _ = solver_code_optimum(small, "domain")
    got = best[0] if best else 0
    if status != "optimal" or got != brute_force_code_optimum(small):
        problems.append(f"H(6,4,3): got {status}/{got}")
    verdict(8, "code optima proven within limits and match brute force", problems)


# ----------------------------------------------------------------------
# 9. curriculum planning: real data if provided, synthetic otherwise


SYNTHETIC = BacpSpec(
    loads=(1, 2, 3, 4, 2, 3, 1, 2),
    periods=4,
    load_min=1,
    load_max=18,
    courses_min=1,
    courses_max=3,
    prereqs=((3, 1), (4, 2), (6, 5), (8, 7), (5, 3)),
)


def synthetic_optimum():
    """Smallest feasible bound on the maximum period load, by brute force."""
    spec = SYNTHETIC
    best = None
    for assign in itertools.product(range(1, spec.periods + 1), repeat=spec.courses):
        periods = [
            frozenset(c + 1 for c, p in enumerate(assign) if p == i + 1)
            for i in range(spec.periods)
        ]
        if bacp_valid(spec, periods):
            peak = max(sum(spec.loads[c - 1] for c in s) for s in periods)
            best = peak if best is None else min(best, peak)
    return best


def test_criterion_9_curriculum():
    problems = []
    data_path = os.environ.get("BDDSETS_BACP8")
    if data_path:
        from bddsets.instances import parse_instance

        with open(data_path, "r", encoding="utf-8") as fh:
            spec = parse_instance(fh.read())["spec"]
        res = run_model(build_bacp(replace(spec, load_max=17), "hybrid_dual"), "domain")
        if (res.status, res.fails) != ("sat", 3):
            problems.append(f"b=17: got {res.status}/{res.fails}, want sat/3")
        res = run_model(build_bacp(replace(spec, load_max=16), "hybrid_dual"), "domain")
        if (res.status, res.fails) != ("unsat", 0):
            problems.append(f"b=16: got {res.status}/{res.fails}, want unsat/0")
        verdict(9, "curriculum bound 17 optimal with 3 fails", problems, "real data")
        return

    b = synthetic_optimum()
    if b is None:
        problems.append("synthetic instance is infeasible; fallback would be empty")
    else:
        counts = {}
        for variant in ("primal", "dual", "hybrid_primal", "hybrid_dual"):
            m = build_bacp(replace(SYNTHETIC, load_max=b), variant)
            res = run_model(m, "domain", all_solutions=True)
            if not res.solutions:
                problems.append(f"{variant}: no solution at the optimal bound {b}")
                continue
            for sol in res.solutions:
                periods = [sol[f"S{i + 1}"] for i in range(SYNTHETIC.periods)]
                if not bacp_valid(replace(SYNTHETIC, load_max=b), periods):
                    problems.append(f"{variant}: invalid solution returned")
                    break
            counts[variant] = len(res.solutions)
        if len(set(counts.values())) > 1:
            problems.append(f"variants disagree on solution count: {counts}")
        res = run_model(
            build_bacp(replace(SYNTHETIC, load_max=b - 1), "hybrid_dual"), "domain"
        )
        if res.status != "unsat":
            problems.append(f"bound {b - 1}: got {res.status}, want unsat")
    verdict(
        9,
        f"curriculum optimum bound {b} proven across all variants",
        problems,
        "synthetic fallback; curriculum data unavailable in this environment",
    )
