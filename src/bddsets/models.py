"""Benchmark model builders: Steiner systems, Social Golfers, weighted
Hamming codes, and the Balanced Academic Curriculum problem.

Each builder returns a Model bundling the node store, the variables, the
constraint BDDs, the default labeling strategy for that family, and the
variables to label.  Validators check decoded solutions independently of
the solver.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from graphlib import CycleError, TopologicalSorter
from math import comb

from .engine import NodeStore
from .intexpr import (
    alloc_int_vars,
    bits_needed,
    const_expr,
    int_eq,
    int_le,
    plus,
    set_bundles,
    wsum,
)
from .search import Strategy
from .sets import (
    ConstraintBdd,
    Universe,
    alloc_set_vars,
    card,
    card_eq,
    card_formulas,
    card_le,
    inter_card_atmost,
    inter_eq,
    lexle,
    lexlt,
    member,
    not_member,
    partition,
    partition_lex,
)


# each family's labeling; element 1 is the heaviest bit, so "largest" tries the
# smallest element first, and steiner's "smallest" is the classic "largest value"
STRATEGIES = {
    "steiner": Strategy(var_order="seq", value_order="smallest", branch="not_in_first"),
    "golfers": Strategy(var_order="seq", value_order="largest", branch="in_first"),
    "hamming": Strategy(var_order="seq", value_order="largest", branch="not_in_first"),
    "bacp": Strategy(var_order="seq", value_order="largest", branch="in_first"),
}


@dataclass
class Model:
    store: NodeStore
    vars: list
    constraints: list
    branch_vars: list | None
    strategy: Strategy
    meta: dict = field(default_factory=dict)


# ----------------------------------------------------------------------
# Steiner systems


@dataclass(frozen=True)
class SteinerSpec:
    t: int
    k: int
    n: int

    def __post_init__(self):
        if not 0 < self.t <= self.k <= self.n:
            raise ValueError("need 0 < t <= k <= N")
        for i in range(self.t):
            num = comb(self.n - i, self.t - i)
            den = comb(self.k - i, self.t - i)
            if num % den:
                raise ValueError(f"inadmissible parameters ({self.t},{self.k},{self.n})")

    @property
    def blocks(self) -> int:
        return comb(self.n, self.t) // comb(self.k, self.t)


def build_steiner(spec: SteinerSpec, merged=True, node_limit=None) -> Model:
    """A block design model: m blocks of size k over {1..N}, any two
    blocks sharing fewer than t elements, blocks in increasing order.

    The merged form states the pairwise condition directly on block
    pairs; the split form introduces an explicit intersection variable
    per pair, mirroring what primitive-only solvers must do.
    """
    store = NodeStore(node_limit=node_limit)
    u = Universe(spec.n)
    m = spec.blocks
    svars = alloc_set_vars(store, u, [f"s{i + 1}" for i in range(m)])
    cons = [ConstraintBdd(card_eq(store, s, spec.k), (s,), f"|{s.name}|={spec.k}") for s in svars]
    if merged:
        allvars = list(svars)
        for i in range(m):
            for j in range(i + 1, m):
                si, sj = svars[i], svars[j]
                psi = store.apply_and(
                    inter_card_atmost(store, si, sj, spec.t - 1),
                    lexlt(store, si, sj),
                )
                cons.append(ConstraintBdd(psi, (si, sj), f"psi_{i + 1}_{j + 1}"))
    else:
        pairs = [(i, j) for i in range(m) for j in range(i + 1, m)]
        uvars = alloc_set_vars(store, u, [f"u{i + 1}_{j + 1}" for i, j in pairs])
        allvars = svars + uvars
        for (i, j), uij in zip(pairs, uvars):
            si, sj = svars[i], svars[j]
            cons.append(
                ConstraintBdd(inter_eq(store, uij, si, sj), (uij, si, sj), f"{uij.name}=inter")
            )
            cons.append(
                ConstraintBdd(card_le(store, uij, spec.t - 1), (uij,), f"|{uij.name}|<{spec.t}")
            )
            cons.append(ConstraintBdd(lexlt(store, si, sj), (si, sj), f"{si.name}<{sj.name}"))
    return Model(
        store=store,
        vars=allvars,
        constraints=cons,
        branch_vars=svars,
        strategy=STRATEGIES["steiner"],
        meta={"set_vars": svars},
    )


def steiner_valid(spec: SteinerSpec, blocks) -> bool:
    """Every t-subset of the universe lies in exactly one block."""
    blocks = [frozenset(b) for b in blocks]
    if len(blocks) != spec.blocks:
        return False
    if any(len(b) != spec.k for b in blocks):
        return False
    for combo in itertools.combinations(range(1, spec.n + 1), spec.t):
        covering = sum(1 for b in blocks if set(combo) <= b)
        if covering != 1:
            return False
    return True


# ----------------------------------------------------------------------
# Social Golfers


@dataclass(frozen=True)
class GolfersSpec:
    w: int  # weeks
    g: int  # groups per week
    s: int  # group size

    def __post_init__(self):
        if min(self.w, self.g, self.s) < 1:
            raise ValueError("weeks, groups and group size must be >= 1")

    @property
    def golfers(self) -> int:
        return self.g * self.s


def build_golfers(spec: GolfersSpec, node_limit=None) -> Model:
    """Arrange g*s golfers into g groups of s for each of w weeks, no
    pair of golfers grouped together twice; weekly partitions carry a
    lexicographic group order and first groups are ordered across weeks.
    """
    store = NodeStore(node_limit=node_limit)
    u = Universe(spec.golfers)
    names = [f"v{i + 1}_{j + 1}" for i in range(spec.w) for j in range(spec.g)]
    vs = alloc_set_vars(store, u, names)
    week = [vs[i * spec.g : (i + 1) * spec.g] for i in range(spec.w)]
    cons = []
    for i in range(spec.w):
        cons.append(
            ConstraintBdd(
                partition_lex(store, week[i]), tuple(week[i]), f"week{i + 1}"
            )
        )
    for v in vs:
        cons.append(ConstraintBdd(card_eq(store, v, spec.s), (v,), f"|{v.name}|={spec.s}"))
    for i in range(spec.w):
        for j in range(i + 1, spec.w):
            for a in week[i]:
                for b in week[j]:
                    cons.append(
                        ConstraintBdd(
                            inter_card_atmost(store, a, b, 1),
                            (a, b),
                            f"|{a.name}&{b.name}|<=1",
                        )
                    )
    for i in range(spec.w):
        for j in range(i + 1, spec.w):
            cons.append(
                ConstraintBdd(
                    lexle(store, week[i][0], week[j][0]),
                    (week[i][0], week[j][0]),
                    f"week{i + 1}<=week{j + 1}",
                )
            )
    return Model(
        store=store,
        vars=list(vs),
        constraints=cons,
        branch_vars=list(vs),
        strategy=STRATEGIES["golfers"],
        meta={"set_vars": list(vs), "weeks": week},
    )


def golfers_valid(spec: GolfersSpec, weeks) -> bool:
    """weeks: list (per week) of lists of golfer sets."""
    all_g = set(range(1, spec.golfers + 1))
    pairs = set()
    for groups in weeks:
        groups = [frozenset(g) for g in groups]
        if len(groups) != spec.g or any(len(g) != spec.s for g in groups):
            return False
        flat = [x for g in groups for x in g]
        if len(flat) != len(set(flat)) or set(flat) != all_g:
            return False
        for g in groups:
            for p in itertools.combinations(sorted(g), 2):
                if p in pairs:
                    return False
                pairs.add(p)
    return True


# ----------------------------------------------------------------------
# Weighted Hamming codes


@dataclass(frozen=True)
class HammingSpec:
    l: int  # codeword length
    d: int  # minimum pairwise distance
    w: int  # fixed weight
    n: int = 1  # number of codewords

    def __post_init__(self):
        if self.l < 1 or self.d < 1 or not 0 <= self.w <= self.l or self.n < 1:
            raise ValueError("invalid code parameters")
        if self.d > self.l:
            # no two words of length l are more than l apart
            raise ValueError(f"distance {self.d} exceeds the length {self.l}")


def hamming_distance(a, b, l) -> int:
    """Distance between codewords given as sets of one-bit positions."""
    a, b = frozenset(a), frozenset(b)
    return l - len(a & b) - len(set(range(1, l + 1)) - (a | b))


def build_hamming(spec: HammingSpec, node_limit=None) -> Model:
    """n codewords of length l and weight w, pairwise distance >= d.

    Codewords are the characteristic vectors of set variables.  Distance
    >= d says that at most l - d positions agree, so each pair constraint
    is card_formulas over the per-position iff formulas: one BDD with no
    intermediate variables, as inter_card_atmost builds for |v & w| <= k.
    """
    store = NodeStore(node_limit=node_limit)
    u = Universe(spec.l)
    vs = alloc_set_vars(store, u, [f"c{i + 1}" for i in range(spec.n)])
    cons = []
    for v in vs:
        cons.append(ConstraintBdd(card_eq(store, v, spec.w), (v,), f"|{v.name}|={spec.w}"))
    for i in range(spec.n):
        for j in range(i + 1, spec.n):
            si, sj = vs[i], vs[j]
            agree = [
                store.apply_iff(store.literal(a), store.literal(b))
                for a, b in zip(si.bits, sj.bits)
            ]
            bdd = store.apply_and(
                card_formulas(store, agree, 0, spec.l - spec.d), lexlt(store, si, sj)
            )
            cons.append(ConstraintBdd(bdd, (si, sj), f"dist({si.name},{sj.name})>={spec.d}"))
    return Model(
        store=store,
        vars=list(vs),
        constraints=cons,
        branch_vars=list(vs),
        strategy=STRATEGIES["hamming"],
        meta={"set_vars": list(vs)},
    )


def hamming_valid(spec: HammingSpec, words) -> bool:
    words = [frozenset(w) for w in words]
    if any(len(w) != spec.w for w in words):
        return False
    for a, b in itertools.combinations(words, 2):
        if hamming_distance(a, b, spec.l) < spec.d:
            return False
    return True


# ----------------------------------------------------------------------
# Balanced Academic Curriculum


@dataclass(frozen=True)
class BacpSpec:
    loads: tuple  # load of course i at index i-1
    periods: int
    load_min: int
    load_max: int
    courses_min: int
    courses_max: int
    prereqs: tuple  # pairs (course, prerequisite), 1-based

    def __post_init__(self):
        if self.periods < 1:
            raise ValueError(f"need at least one period, got {self.periods}")
        if min(self.load_min, self.courses_min, *self.loads) < 0:
            raise ValueError("loads, load_min and courses_min must be non-negative")
        if self.load_min > self.load_max:
            raise ValueError(f"load_min {self.load_min} exceeds load_max {self.load_max}")
        if self.courses_min > self.courses_max:
            raise ValueError(
                f"courses_min {self.courses_min} exceeds courses_max {self.courses_max}"
            )
        m = len(self.loads)
        graph = TopologicalSorter()
        for c, p in self.prereqs:
            if not (1 <= c <= m and 1 <= p <= m) or c == p:
                raise ValueError(f"bad prerequisite pair ({c}, {p})")
            graph.add(c, p)
        try:
            graph.prepare()
        except CycleError:
            raise ValueError("prerequisite graph has a cycle") from None

    @property
    def courses(self) -> int:
        return len(self.loads)


# the constraint groups of each variant; a model builds its groups in the
# order S1..S4, CX, X1, X2, CI1, CI2, I1..I4
BACP_GROUPS = {
    "primal": ("S1", "S2", "S3", "S4"),
    "dual": ("S2", "S3", "CX", "X1", "X2"),
    "hybrid_primal": ("S1", "S4", "CI1", "CI2", "I1", "I2", "I3", "I4"),
    "hybrid_dual": ("CX", "X1", "X2", "CI1", "CI2", "I1", "I2", "I3", "I4"),
}
BACP_VARIANTS = tuple(BACP_GROUPS)


def build_bacp(spec: BacpSpec, variant="hybrid_dual", node_limit=None) -> Model:
    """Assign courses to periods balancing per-period load and count.

    Period sets S_i hold course numbers; course sets X_i hold the single
    period of course i; l_i and q_i are integer load and count channels.
    The variant picks the constraint groups of BACP_GROUPS.
    """
    if variant not in BACP_VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    use = BACP_GROUPS[variant]
    store = NodeStore(node_limit=node_limit)
    m, n = spec.courses, spec.periods
    svars = alloc_set_vars(store, Universe(m), [f"S{i + 1}" for i in range(n)])
    xvars, lvars, qvars = [], [], []
    if "CX" in use:  # every variant with X1 or X2 has CX
        xvars = alloc_set_vars(store, Universe(n), [f"X{i + 1}" for i in range(m)])
    if "CI1" in use:  # every variant with CI2 or I1..I4 has CI1
        lw, qw = bits_needed(spec.load_max), bits_needed(spec.courses_max)
        lvars = alloc_int_vars(store, [f"l{i + 1}" for i in range(n)], lw)
        qvars = alloc_int_vars(store, [f"q{i + 1}" for i in range(n)], qw)
    weights = list(spec.loads)
    cons = []

    def between(x, lo, hi):
        return store.apply_and(int_le(store, const_expr(lo), x), int_le(store, x, const_expr(hi)))

    def total(s, ws):
        return wsum(store, set_bundles(store, s), ws)

    if "S1" in use:
        cons.append(ConstraintBdd(partition(store, svars), tuple(svars), "S1"))
    if "S2" in use:
        for i, s in enumerate(svars):
            bdd = card(store, s.bits, spec.courses_min, spec.courses_max)
            cons.append(ConstraintBdd(bdd, (s,), f"S2_{i + 1}"))
    if "S3" in use:
        for i, s in enumerate(svars):
            bdd = between(total(s, weights), spec.load_min, spec.load_max)
            cons.append(ConstraintBdd(bdd, (s,), f"S3_{i + 1}"))
    if "S4" in use and spec.prereqs:
        for i in range(n):
            for j in range(i + 1):
                bdd = store.conjoin(
                    store.apply_imp(member(store, p, svars[i]), not_member(store, c, svars[j]))
                    for c, p in spec.prereqs
                )
                scope = (svars[i],) if i == j else (svars[i], svars[j])
                cons.append(ConstraintBdd(bdd, scope, f"S4_{i + 1}_{j + 1}"))
    if "CX" in use:
        # one channeling constraint per course, touching bit i of every
        # period set and the whole of X_i
        for i, x in enumerate(xvars):
            bdd = store.conjoin(
                store.apply_iff(member(store, i + 1, s), member(store, j + 1, x))
                for j, s in enumerate(svars)
            )
            cons.append(ConstraintBdd(bdd, (x,) + tuple(svars), f"CX_{i + 1}"))
    if "X1" in use:
        for x in xvars:
            cons.append(ConstraintBdd(card_eq(store, x, 1), (x,), f"|{x.name}|=1"))
    if "X2" in use:
        # a prerequisite must sit in a strictly earlier period; smaller
        # period index means lexicographically larger singleton
        for c, p in spec.prereqs:
            x, y = xvars[c - 1], xvars[p - 1]
            cons.append(ConstraintBdd(lexlt(store, x, y), (x, y), f"X2_{c}_{p}"))
    # CI1, CI2: each period's load and count channelled into l_i and q_i
    for group, ivars, ws in (("CI1", lvars, weights), ("CI2", qvars, [1] * m)):
        if group in use:
            for s, v in zip(svars, ivars):
                bdd = int_eq(store, total(s, ws), v.expr)
                cons.append(ConstraintBdd(bdd, (s, v), f"{group}_{v.name}"))
    # I1, I2: their ranges; I3, I4: their sums over the periods
    for group, ivars, lo, hi in (
        ("I1", lvars, spec.load_min, spec.load_max),
        ("I2", qvars, spec.courses_min, spec.courses_max),
    ):
        if group in use:
            for v in ivars:
                cons.append(ConstraintBdd(between(v.expr, lo, hi), (v,), f"{group}_{v.name}"))
    for group, ivars, want in (("I3", lvars, sum(weights)), ("I4", qvars, m)):
        if group in use:
            acc = ()
            for v in ivars:
                acc = plus(store, acc, v.expr)
            bdd = int_eq(store, acc, const_expr(want))
            cons.append(ConstraintBdd(bdd, tuple(ivars), group))
    return Model(
        store=store,
        vars=svars + xvars + lvars + qvars,
        constraints=cons,
        branch_vars=list(xvars if "CX" in use else svars),
        strategy=STRATEGIES["bacp"],
        meta={
            "period_vars": svars, "course_vars": xvars, "load_vars": lvars, "count_vars": qvars
        },
    )


def bacp_assignment_from_periods(period_sets) -> dict:
    """course -> period from decoded period sets (list, index 0 = period 1)."""
    out = {}
    for p, courses in enumerate(period_sets, start=1):
        for c in courses:
            out[c] = p
    return out


def bacp_valid(spec: BacpSpec, period_sets) -> bool:
    sets = [frozenset(s) for s in period_sets]
    if len(sets) != spec.periods:
        return False
    assigned = [c for s in sets for c in s]
    if sorted(assigned) != list(range(1, spec.courses + 1)):
        return False
    for s in sets:
        if not spec.courses_min <= len(s) <= spec.courses_max:
            return False
        load = sum(spec.loads[c - 1] for c in s)
        if not spec.load_min <= load <= spec.load_max:
            return False
    period = bacp_assignment_from_periods(sets)
    return all(period[p] < period[c] for c, p in spec.prereqs)
