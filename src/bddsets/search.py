"""Backtracking search over a propagation State.

Branching fixes one unfixed bit of one variable per choice point (for set
variables, one element in or out of the set), propagates to fixpoint, and
backtracks via the State trail.  The failure count matches the usual
solver convention: every choice whose propagation wipes out a domain
counts one failure, while a root-level wipeout proves unsatisfiability
with zero failures.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from .engine import NodeLimitExceeded
from .propagate import DeadlineExceeded

VAR_ORDERS = ("seq", "first_fail")
VALUE_ORDERS = ("largest", "smallest")
BRANCHES = ("not_in_first", "in_first")


@dataclass(frozen=True)
class Strategy:
    var_order: str = "seq"
    value_order: str = "largest"
    branch: str = "not_in_first"

    def __post_init__(self):
        if self.var_order not in VAR_ORDERS:
            raise ValueError(f"unknown variable order {self.var_order!r}")
        if self.value_order not in VALUE_ORDERS:
            raise ValueError(f"unknown value order {self.value_order!r}")
        if self.branch not in BRANCHES:
            raise ValueError(f"unknown branch order {self.branch!r}")


@dataclass
class SearchResult:
    status: str  # "sat", "unsat", "all", "timeout", "nodelimit"
    solutions: list = field(default_factory=list)
    fails: int = 0
    nodes: int = 0
    seconds: float = 0.0


class _Stop(Exception):
    def __init__(self, status):
        self.status = status


def snapshot(state) -> dict:
    """Map every variable name to the frozenset of its true bit positions.

    For a set variable that is exactly the set value; integer and
    multiset blocks are decoded by their owners.
    """
    out = {}
    for v in state.vars:
        fixed = state.fixed_bit_values(state.var_index(v))
        out[v.name] = frozenset(
            i + 1 for i, b in enumerate(v.bits) if fixed.get(b)
        )
    return out


def solve(
    state,
    strategy: Strategy = Strategy(),
    branch_vars=None,
    all_solutions: bool = False,
    max_solutions: int | None = None,
    time_limit: float | None = None,
    on_step=None,
) -> SearchResult:
    """Run depth-first search from the current state.

    branch_vars restricts the labeling order to a subset of variables (the
    rest must become determined by propagation, or they are labeled bit by
    bit afterwards).  on_step, if given, is called as on_step(state, step)
    after the initial propagation (step 0) and after every successful
    labeling step.
    """
    t0 = time.perf_counter()
    res = SearchResult(status="unsat")
    if branch_vars is None:
        order = list(range(len(state.vars)))
    else:
        order = [state.var_index(v) for v in branch_vars]
        order += [i for i in range(len(state.vars)) if i not in set(order)]

    deadline = None if time_limit is None else t0 + time_limit

    def deadline_check():
        if deadline is not None and time.perf_counter() >= deadline:
            raise _Stop("timeout")

    def pick():
        cands = [vi for vi in order if not state.is_determined(vi)]
        if not cands:
            return None
        if strategy.var_order == "first_fail":
            # fewest unfixed bits, ties by declaration order
            vi = min(
                cands,
                key=lambda i: len(state.bits[i]) - len(state.fixed_bit_values(i)),
            )
        else:
            vi = cands[0]
        fixed = state.fixed_bit_values(vi)
        unfixed = [i for i, b in enumerate(state.bits[vi]) if b not in fixed]
        pos = max(unfixed) if strategy.value_order == "largest" else min(unfixed)
        return vi, state.bits[vi][pos]

    def record():
        res.solutions.append(snapshot(state))
        if max_solutions is not None and len(res.solutions) >= max_solutions:
            raise _Stop("sat")
        if not all_solutions:
            raise _Stop("sat")

    def dfs():
        deadline_check()
        choice = pick()
        if choice is None:
            record()
            return
        vi, bit = choice
        values = (False, True) if strategy.branch == "not_in_first" else (True, False)
        for value in values:
            res.nodes += 1
            m = state.mark()
            state.maintain()
            try:
                if state.assign_bit(vi, bit, value) and state.propagate(deadline):
                    if on_step is not None:
                        on_step(state, res.nodes)
                    dfs()
                else:
                    res.fails += 1
            finally:
                state.undo(m)

    try:
        state.enqueue_all()
        if state.propagate(deadline):
            if on_step is not None:
                on_step(state, 0)
            dfs()
            res.status = "all" if all_solutions else "unsat"
            if all_solutions and not res.solutions:
                res.status = "unsat"
    except _Stop as stop:
        res.status = stop.status
    except DeadlineExceeded:
        res.status = "timeout"
    except NodeLimitExceeded:
        res.status = "nodelimit"
    finally:
        # dfs is a self-recursive closure over the state: clearing its cell
        # breaks the cycle, so the state is freed once the caller drops it
        dfs = None
    if all_solutions and res.status == "all" and res.solutions:
        # exhaustive search backtracks past each solution by failing; the
        # final solution's backtrack merely exhausts the tree, so an
        # n-solution run adds n-1 failures to the count
        res.fails += len(res.solutions) - 1
    res.seconds = time.perf_counter() - t0
    return res


def optimize_incremental(build, time_limit: float | None = None):
    """Find the largest n for which build(n) is satisfiable.

    build(n) returns a ready-to-solve (state, strategy, branch_vars)
    triple; instances are solved for n = 1, 2, ... until one is
    unsatisfiable, which proves optimality of the previous n.  Returns a
    (best, status, fails) tuple: best is (n, solution), or None when even
    the first instance has no solution; status is "optimal", "timeout" or
    "nodelimit", the last also when build(n) hits the node ceiling; fails
    is summed over every solve.
    """
    t0 = time.perf_counter()
    best = None
    total_fails = 0
    n = 1
    while True:
        remaining = None
        if time_limit is not None:
            remaining = time_limit - (time.perf_counter() - t0)
            if remaining <= 0:
                return best, "timeout", total_fails
        try:
            state, strategy, branch_vars = build(n)
        except NodeLimitExceeded:
            return best, "nodelimit", total_fails
        res = solve(state, strategy, branch_vars=branch_vars, time_limit=remaining)
        total_fails += res.fails
        if res.status == "sat":
            best = (n, res.solutions[0])
            n += 1
        elif res.status == "unsat":
            return best, "optimal", total_fails
        else:
            return best, res.status, total_fails
