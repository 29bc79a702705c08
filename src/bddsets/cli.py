"""Batch runner: solve one benchmark instance and emit a stats report.

Reads an instance file, builds the model, runs one solve (first solution,
all solutions, or optimization), and writes a csv or jsonl report to
stdout.  With --trace, per-labeling-step rows (total domain bits and
total domain BDD sizes) are emitted before the report row.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import replace

from .engine import NodeLimitExceeded
from .instances import InstanceError, parse_instance, build_from_instance
from .models import build_hamming
from .propagate import MODES, State
from .search import Strategy, optimize_incremental, solve

REPORT_VERSION = 1

REPORT_COLUMNS = [
    "version",
    "problem",
    "mode",
    "var_order",
    "value_order",
    "branch",
    "target",
    "status",
    "solutions",
    "fails",
    "nodes",
    "optimum",
    "peak_nodes",
    "time_s",
]

TRACE_COLUMNS = ["step", "domain_bits", "domain_nodes", "elapsed_s"]

STATUS_MARKS = {
    "sat": "ok",
    "all": "ok",
    "unsat": "ok",
    "optimal": "ok",
    "timeout": "—",
    "nodelimit": "×",
}

_VAR_ORDER_FLAGS = {"seq": "seq", "first-fail": "first_fail"}
_BRANCH_FLAGS = {"notin-first": "not_in_first", "in-first": "in_first"}


def _at_least(cast, low):
    """An argparse type: a number parsed by cast that is at least low."""

    def parse(raw):
        value = cast(raw)
        if not value >= low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {raw}")
        return value

    parse.__name__ = cast.__name__  # argparse names it in its own errors
    return parse


def make_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="bddsets",
        description="Solve a set-constraint benchmark instance with BDD domains.",
    )
    p.add_argument("instance", help="path to an instance file")
    p.add_argument("--mode", choices=MODES, default="domain")
    p.add_argument("--var-order", choices=sorted(_VAR_ORDER_FLAGS), default=None)
    p.add_argument("--value-order", choices=["largest", "smallest"], default=None)
    p.add_argument("--branch", choices=sorted(_BRANCH_FLAGS), default=None)
    p.add_argument("--target", choices=["first", "all", "optimize"], default="first")
    p.add_argument("--max-solutions", type=_at_least(int, 1), default=None)
    p.add_argument("--node-limit", type=_at_least(int, 1), default=None)
    p.add_argument("--time-limit", type=_at_least(float, 0), default=None)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--format", choices=["csv", "jsonl"], default="csv", dest="fmt")
    return p


def _resolve_strategy(default: Strategy, args) -> Strategy:
    s = default
    if args.var_order is not None:
        s = replace(s, var_order=_VAR_ORDER_FLAGS[args.var_order])
    if args.value_order is not None:
        s = replace(s, value_order=args.value_order)
    if args.branch is not None:
        s = replace(s, branch=_BRANCH_FLAGS[args.branch])
    return s


class _Emitter:
    def __init__(self, fmt, out):
        self.fmt = fmt
        self.out = out
        self._headers = set()

    def row(self, kind, columns, values):
        if self.fmt == "jsonl":
            record = {"kind": kind}
            record.update(zip(columns, values))
            self.out.write(json.dumps(record, ensure_ascii=False) + "\n")
            return
        if kind not in self._headers:
            self._headers.add(kind)
            self.out.write(",".join(columns) + "\n")
        self.out.write(",".join(str(v) for v in values) + "\n")


def _domain_stats(state):
    bits = 0.0
    nodes = 0
    for vi in range(len(state.vars)):
        d = state.domain_bdd(vi)
        bits += math.log2(state.store.sat_count(d, state.bits[vi]))
        nodes += state.store.size(d)
    return bits, nodes


def run(args, out=sys.stdout) -> int:
    node_limit, time_limit = args.node_limit, args.time_limit
    try:
        with open(args.instance, "r", encoding="utf-8") as fh:
            parsed = parse_instance(fh.read())
    except (OSError, InstanceError) as exc:
        print(f"bddsets: {exc}", file=sys.stderr)
        return 2

    emitter = _Emitter(args.fmt, out)
    build_start = time.perf_counter()

    def report(strategy, status, solutions, fails, nodes, optimum, peak_nodes, elapsed):
        emitter.row(
            "report",
            REPORT_COLUMNS,
            [
                REPORT_VERSION,
                parsed["problem"],
                args.mode,
                strategy.var_order,
                strategy.value_order,
                strategy.branch,
                args.target,
                STATUS_MARKS[status],
                solutions,
                fails,
                nodes,
                optimum,
                peak_nodes,
                f"{elapsed:.3f}",
            ],
        )
        return 0

    if args.target == "optimize":
        if parsed["problem"] != "hamming":
            print("bddsets: --target optimize is only supported for hamming", file=sys.stderr)
            return 2
        spec = parsed["spec"]
        strategy_holder = {}
        stores = []
        # a store whose build hit the ceiling holds node_limit nodes
        peaks = []

        def build(n):
            try:
                model = build_hamming(replace(spec, n=n), node_limit=node_limit)
            except NodeLimitExceeded:
                peaks.append(node_limit)
                raise
            stores.append(model.store)
            strategy_holder.setdefault("s", _resolve_strategy(model.strategy, args))
            st = State(model.store, model.vars, model.constraints, mode=args.mode)
            return st, strategy_holder["s"], model.branch_vars

        t0 = time.perf_counter()
        best, status, fails = optimize_incremental(build, time_limit=time_limit)
        return report(
            strategy_holder.get("s") or _resolve_strategy(Strategy(), args),
            status,
            1 if best is not None else 0,
            fails,
            "",
            best[0] if best is not None else "",
            # 0 when the time ran out before any model was built
            max(peaks + [s.node_count() for s in stores], default=0),
            time.perf_counter() - t0,
        )

    try:
        model = build_from_instance(parsed, node_limit=node_limit)
    except NodeLimitExceeded:
        # the model itself blew the node ceiling before any search ran
        return report(
            _resolve_strategy(Strategy(), args), "nodelimit", 0, 0, 0, "",
            node_limit, time.perf_counter() - build_start,
        )
    strategy = _resolve_strategy(model.strategy, args)
    state = State(model.store, model.vars, model.constraints, mode=args.mode)

    t0 = time.perf_counter()
    on_step = None
    if args.trace:
        def on_step(st, step):
            bits, nodes = _domain_stats(st)
            emitter.row(
                "trace",
                TRACE_COLUMNS,
                [step, f"{bits:.2f}", nodes, f"{time.perf_counter() - t0:.3f}"],
            )

    res = solve(
        state,
        strategy,
        branch_vars=model.branch_vars,
        all_solutions=args.target == "all",
        max_solutions=args.max_solutions,
        time_limit=time_limit,
        on_step=on_step,
    )
    return report(
        strategy, res.status, len(res.solutions), res.fails, res.nodes, "",
        model.store.node_count(), time.perf_counter() - t0,
    )


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
