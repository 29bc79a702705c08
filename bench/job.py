"""One benchmark job: solve one workload in this process and report it.

    python3 bench/job.py WORKLOAD SEED INDEX TRACE

prints one JSON object on stdout.  ``bench/run.py`` starts each job in a
fresh child process, so every job pays for its own caches and has its own
peak memory.  A job goes through the same library path as the ``bddsets``
CLI: ``instances.parse_instance`` -> ``build_from_instance`` /
``build_hamming`` -> ``propagate.State`` -> ``search.solve`` /
``optimize_incremental``.

The seed permutes each model's constraint list before its ``State`` is
built, differently for each job index of a run; seed 0 keeps the model's
own order.  The propagation fixpoint does not depend on queue order, so
solutions, fails and nodes must not move with the seed; propagator runs
and time do.

The clock starts at ``parse_instance`` and stops when the solver returns
its answer.  Interpreter start, imports and the oracle check that follows
are outside it.

While the clock runs, ``SpeedSampler`` times a fixed pure-Python loop
every 50 ms of CPU time.  The median of those samples over the reference
time of that loop is the job's ``slowdown``: how much slower the machine
ran during this job than the reference machine.  ``bench/run.py`` divides
the job's times by it.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import signal
import sys
import time
from dataclasses import replace
from statistics import median

# the checkout's own sources, never an installed copy
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from bddsets import instances, models, propagate, search  # noqa: E402

# A job still running after this long is killed by SIGALRM's default
# action and counted as failed.
JOB_TIMEOUT_S = 150

MODES = ("domain", "split", "bounds", "card", "lex")

# The machine-speed probe: a loop of CALIBRATION_STEPS steps, run every
# CALIBRATION_PERIOD_S of CPU time.  REFERENCE_CALIBRATION_S is its
# duration on the reference machine (a 2-vCPU Xeon VM with CPython 3.11.7
# at its faster speed), so the reported times are seconds on that machine.
CALIBRATION_STEPS = 4000
CALIBRATION_PERIOD_S = 0.05
REFERENCE_CALIBRATION_S = 300e-6

WORKLOADS = {
    "steiner-enum": "problem = steiner\nt = 3\nk = 4\nn = 8\n",
    "golfers-first": "problem = golfers\nw = 3\ng = 5\ns = 4\n",
    "codes-opt": "problem = hamming\nl = 9\nd = 4\nw = 7\n",
}

# Exact search counts at the commit that defined this benchmark.  They are
# a correctness contract: a change that moves one changes behaviour.
EXPECTED = {
    "steiner-enum": {"status": "all", "solutions": 30, "fails": 492, "nodes": 984},
    "golfers-first": {"status": "sat", "solutions": 1, "fails": 0, "nodes": 37},
    "codes-opt": {
        "optimum": 4,
        "fails": {"domain": 168, "split": 168, "bounds": 5050, "card": 191, "lex": 348},
        "nodes": {"domain": 345, "split": 345, "bounds": 10109, "card": 391, "lex": 705},
    },
}


def permute(constraints, workload, seed, index, tag=""):
    """Job `index`'s order of a model's constraint list under `seed`."""
    cons = list(constraints)
    if seed:
        random.Random(f"{workload}:{seed}:{index}:{tag}").shuffle(cons)
    return cons


def max_code_size(l, d, w):
    """Most weight-w words of length l with pairwise distance >= d.

    Brute-force clique search over all such words, independent of the
    solver: extends cliques depth first and prunes branches that cannot
    beat the best found.
    """
    words = [frozenset(c) for c in itertools.combinations(range(1, l + 1), w)]
    ok = [[len(a ^ b) >= d for b in words] for a in words]
    best = 0

    def grow(size, cands):
        nonlocal best
        best = max(best, size)
        for pos, i in enumerate(cands):
            if size + len(cands) - pos <= best:
                return
            grow(size + 1, [j for j in cands[pos + 1:] if ok[i][j]])

    grow(0, list(range(len(words))))
    return best


def calibration_loop():
    """A fixed amount of interpreter work that no change to ``src/`` moves."""
    acc = 0
    for i in range(CALIBRATION_STEPS):
        acc += i * i % 7
    return acc


class SpeedSampler:
    """Samples the machine's speed during a job, from ``SIGPROF``.

    On a shared host the whole machine runs faster or slower for seconds
    to minutes at a time, so a job's time alone measures the host as much
    as the program.  Timing a fixed loop at regular points of the job, in
    the job's own thread, measures the host's speed at the same moments.
    A sample costs about 0.6 % of the job's CPU time and is counted in it.
    """

    def __init__(self):
        self.samples = []

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        calibration_loop()
        self.samples.append(time.perf_counter() - t0)

    def start(self):
        signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, CALIBRATION_PERIOD_S, CALIBRATION_PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        if not self.samples:
            self._sample(None, None)

    def slowdown(self):
        """Median sample time over the reference machine's."""
        return median(self.samples) / REFERENCE_CALIBRATION_S


def table_nodes(store):
    """Node-table length without the terminals: live nodes plus free slots.

    Spelled out because ``NodeStore.node_count`` is defined twice in the
    engine with different meanings, and the later one counts terminals.
    """
    return store.live_node_count() + len(store._free)


def run_job(workload, seed, index):
    """Solve one workload; return timings, search counts and oracle errors."""
    setup = 0.0
    built_nodes = 0
    results = []  # one SearchResult per solve
    tallies = []  # per solve: counters of its state and store

    def make_state(model, mode, tag=""):
        nonlocal built_nodes
        built_nodes += table_nodes(model.store)
        cons = permute(model.constraints, workload, seed, index, tag)
        return propagate.State(model.store, model.vars, cons, mode=mode)

    # optimize_incremental keeps only fails, so each solve is recorded on
    # the way out.  Only counters are kept: no finished model stays alive.
    real_solve = search.solve

    def recording_solve(state, *args, **kwargs):
        res = real_solve(state, *args, **kwargs)
        store = state.store
        results.append(res)
        tallies.append((state.runs, state.cache_hits, table_nodes(store), len(store._cache)))
        return res

    search.solve = recording_solve
    sampler = SpeedSampler()
    sampler.start()
    try:
        t0 = time.perf_counter()
        parsed = instances.parse_instance(WORKLOADS[workload])
        spec = parsed["spec"]
        if workload == "codes-opt":
            setup = time.perf_counter() - t0
            answers = {}
            for mode in MODES:
                def build(n, mode=mode):
                    nonlocal setup
                    tb = time.perf_counter()
                    model = models.build_hamming(replace(spec, n=n))
                    st = make_state(model, mode, f"{mode}:{n}")
                    setup += time.perf_counter() - tb
                    return st, model.strategy, model.branch_vars

                first = len(results)
                best, status, fails = search.optimize_incremental(build)
                answers[mode] = (best, status, fails, sum(r.nodes for r in results[first:]))
        else:
            model = instances.build_from_instance(parsed)
            st = make_state(model, "domain")
            setup = time.perf_counter() - t0
            search.solve(
                st,
                model.strategy,
                branch_vars=model.branch_vars,
                all_solutions=workload == "steiner-enum",
            )
        wall = time.perf_counter() - t0
    finally:
        sampler.stop()
        search.solve = real_solve

    if workload == "codes-opt":
        errors = check_codes(spec, answers)
        solutions = sum(best is not None for best, _, _, _ in answers.values())
    else:
        errors = check_designs(workload, spec, model, results[0])
        solutions = len(results[0].solutions)
    runs, memo_hits, tables, caches = zip(*tallies)
    return {
        "wall_s": wall,
        "setup_s": setup,
        "slowdown": sampler.slowdown(),
        "solutions": solutions,
        "fails": sum(r.fails for r in results),
        "nodes": sum(r.nodes for r in results),
        "errors": errors,
        "counts": {
            "propagate.runs": sum(runs),
            "propagate.memo_hits": sum(memo_hits),
            "models.nodes_created": built_nodes,
            "engine.table_nodes": max(tables),
            "engine.op_cache_entries": max(caches),
        },
    }


def check_designs(workload, spec, model, res):
    """Oracle for steiner-enum and golfers-first: counts and validators."""
    expected = EXPECTED[workload]
    errors = []
    got = {"status": res.status, "solutions": len(res.solutions),
           "fails": res.fails, "nodes": res.nodes}
    for key, value in got.items():
        if value != expected[key]:
            errors.append(f"{key} {value}, expected {expected[key]}")
    for sol in res.solutions:
        if workload == "steiner-enum":
            blocks = [sol[v.name] for v in model.meta["set_vars"]]
            if not models.steiner_valid(spec, blocks):
                errors.append(f"invalid design {sorted(map(sorted, blocks))}")
        else:
            weeks = [[sol[v.name] for v in week] for week in model.meta["weeks"]]
            if not models.golfers_valid(spec, weeks):
                errors.append(f"invalid schedule {weeks}")
    return errors


def check_codes(spec, answers):
    """Oracle for codes-opt: every mode proves the brute-force optimum."""
    expected = EXPECTED["codes-opt"]
    errors = []
    best_known = max_code_size(spec.l, spec.d, spec.w)
    if best_known != expected["optimum"]:
        errors.append(f"brute force finds {best_known} words, expected {expected['optimum']}")
    for mode, (best, status, fails, nodes) in answers.items():
        for key, value in (("fails", fails), ("nodes", nodes)):
            if value != expected[key][mode]:
                errors.append(f"{mode}: {value} {key}, expected {expected[key][mode]}")
        if status != "optimal" or best is None:
            errors.append(f"{mode}: status {status}, expected optimal")
            continue
        n, sol = best
        words = [sol[f"c{i + 1}"] for i in range(n)]
        if n != best_known:
            errors.append(f"{mode}: optimum {n}, brute force finds {best_known}")
        if not models.hamming_valid(replace(spec, n=n), words):
            errors.append(f"{mode}: invalid code {sorted(map(sorted, words))}")
    return errors


def main(argv):
    signal.alarm(JOB_TIMEOUT_S)
    workload, seed, index, trace = argv[1], int(argv[2]), int(argv[3]), argv[4] == "1"
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    out = run_job(workload, seed, index)
    if tracer is not None:
        out["trace"] = tracer.report(out["wall_s"])
    json.dump(out, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
