"""bddsets benchmark: a closed loop of solver jobs, one child process each.

    python3 bench/run.py --workload steiner-enum --seed 0 --seconds 40 --trace 0

Runs jobs of one workload back to back, each in a fresh interpreter
(``bench/job.py``), until ``--seconds`` would be exceeded; the next job
starts only after the previous one has finished and been checked.  Every
job's answer is checked against an independent oracle.  Prints a
human-readable summary, then one JSON line with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Without ``--workload`` it does
that for every workload in turn.  The exit status is 1 when any job
failed, 2 when the ``bddsets`` sources are missing.

Every time is reported in seconds of the reference machine: the job's
measured time divided by its ``slowdown``, the machine speed sampled in
the job (see ``bench/job.py``).  The summary also prints the measured
times.

``--trace 0`` reports the end-to-end metrics (medians over the jobs).
``--trace 1`` alternates untraced and traced jobs and reports the
per-layer metrics of the traced ones, the traced and untraced wall times,
and the coarse spans in ``bench/out/``.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
JOB = os.path.join(HERE, "job.py")
SRC_PKG = os.path.join(ROOT, "src", "bddsets")

WORKLOADS = ("steiner-enum", "golfers-first", "codes-opt")

# Kernel and analysis entry points that some workload never calls.  Only
# their call counts are reported: their times would read 0 on every run.
UNTIMED = ("engine.ite", "analysis.stick_of", "analysis.card_bounds", "analysis.lex_bounds")
LAYERS = ("models", "engine", "analysis", "propagate", "search")


def run_child(workload, seed, index, trace):
    """Run one job; return (result dict or None, peak RSS in MB, error)."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.Popen(
        [sys.executable, JOB, workload, str(seed), str(index), "1" if trace else "0"],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
    )
    with proc.stdout:
        raw = proc.stdout.read()
    # wait4 gives this child's own peak RSS; RUSAGE_CHILDREN would be the
    # maximum over every child reaped so far
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    rss_mb = usage.ru_maxrss / 1024.0
    if proc.returncode != 0:
        return None, rss_mb, f"job exited with status {proc.returncode}"
    try:
        result = json.loads(raw.decode().strip().splitlines()[-1])
    except (ValueError, IndexError):
        return None, rss_mb, "job printed no result"
    if result["errors"]:
        return result, rss_mb, "; ".join(result["errors"])
    return result, rss_mb, None


def search_counts(job):
    return job["solutions"], job["fails"], job["nodes"]


def src_lines():
    total = 0
    for name in sorted(os.listdir(SRC_PKG)):
        if name.endswith(".py"):
            with open(os.path.join(SRC_PKG, name), encoding="utf-8") as fh:
                total += sum(1 for _ in fh)
    return total


def ref_s(job, seconds):
    """A time measured in `job` as seconds of the reference machine."""
    return seconds / job["slowdown"]


def end_to_end(jobs):
    """Medians of the user-visible metrics over jobs that returned a result."""
    return {
        "wall_s": (median([ref_s(j, j["wall_s"]) for j in jobs]), "s"),
        "setup_s": (median([ref_s(j, j["setup_s"]) for j in jobs]), "s"),
        "search_nodes_per_s": (
            median([j["nodes"] / ref_s(j, j["wall_s"] - j["setup_s"]) for j in jobs]),
            "1/s",
        ),
        "peak_rss_mb": (median([j["rss_mb"] for j in jobs]), "MB"),
    }


def layer_self_s(job, layer):
    """Self time of every wrapped entry point of one layer in a traced job."""
    return sum(p["self_s"] for name, p in job["trace"]["points"].items()
               if name.startswith(layer + "."))


def per_layer(traced, untraced):
    """Per-layer metrics: medians over traced jobs (counts repeat exactly)."""
    out = {}

    def put(name, values, unit):
        out[name] = (median(values), unit)

    def point(job, name, field):
        value = job["trace"]["points"][name][field]
        return value if field == "calls" else ref_s(job, value)

    put("models.build_s", [sum(point(j, f"models.{n}", "total_s")
                               for n in ("parse", "build", "state")) for j in traced], "s")
    put("models.nodes_created", [j["counts"]["models.nodes_created"] for j in traced], "count")
    for name in traced[0]["trace"]["points"]:
        if name.startswith(("engine.", "analysis.")) and name != "engine.gc":
            put(f"{name}.calls", [point(j, name, "calls") for j in traced], "count")
            if name not in UNTIMED:
                put(f"{name}.self_s", [point(j, name, "self_s") for j in traced], "s")
                put(f"{name}.total_s", [point(j, name, "total_s") for j in traced], "s")
    for key in ("table_nodes", "op_cache_entries"):
        put(f"engine.{key}", [j["counts"][f"engine.{key}"] for j in traced], "count")
    put("engine.gc_passes", [point(j, "engine.gc", "calls") for j in traced], "count")
    put("engine.gc_freed", [j["trace"]["gc_freed"] for j in traced], "count")
    put("propagate.calls", [point(j, "propagate.propagate", "calls") for j in traced], "count")
    put("propagate.runs", [j["counts"]["propagate.runs"] for j in traced], "count")
    put("propagate.memo_hits", [j["counts"]["propagate.memo_hits"] for j in traced], "count")
    put("propagate.memo_hit_ratio", [
        j["counts"]["propagate.memo_hits"]
        / (j["counts"]["propagate.memo_hits"] + j["counts"]["propagate.runs"])
        for j in traced], "ratio")
    put("search.nodes", [j["nodes"] for j in traced], "count")
    put("search.fails", [j["fails"] for j in traced], "count")
    put("search.solutions", [j["solutions"] for j in traced], "count")
    put("search.pick_s", [point(j, "search.pick", "total_s") for j in traced], "s")
    put("search.undo_s", [point(j, "search.undo", "total_s") for j in traced], "s")
    put("search.maintain_s", [point(j, "search.maintain", "total_s") for j in traced], "s")
    for layer in LAYERS:
        put(f"{layer}.self_s", [ref_s(j, layer_self_s(j, layer)) for j in traced], "s")
    put("trace.other_s", [ref_s(j, j["trace"]["other_s"]) for j in traced], "s")
    put("trace.wall_s", [ref_s(j, j["wall_s"]) for j in traced], "s")
    put("trace.untraced_wall_s", [ref_s(j, j["wall_s"]) for j in untraced], "s")
    out["trace.overhead"] = (
        out["trace.wall_s"][0] / out["trace.untraced_wall_s"][0] - 1.0, "ratio")
    out["src_lines"] = (src_lines(), "count")
    return out


def run_workload(workload, seed, seconds, trace):
    """Run one workload's closed loop and print its summary and result line.

    Returns the number of failed jobs, or None when no job gave a result.
    """
    kinds = (False, True) if trace else (False,)
    done = {k: [] for k in kinds}  # traced? -> jobs that returned a result
    last_s = {k: 0.0 for k in kinds}  # traced? -> duration of the last job
    attempted = failed = 0
    errors = []
    t_start = time.perf_counter()
    while True:
        kind = kinds[attempted % len(kinds)]
        # a traced run repeats one input, so that its counts repeat exactly
        index = 0 if trace else attempted
        elapsed = time.perf_counter() - t_start
        if attempted >= len(kinds) and elapsed + last_s[kind] > seconds:
            break
        t_job = time.perf_counter()
        result, rss_mb, error = run_child(workload, seed, index, kind)
        last_s[kind] = time.perf_counter() - t_job
        attempted += 1
        if (kind and error is None and done[False]
                and search_counts(result) != search_counts(done[False][-1])):
            error = "traced job's search counts differ from the untraced job's"
        if error is not None:
            failed += 1
            errors.append(error)
            print(f"job {attempted} failed: {error}", file=sys.stderr)
        if result is not None:
            result["rss_mb"] = rss_mb
            done[kind].append(result)
    if any(not jobs for jobs in done.values()):
        print(f"bench: no {workload} job returned a result", file=sys.stderr)
        return None

    if trace:
        metrics = per_layer(done[True], done[False])
        os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
        spans_path = os.path.join(HERE, "out", f"{workload}-seed{seed}-spans.json")
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump([j["trace"]["spans"] for j in done[True]], fh)
    else:
        metrics = end_to_end(done[False])

    n = {k: len(v) for k, v in done.items()}
    print(f"workload {workload}  seed {seed}  jobs {attempted}  "
          f"(untraced {n[False]}, traced {n.get(True, 0)})  failed {failed}")
    for k, jobs in done.items():
        kind = "traced" if k else "untraced"
        walls = " ".join(f"{j['wall_s']:.3f}" for j in jobs)
        slowdowns = " ".join(f"{j['slowdown']:.3f}" for j in jobs)
        print(f"  {kind} job wall_s as measured: {walls}")
        print(f"  {kind} job slowdown:           {slowdowns}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:16.6g} {unit}")
    print(f"  {'error_rate':32s} {failed / attempted:16.6g} ratio ({failed}/{attempted})")
    if trace:
        # one whole traced job, so that the parts add up exactly
        job = sorted(done[True], key=lambda j: j["wall_s"])[(len(done[True]) - 1) // 2]
        wall = job["wall_s"]
        parts = {layer: layer_self_s(job, layer) for layer in LAYERS}
        parts["other"] = job["trace"]["other_s"]
        print(f"  self time by layer as measured, traced job with the median wall time ({wall:.3f} s):")
        for layer, s in parts.items():
            print(f"    {layer:10s} {s:9.3f} s  {100 * s / wall:5.1f}%")
        print(f"    {'sum':10s} {sum(parts.values()):9.3f} s")
    for e in errors:
        print(f"  error: {e}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }), flush=True)
    return failed


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS,
                   help="run only this workload (default: all, one after another)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if not os.path.isfile(os.path.join(SRC_PKG, "__init__.py")):
        print(f"bench: no bddsets sources at {SRC_PKG}", file=sys.stderr)
        return 2
    status = 0
    for workload in [args.workload] if args.workload else WORKLOADS:
        failed = run_workload(workload, args.seed, args.seconds, bool(args.trace))
        if failed != 0:
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
