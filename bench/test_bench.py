"""Tests of the benchmark's own assumptions and oracles.

    PYTHONPATH=src python3 -m pytest bench -q
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from dataclasses import replace

import pytest

from bddsets import search
from bddsets.models import GolfersSpec, HammingSpec, SteinerSpec, build_golfers, build_hamming, build_steiner
from bddsets.propagate import State
from bddsets.search import SearchResult, optimize_incremental, solve

import job

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def _counts(model, mode, seed, index, all_solutions):
    cons = job.permute(model.constraints, "test", seed, index)
    st = State(model.store, model.vars, cons, mode=mode)
    res = solve(st, model.strategy, branch_vars=model.branch_vars, all_solutions=all_solutions)
    return res.status, res.solutions, res.fails, res.nodes


@pytest.mark.parametrize("seed,index", [(1, 0), (7, 3)])
def test_steiner_counts_do_not_depend_on_constraint_order(seed, index):
    spec = SteinerSpec(2, 3, 7)
    base = _counts(build_steiner(spec), "domain", 0, 0, True)
    assert base[0] == "all" and len(base[1]) == 30
    assert _counts(build_steiner(spec), "domain", seed, index, True) == base


@pytest.mark.parametrize("seed,index", [(1, 0), (7, 3)])
def test_golfers_counts_do_not_depend_on_constraint_order(seed, index):
    spec = GolfersSpec(2, 5, 4)
    base = _counts(build_golfers(spec), "bounds", 0, 0, False)
    assert base[0] == "sat"
    assert _counts(build_golfers(spec), "bounds", seed, index, False) == base


def _optimize(spec, mode, seed):
    nodes = []

    def build(n):
        model = build_hamming(replace(spec, n=n))
        cons = job.permute(model.constraints, "test", seed, 0, f"{mode}:{n}")
        return State(model.store, model.vars, cons, mode=mode), model.strategy, model.branch_vars

    def counted(state, strategy, branch_vars, time_limit=None):
        res = solve(state, strategy, branch_vars=branch_vars, time_limit=time_limit)
        nodes.append(res.nodes)
        return res

    real = search.solve
    search.solve = counted
    try:
        best, status, fails = optimize_incremental(build)
    finally:
        search.solve = real
    return best, status, fails, nodes


def test_code_counts_do_not_depend_on_constraint_order():
    spec = HammingSpec(9, 4, 7)
    base = _optimize(spec, "card", 0)
    assert base[1] == "optimal" and base[0][0] == 4
    assert base[2] == job.EXPECTED["codes-opt"]["fails"]["card"]
    assert sum(base[3]) == job.EXPECTED["codes-opt"]["nodes"]["card"]
    assert _optimize(spec, "card", 5) == base


def test_seed_zero_keeps_model_order():
    cons = list(range(20))
    assert job.permute(cons, "w", 0, 4) == cons
    assert sorted(job.permute(cons, "w", 3, 1)) == cons
    assert job.permute(cons, "w", 3, 1) == job.permute(cons, "w", 3, 1)
    assert job.permute(cons, "w", 3, 1) != job.permute(cons, "w", 3, 2)


def test_speed_sampler_samples_while_the_job_runs():
    sampler = job.SpeedSampler()
    sampler.start()
    try:
        stop_at = time.process_time() + 0.5
        while time.process_time() < stop_at:
            pass
    finally:
        sampler.stop()
    assert len(sampler.samples) >= 4
    assert sampler.slowdown() > 0


def test_speed_sampler_samples_once_when_no_tick_came():
    sampler = job.SpeedSampler()
    sampler.start()
    sampler.stop()
    assert len(sampler.samples) == 1


@pytest.mark.parametrize("l,d,w,best", [(9, 4, 7, 4), (4, 2, 2, 6), (4, 4, 2, 2), (6, 4, 3, 4)])
def test_brute_force_code_size(l, d, w, best):
    assert job.max_code_size(l, d, w) == best


def test_oracle_reports_wrong_counts_and_invalid_designs():
    spec = SteinerSpec(3, 4, 8)
    model = build_steiner(spec)
    good = SearchResult(status="all", solutions=[], fails=492, nodes=984)
    errors = job.check_designs("steiner-enum", spec, model, good)
    assert errors == ["solutions 0, expected 30"]
    names = [v.name for v in model.meta["set_vars"]]
    bogus = {name: frozenset({1, 2, 3, 4}) for name in names}
    bad = SearchResult(status="all", solutions=[bogus] * 30, fails=491, nodes=984)
    errors = job.check_designs("steiner-enum", spec, model, bad)
    assert "fails 491, expected 492" in errors
    assert sum(e.startswith("invalid design") for e in errors) == 30


def test_traced_job_adds_up_and_keeps_search_counts():
    """Tracing on a small solve: self times plus other equal the wall time."""
    code = """
import json, sys, time
sys.path[:0] = [%r, %r]
from bddsets.models import SteinerSpec, build_steiner
from bddsets.propagate import State
from bddsets import search
from tracer import Tracer

def run():
    model = build_steiner(SteinerSpec(2, 3, 7))
    st = State(model.store, model.vars, model.constraints)
    res = search.solve(st, model.strategy, branch_vars=model.branch_vars, all_solutions=True)
    return (len(res.solutions), res.fails, res.nodes)

plain = run()
tracer = Tracer()
tracer.install()
t0 = time.perf_counter()
traced = run()
wall = time.perf_counter() - t0
print(json.dumps({"plain": plain, "traced": traced, "report": tracer.report(wall)}))
""" % (SRC, HERE)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    got = json.loads(out.stdout)
    assert got["plain"] == got["traced"]
    report = got["report"]
    points = report["points"]
    assert points["search.solve"]["calls"] == 1
    assert points["engine.and_exists"]["calls"] > 0
    assert points["search.pick"]["calls"] > 0
    total_self = sum(p["self_s"] for p in points.values())
    assert report["other_s"] >= 0
    assert total_self + report["other_s"] == pytest.approx(report["wall_s"], abs=1e-9)
    names = {s[0] for s in report["spans"]}
    assert names == {"search.solve", "propagate.propagate"}
