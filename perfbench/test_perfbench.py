"""Tests of the benchmark itself, on shrunken copies of its workloads."""

import importlib.util
import inspect
import json
import os
import re
import shutil
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from auxmg.krylov import SolverConfig
from auxmg.stokes import solve_cavity

import bench_workloads as bw
from bench_measure import end_to_end, measure, per_layer
from bench_trace import Tracer, tail_percentile

HERE = Path(__file__).resolve().parent
BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")

_spec = importlib.util.spec_from_file_location("perfbench_run", HERE / "run.py")
run = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(run)

# one small instance of each workload kind; n=3 gives plain AMG two levels
TINY = {
    "poisson_gamg": replace(bw.WORKLOADS["poisson_p4_gamg_n8"], k=2, n=2),
    "poisson_amg": replace(bw.WORKLOADS["poisson_p4_amg_n8"], k=2, n=3),
    "stokes": replace(bw.WORKLOADS["stokes_p2_qd_n8"], n=2),
}
OFF = Tracer(False)


def test_seed_reaches_only_x0():
    assert "seed" not in inspect.signature(bw.setup).parameters
    w = TINY["poisson_gamg"]
    (rep0, prob0, x0_0), (rep1, prob1, x0_1) = (bw.run_rep(w, s, 0, OFF) for s in (0, 1))
    assert bw._same(prob0.A, prob1.A) and bw._same(prob0.fine_P, prob1.fine_P)
    assert prob0.c_op == prob1.c_op
    assert not np.array_equal(x0_0, x0_1)
    np.testing.assert_array_equal(x0_0, bw.initial_guess(0, 0, prob0.dim))
    assert rep0.passed and rep1.passed


@pytest.mark.parametrize("kind", sorted(TINY))
@pytest.mark.parametrize("trace", [False, True])
def test_metric_names_match_benchmark_json(kind, trace):
    m = measure(TINY[kind], seed=0, seconds=0.0, trace=trace, t_start=time.perf_counter())
    metrics = per_layer(m) if trace else end_to_end(m)
    declared = [d["name"] for d in BENCH["per_layer" if trace else "end_to_end"]]
    assert sorted(metrics) == sorted(declared)
    assert all(NAME.fullmatch(name) for name in metrics)
    line = json.loads(json.dumps(run.result_line(BENCH, metrics, trace, True, m.attempted, m.failed)))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert m.failed == 0 and m.attempted >= 1
    if trace:
        assert metrics["krylov.m_applies"] > 0 and metrics["csr.spmv_s"] > 0


def test_benchmark_json_records_why_and_layer_metrics():
    assert set(BENCH) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in BENCH["workloads"]] == list(bw.WORKLOADS)
    layer_names = {d["name"] for d in BENCH["per_layer"]}
    e2e_names = {d["name"] for d in BENCH["end_to_end"]}
    for w in BENCH["workloads"]:
        reason, _, moves = w["why"].partition("moves ")
        assert reason.strip() and "\n" not in w["why"] and len(w["why"]) <= 200
        named = re.findall(r"[a-z]+\.[a-z_.0-9]+", moves)
        assert named and set(named) <= layer_names, w["name"]
        assert set(re.findall(r"\b([a-z_]+_s) via", moves)) <= e2e_names
    bounds = {d["name"]: d["bound"] for d in BENCH["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert all(NAME.fullmatch(n) for n in layer_names | e2e_names)


def test_stokes_steps_match_solve_cavity():
    w = TINY["stokes"]
    prob = bw.setup(w, OFF)
    x0 = bw.initial_guess(3, 0, prob.dim)
    x, report = bw.solve(w, prob, x0, OFF)
    cfg = SolverConfig(method="minres", rel_tol=w.rel_tol, max_iters=w.max_iters)
    u_ref, p_ref, ref = solve_cavity(prob.A, precond_kind="Qd", coarse_engine=w.engine,
                                     cfg=cfg, theta=w.theta, x0=x0)
    assert report.iterations == ref.iterations
    u, p = prob.A.split(x)
    np.testing.assert_allclose(prob.A.full_velocity(u), u_ref, rtol=0, atol=1e-14)
    np.testing.assert_allclose(p, p_ref, rtol=0, atol=1e-14)
    assert bw.gate(w, prob, x, x0)


def test_gate_rejects_wrong_answers():
    w = TINY["poisson_gamg"]
    prob = bw.setup(w, OFF)
    x0 = bw.initial_guess(0, 0, prob.dim)
    x, _ = bw.solve(w, prob, x0, OFF)
    assert bw.gate(w, prob, x, x0)
    assert not bw.gate(w, prob, x0, x0)
    assert not bw.gate(w, prob, np.full_like(x, np.nan), x0)

    w = TINY["stokes"]
    prob = bw.setup(w, OFF)
    x0 = bw.initial_guess(0, 0, prob.dim)
    x, _ = bw.solve(w, prob, x0, OFF)
    assert bw.gate(w, prob, x, x0)
    shifted = x.copy()
    shifted[prob.A.n_velocity:] += 1.0  # same residual, nonzero pressure mean
    assert not bw.gate(w, prob, shifted, x0)


def test_self_time_excludes_children():
    tr = Tracer(True)
    tr.group = "g"
    with tr.span("outer"):
        with tr.span("inner"):
            pass
        tr.wrap(lambda: None, "inner")()
    stats = tr.per_group()["g"]
    assert stats["inner"]["count"] == 2
    outer = stats["outer"]
    assert outer["self"] == pytest.approx(outer["total"] - stats["inner"]["total"], abs=1e-12)
    assert Tracer(False).wrap(len, "x") is len


def test_tail_percentile_needs_ten_samples_beyond():
    assert tail_percentile(list(range(19))) is None
    assert tail_percentile(list(range(20)))[0] == 50
    assert tail_percentile(list(range(100)))[0] == 90


@pytest.mark.parametrize("stray", [False, True])
def test_fails_without_the_library(tmp_path, stray):
    """Without src/ next to it the run stops before printing a result: with
    no auxmg at all on an ImportError, with an auxmg from elsewhere on the
    path at the guard that insists on src/."""
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", "out"))
    elsewhere = tmp_path / "elsewhere"
    if stray:
        (elsewhere / "auxmg").mkdir(parents=True)
        (elsewhere / "auxmg" / "__init__.py").write_text("")
    env = {**os.environ, "PYTHONPATH": str(elsewhere)}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "stokes_p2_qd_n8", "--seconds", "0"],
        cwd=tmp_path, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
    if stray:
        assert f"auxmg was imported from {elsewhere / 'auxmg'}" in proc.stderr
    else:
        assert "No module named 'auxmg'" in proc.stderr
