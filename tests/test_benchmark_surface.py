"""The library surface the benchmark drives: ``perfbench/bench_workloads.py``
runs its setup, solve and probe steps traced on small copies of its
workloads.  A library change that breaks what the benchmark calls or
reads (a coarse solve overridden per instance, ``tri_lower_solve``, the
levels' A and P, a block preconditioner's ``a_action``, an eliminated
transfer) fails here."""

import importlib
import sys
from dataclasses import replace
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def bw():
    # the benchmark's modules import each other as top-level modules
    sys.path.insert(0, str(PERFBENCH))
    try:
        return importlib.import_module("bench_workloads")
    finally:
        sys.path.remove(str(PERFBENCH))


# (workload, its shrunken size, spans that only a working library records:
# the per-instance coarse-solve override, and the per-level probe of
# H.levels[i].A and .P); P2 n=4 has 343 interior rows, so plain AMG has a
# second level
CASES = {
    "poisson_gamg": ("poisson_p4_gamg_n8", dict(k=2, n=4), {"twolevel.coarse_solve"}),
    "poisson_amg": ("poisson_p4_amg_n8", dict(k=2, n=4), {"amg.vcycle", "amg.rap"}),
    "stokes": ("stokes_p2_qd_n8", dict(n=2), {"twolevel.coarse_solve", "stokes.velocity_apply"}),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_setup_solve_and_probe_run_traced(bw, case):
    name, size, spans = CASES[case]
    w = replace(bw.WORKLOADS[name], **size)
    tr = bw.Tracer(True)
    prob = bw.setup(w, tr)
    assert prob.fine_P is not None
    x0 = bw.initial_guess(0, 0, prob.dim)
    x, report = bw.solve(w, prob, x0, tr)
    assert report.converged and bw.gate(w, prob, x, x0)
    assert bw.probe(w, prob, tr) > 0
    assert spans | {"krylov.m_apply", "csr.spmv", "csr.tri_solve"} <= {s[0] for s in tr.spans}
