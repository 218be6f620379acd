"""Pins of whole preconditioned solves: SHA-256 prefixes of the solution
and of the residual history, plus the iteration count, for the Stokes
cavity under every block preconditioner and velocity engine, for a P3
Poisson solve under the two-level preconditioner, and for P3 Poisson
solves that the iteration cap stops, across FGMRES restarts.

The history holds the solvers' recurrence residuals, except the first
entry, the last and each restart or replacement point, which are true
residuals; a converged solve's last entry is a true residual <= rel_tol.
Any change to the solve path that moves a single bit of an operator,
smoother, coarse solve or Krylov recurrence moves these digests.
"""

import numpy as np
import pytest

from auxmg.krylov import SolverConfig, fgmres, minres, pcg
from auxmg.mesh import build_cube_mesh
from auxmg.problems import poisson_setup
from auxmg.stokes import _solve_preconditioned, assemble_stokes, build_block_preconditioner
from auxmg.twolevel import TwoLevelPreconditioner
from tests.test_setup_pins import digest

STOKES_PINS = {
    ("Qt", "gamg"): ("581979150742dcc0", "dc3ca9be1caf2154", "410624f780f32d5c", 43),
    ("Qt", "amg"): ("e75f77be258eb66b", "0e380e02ea61e92b", "01fcb9063cdcdb92", 40),
    ("Qd", "gamg"): ("2d1d2ce3dbc9d24a", "c8c1fe83b9cd0e9b", "553c0b38a13f5e2d", 97),
    ("Qd", "amg"): ("986eaccd602a103f", "eddb852b77a5f548", "12382e21d9331683", 92),
}

POISSON_P3_GAMG_PIN = ("f5718d5139241402", "d75edbe7ecf9be7a", 15)

# rel_tol=1e-30 is never met, so max_iters=7 stops each solve; with
# restart=3, FGMRES restarts twice
CAPPED_PINS = {
    "fgmres": ("7f6a276be9ebe407", "8ea88cdbd6a6a6be", 7),
    "minres": ("a43067b15b54114a", "60d82a055e75cf4c", 7),
    "cg": ("3135c9eaf3a68a73", "b8bd311bb649b1b7", 7),
}


@pytest.fixture(scope="module")
def cavity():
    return assemble_stokes(build_cube_mesh(4), 2)


@pytest.mark.parametrize("kind, engine", list(STOKES_PINS))
def test_stokes_solve_pinned(cavity, kind, engine):
    M = build_block_preconditioner(cavity, kind=kind, engine=engine, theta=0.8)
    cfg = SolverConfig(method="fgmres" if kind == "Qt" else "minres", rel_tol=1e-8, max_iters=400)
    x0 = np.random.default_rng(7).standard_normal(cavity.dim)
    u, p, report = _solve_preconditioned(cavity, M, cfg, x0)
    assert report.converged
    got = (digest(u), digest(p), digest(report.residual_history), report.iterations)
    assert got == STOKES_PINS[kind, engine]


def test_poisson_p3_gamg_solve_pinned():
    prob = poisson_setup(3, 3)
    A = prob.system.A
    M = TwoLevelPreconditioner(A, prob.prolongation_int, coarse="amg", theta=0.25)
    x0 = np.random.default_rng(3).standard_normal(A.nrows)
    x, report = fgmres(A, M, np.zeros(A.nrows), SolverConfig(method="fgmres", rel_tol=1e-8), x0=x0)
    assert report.converged
    got = (digest(x), digest(report.residual_history), report.iterations)
    assert got == POISSON_P3_GAMG_PIN


@pytest.mark.parametrize("method", list(CAPPED_PINS))
def test_poisson_p3_capped_solve_pinned(method):
    solver = {"fgmres": fgmres, "minres": minres, "cg": pcg}[method]
    prob = poisson_setup(2, 3)
    A = prob.system.A
    M = TwoLevelPreconditioner(A, prob.prolongation_int)
    x0 = np.random.default_rng(5).standard_normal(A.nrows)
    cfg = SolverConfig(method=method, rel_tol=1e-30, max_iters=7, restart=3)
    x, report = solver(A, M, np.zeros(A.nrows), cfg, x0=x0)
    assert not report.converged
    got = (digest(x), digest(report.residual_history), report.iterations)
    assert got == CAPPED_PINS[method]
