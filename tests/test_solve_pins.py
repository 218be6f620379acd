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
    ("Qt", "gamg"): ("d0c763bf446db443", "f1cf82a9ac3fb00f", "fc75481769618b89", 43),
    ("Qt", "amg"): ("01c0970a1f45c40e", "dec43befa56e67f9", "7de493a664513c4e", 40),
    ("Qd", "gamg"): ("42543ab2853b0683", "462b0cbdd73e1237", "6feb5eaf429d31bc", 97),
    ("Qd", "amg"): ("f342b82e610aa37f", "8233857a1f9b68f1", "da788e28de2b4002", 92),
}

POISSON_P3_GAMG_PIN = ("e984932b199af9b0", "af462a493ac9050d", 15)

# rel_tol=1e-30 is never met, so max_iters=7 stops each solve; with
# restart=3, FGMRES restarts twice
CAPPED_PINS = {
    "fgmres": ("a92c2bd1c7420587", "54ca3554039106d7", 7),
    "minres": ("aa7356e718e5e2bd", "170cb9f3eddfe54a", 7),
    "cg": ("779cc9b75a0af3fe", "7e3fa69ee085e4cf", 7),
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
