"""The benchmark's workloads, driven step by step through auxmg's public
layer calls, with a correctness gate checked from outside every solve.

Each step of a repetition is one call into one layer (mesh, fem,
transfer, amg, twolevel, stokes, krylov), wrapped in a span when the
tracer is on.  The seed reaches only the initial guess x0: meshes,
matrices and preconditioners depend on the workload alone.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import partial

import numpy as np

from auxmg import reference
from auxmg.amg import (
    VCyclePreconditioner,
    build_hierarchy,
    direct_interpolation,
    operator_complexity,
    rs_coarsen,
    strength_graph,
)
from auxmg.csr import spmv, tri_lower_solve, triple_product
from auxmg.fem import assemble_operator, build_space, eliminate_dirichlet
from auxmg.krylov import SolverConfig, fgmres, minres
from auxmg.mesh import build_cube_mesh
from auxmg.stokes import assemble_stokes, build_block_preconditioner, project_pressure_mean
from auxmg.transfer import build_prolongation
from auxmg.twolevel import TwoLevelPreconditioner

from bench_trace import Tracer

PRESSURE_MEAN_TOL = 1e-10
PROBE_CALLS = 10      # timed calls per CSR kernel probe
RAP_PROBE_CALLS = 3


@dataclass(frozen=True)
class Workload:
    name: str
    problem: str   # "poisson" (zero rhs, FGMRES) or "stokes" (lid cavity, Qd + MINRES)
    k: int         # polynomial order (Stokes: velocity order)
    n: int         # cube subdivisions per axis
    engine: str    # "gamg" (two-level, AMG on P1) or "amg" (plain AMG V-cycle)
    theta: float
    rel_tol: float = 1e-6
    max_iters: int = 300


WORKLOADS = {w.name: w for w in (
    Workload("poisson_p4_gamg_n8", "poisson", 4, 8, "gamg", 0.25),
    Workload("poisson_p4_amg_n8", "poisson", 4, 8, "amg", 0.25),
    Workload("stokes_p2_qd_n8", "stokes", 2, 8, "gamg", 0.8, max_iters=400),
)}


@dataclass
class Problem:
    """A ready-to-solve system and the pieces the probes look at."""

    A: object            # CsrMatrix (Poisson) or StokesSystem
    M: object            # preconditioner handed to the Krylov method
    dim: int
    c_op: float
    hierarchy: object    # the AMG hierarchy inside M
    smoothed: object     # fine operator of the smoother (kernel probes)
    fine_P: object       # fine-level prolongation (Galerkin-product probe)
    mesh: object = None
    space: object = None


def initial_guess(seed: int, rep: int, dim: int) -> np.ndarray:
    """x0 of repetition ``rep``; a fresh draw per repetition keeps one
    unlucky x0 from setting a whole run's iteration count."""
    return np.random.default_rng([seed, rep]).standard_normal(dim)


def _two_level(mesh, fine, A, theta, tr):
    with tr.span("fem.space"):
        coarse = build_space(mesh, 1)
    with tr.span("transfer.prolong"):
        P = build_prolongation(fine, coarse).eliminated()
    with tr.span("twolevel.setup"):
        return TwoLevelPreconditioner(A, P, coarse="amg", theta=theta, presmooth=True)


def setup(w: Workload, tr: Tracer) -> Problem:
    """Mesh through a ready preconditioner."""
    with tr.span("reference.tables"):
        reference.stiffness_reference(w.k)
        if w.problem == "stokes":
            reference.mass_reference(w.k - 1)
            reference.divergence_reference(w.k, w.k - 1)
    with tr.span("mesh.build"):
        mesh = build_cube_mesh(w.n)
    if w.problem == "stokes":
        # the same public steps as solve_cavity, with the preconditioner
        # build counted in setup rather than in the solve
        with tr.span("stokes.assemble"):
            S = assemble_stokes(mesh, w.k)
        with tr.span("stokes.precond_setup"):
            Q = build_block_preconditioner(S, kind="Qd", engine=w.engine, theta=w.theta)
        V = Q.a_action
        return Problem(S, Q, S.dim, V.operator_complexity(), V.hierarchy, V.A, V.P)
    with tr.span("fem.space"):
        fine = build_space(mesh, w.k)
    with tr.span("fem.assemble"):
        A_full = assemble_operator(fine, "stiffness")
    with tr.span("fem.eliminate"):
        A = eliminate_dirichlet(A_full, np.zeros(fine.n_dofs), fine).A
    if w.engine == "amg":
        with tr.span("amg.setup"):
            H = build_hierarchy(A, theta=w.theta)
            M = VCyclePreconditioner(H)
        return Problem(A, M, A.nrows, operator_complexity(H), H, A, H.levels[0].P, mesh, fine)
    M = _two_level(mesh, fine, A, w.theta, tr)
    return Problem(A, M, A.nrows, M.operator_complexity(), M.hierarchy, A, M.P, mesh, fine)


def solve(w: Workload, prob: Problem, x0, tr: Tracer):
    """The Krylov loop; returns (x, SolveReport)."""
    cfg = SolverConfig(method="minres" if w.problem == "stokes" else "fgmres",
                       rel_tol=w.rel_tol, max_iters=w.max_iters)
    A_op, M_op = prob.A, prob.M
    if w.problem == "stokes":
        S = prob.A
        A_op = S.apply_operator
        if tr.enabled:
            V = M_op.a_action
            V.coarse_solve = tr.wrap(V.coarse_solve, "twolevel.coarse_solve")
            M_op.a_action = tr.wrap(tr.wrap(V, "twolevel.apply"), "stokes.velocity_apply")
            M_op = tr.wrap(M_op, "stokes.block_apply")
        u0, p0 = S.split(x0)
        x0 = np.concatenate([u0, project_pressure_mean(p0, S.M_p)])
        b = S.rhs()
    else:
        if tr.enabled:
            A_op = partial(spmv, prob.A)
            if isinstance(M_op, TwoLevelPreconditioner):
                M_op.coarse_solve = tr.wrap(M_op.coarse_solve, "twolevel.coarse_solve")
                M_op = tr.wrap(M_op, "twolevel.apply")
            else:
                M_op = tr.wrap(M_op, "amg.vcycle")
        b = np.zeros(prob.dim)
    A_op = tr.wrap(A_op, "krylov.a_apply")
    M_op = tr.wrap(M_op, "krylov.m_apply")
    with tr.span("krylov.solve"):
        x, report = (minres if cfg.method == "minres" else fgmres)(A_op, M_op, b, cfg, x0=x0)
    if w.problem == "stokes":
        u, p = S.split(x)
        x = np.concatenate([u, project_pressure_mean(p, S.M_p)])
    return x, report


def gate(w: Workload, prob: Problem, x, x0) -> bool:
    """True relative residual, recomputed with the public operator, is
    finite and at most rel_tol; a Stokes pressure has zero mass-weighted
    mean."""
    if w.problem == "stokes":
        S = prob.A
        b = S.rhs()
        relres = np.linalg.norm(b - S.apply_operator(x)) / np.linalg.norm(b)
        p = S.split(x)[1]
        weights = spmv(S.M_p, np.ones(S.n_pressure))
        mean = (weights @ p) / weights.sum()
        mean_ok = abs(mean) <= PRESSURE_MEAN_TOL * max(1.0, np.abs(p).max())
    else:
        # zero right-hand side: relative to the initial residual
        relres = np.linalg.norm(spmv(prob.A, x)) / np.linalg.norm(spmv(prob.A, x0))
        mean_ok = True
    return bool(np.isfinite(relres) and relres <= w.rel_tol and mean_ok)


@dataclass
class Rep:
    setup_s: float
    solve_s: float
    iterations: int
    passed: bool
    conv_factor: float   # geometric mean of the residual reduction per iteration

    @property
    def total_s(self):
        return self.setup_s + self.solve_s


def run_rep(w: Workload, seed: int, rep: int, tr: Tracer):
    """Setup and solve of repetition ``rep``; returns (Rep, Problem, x0)."""
    t0 = time.perf_counter()
    prob = setup(w, tr)
    t1 = time.perf_counter()
    x0 = initial_guess(seed, rep, prob.dim)
    t2 = time.perf_counter()
    x, report = solve(w, prob, x0, tr)
    t3 = time.perf_counter()
    h = report.residual_history
    conv = float((h[-1] / h[0]) ** (1.0 / report.iterations)) if report.iterations else 0.0
    rep = Rep(t1 - t0, t3 - t2, report.iterations, gate(w, prob, x, x0), conv)
    return rep, prob, x0


def check_claims(w: Workload, prob: Problem, rep: Rep, x0):
    """Solve a plain-AMG Poisson workload's matrix again with GAMG from the
    same x0.  Returns (gate passed, {claim: (gamg value, amg value)}); the
    paper's claims are that GAMG needs fewer iterations and has the
    smaller operator complexity."""
    M = _two_level(prob.mesh, prob.space, prob.A, w.theta, Tracer(False))
    gamg = Problem(prob.A, M, prob.dim, M.operator_complexity(), M.hierarchy, prob.A, M.P)
    x, report = solve(w, gamg, x0, Tracer(False))
    claims = {
        "iterations": (report.iterations, rep.iterations),
        "c_op": (gamg.c_op, prob.c_op),
    }
    return gate(w, gamg, x, x0), claims


def _same(X, Y) -> bool:
    return (Y is not None and X.shape == Y.shape and np.array_equal(X.row_ptr, Y.row_ptr)
            and np.array_equal(X.col_idx, Y.col_idx) and np.array_equal(X.values, Y.values))


def probe(w: Workload, prob: Problem, tr: Tracer):
    """Traced-run-only probes on the last repetition's problem.

    Re-runs the AMG setup stages per level from outside (they must
    reproduce the hierarchy's own P and coarse operators) and times the
    CSR kernels on the workload's own fine operator.  Returns the bytes
    one spmv moves, computed from the array sizes.
    """
    H = prob.hierarchy
    if w.engine == "gamg":
        # plain AMG times build_hierarchy inside its setup; here it runs
        # inside the two-level constructor, so time it again from outside
        with tr.span("amg.setup"):
            again = build_hierarchy(H.levels[0].A, theta=H.theta)
        if again.summary() != H.summary():
            raise RuntimeError("re-running build_hierarchy changed the hierarchy")
    for lvl, (fine, coarse) in enumerate(zip(H.levels, H.levels[1:])):
        with tr.span("amg.strength"):
            S = strength_graph(fine.A, H.theta)
        with tr.span("amg.coarsen"):
            partition = rs_coarsen(S)
        with tr.span("amg.interp"):
            P = direct_interpolation(fine.A, S, partition)
        with tr.span("amg.rap"):
            A_c = triple_product(P.transpose(), fine.A, P)
        if not (_same(P, fine.P) and _same(A_c, coarse.A)):
            raise RuntimeError(f"AMG stages do not reproduce level {lvl} of the hierarchy")

    A, P = prob.smoothed, prob.fine_P
    v = np.ones(A.ncols)
    L = A.tril()
    for _ in range(PROBE_CALLS):
        with tr.span("csr.spmv"):
            spmv(A, v)
        with tr.span("csr.tri_solve"):
            tri_lower_solve(L, v)
    for _ in range(RAP_PROBE_CALLS):
        with tr.span("csr.rap"):
            triple_product(P.transpose(), A, P)
    S = A.to_scipy()
    return S.data.nbytes + S.indices.nbytes + S.indptr.nbytes + 2 * v.nbytes
