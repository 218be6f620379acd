import numpy as np
import pytest
import scipy.sparse.linalg

from auxmg.csr import CsrMatrix, spmv
from auxmg.krylov import IndefiniteOperatorError, SolverConfig, fgmres, minres, pcg
from auxmg.problems import poisson_setup
from auxmg.twolevel import TwoLevelPreconditioner


def _reference_gmres(A, M, b, x0, n_steps):
    """Textbook right-preconditioned GMRES; returns the iterate after
    each Arnoldi step (independent oracle for the flexible bookkeeping)."""
    x0 = np.array(x0, dtype=np.float64)
    r0 = b - A(x0)
    beta = np.linalg.norm(r0)
    V = [r0 / beta]
    H = np.zeros((n_steps + 1, n_steps))
    iterates = []
    for j in range(n_steps):
        w = A(M(V[j]))
        for i in range(j + 1):
            H[i, j] = V[i] @ w
            w = w - H[i, j] * V[i]
        H[j + 1, j] = np.linalg.norm(w)
        V.append(w / H[j + 1, j])
        e1 = np.zeros(j + 2)
        e1[0] = beta
        y, *_ = np.linalg.lstsq(H[: j + 2, : j + 1], e1, rcond=None)
        u = sum(yi * vi for yi, vi in zip(y, V[: j + 1]))
        iterates.append(x0 + M(u))
    return iterates


class TestPcg:
    def test_identity_one_iteration(self):
        x, rep = pcg(CsrMatrix.identity(4), None, np.array([1.0, -2.0, 3.0, 0.5]))
        assert rep.converged and rep.iterations == 1

    def test_finite_termination_diagonal(self):
        A = CsrMatrix.from_dense(np.diag([1.0, 2.0, 3.0]))
        b = np.array([1.0, 1.0, 1.0])
        x, rep = pcg(A, None, b, SolverConfig(method="cg", rel_tol=1e-12))
        assert rep.converged and rep.iterations <= 3
        assert np.allclose(x, b / np.array([1.0, 2.0, 3.0]), atol=1e-12)

    def test_poisson_with_jacobi_monotone_energy_error(self):
        prob = poisson_setup(2, 1)
        A = prob.system.A
        rng = np.random.default_rng(0)
        b = rng.standard_normal(A.nrows)
        x_star = np.linalg.solve(A.to_dense(), b)  # dense oracle
        dinv = 1.0 / A.diagonal()
        errors = []

        def track(it, xk):
            e = xk - x_star
            errors.append(np.sqrt(e @ spmv(A, e)))

        x, rep = pcg(A, lambda r: dinv * r, b, SolverConfig(method="cg", rel_tol=1e-10), callback=track)
        assert rep.converged
        assert np.all(np.diff(errors) <= 1e-12)

    def test_breakdown_flags_indefinite(self):
        A = CsrMatrix.from_dense([[1.0, 0.0], [0.0, -1.0]])
        with pytest.raises(IndefiniteOperatorError):
            pcg(A, None, np.array([0.0, 1.0]))

    def test_converged_report_is_consistent(self):
        prob = poisson_setup(2, 2)
        A = prob.system.A
        rng = np.random.default_rng(1)
        b = rng.standard_normal(A.nrows)
        x, rep = pcg(A, None, b, SolverConfig(method="cg", rel_tol=1e-8, max_iters=400))
        assert rep.converged
        assert len(rep.residual_history) == rep.iterations + 1
        assert np.linalg.norm(b - spmv(A, x)) / np.linalg.norm(b) <= 1e-8


class TestMinres:
    def test_indefinite_2x2(self):
        A = CsrMatrix.from_dense([[0.0, 1.0], [1.0, 0.0]])
        x, rep = minres(A, None, np.array([1.0, 0.0]), SolverConfig(method="minres", rel_tol=1e-12))
        assert rep.converged and rep.iterations <= 2
        assert np.allclose(x, [0.0, 1.0], atol=1e-12)

    def test_spd_residuals_nonincreasing(self):
        prob = poisson_setup(2, 2)
        A = prob.system.A
        rng = np.random.default_rng(2)
        b = rng.standard_normal(A.nrows)
        x, rep = minres(A, None, b, SolverConfig(method="minres", rel_tol=1e-10, max_iters=300))
        assert rep.converged
        # with M = I the minimised M-norm is the true norm
        assert np.all(np.diff(rep.residual_history) <= 1e-12)

    def test_preconditioned_history_nonincreasing(self):
        prob = poisson_setup(2, 1)
        A = prob.system.A
        dinv = 1.0 / A.diagonal()
        rng = np.random.default_rng(3)
        b = rng.standard_normal(A.nrows)
        x, rep = minres(A, lambda r: dinv * r, b, SolverConfig(method="minres", rel_tol=1e-10))
        assert rep.converged
        assert np.all(np.diff(rep.precond_residual_history) <= 1e-12)

    def test_rejects_indefinite_preconditioner(self):
        A = CsrMatrix.from_dense([[2.0, 0.0], [0.0, 2.0]])
        M = lambda r: np.array([r[0], -r[1]])
        with pytest.raises(IndefiniteOperatorError):
            minres(A, M, np.array([1.0, 1.0]))

    def test_matches_scipy_on_saddle_like_system(self):
        rng = np.random.default_rng(4)
        B = rng.standard_normal((8, 8))
        A = CsrMatrix.from_dense(B + B.T)  # symmetric indefinite
        b = rng.standard_normal(8)
        x, rep = minres(A, None, b, SolverConfig(method="minres", rel_tol=1e-10, max_iters=100))
        x_sp, info = scipy.sparse.linalg.minres(A.to_scipy(), b, rtol=1e-12)
        assert rep.converged
        assert np.linalg.norm(x - x_sp) <= 1e-6 * np.linalg.norm(x_sp)


class TestFgmres:
    def test_exact_preconditioner_one_iteration(self):
        prob = poisson_setup(2, 1)
        A = prob.system.A
        Ainv = np.linalg.inv(A.to_dense())
        rng = np.random.default_rng(5)
        b = rng.standard_normal(A.nrows)
        x, rep = fgmres(A, lambda r: Ainv @ r, b)
        assert rep.converged and rep.iterations == 1

    def test_identity_one_iteration(self):
        x, rep = fgmres(CsrMatrix.identity(5), None, np.ones(5))
        assert rep.converged and rep.iterations == 1

    def test_gamg_preconditioned_poisson(self):
        prob = poisson_setup(2, 2)
        A, P = prob.system.A, prob.prolongation_int
        M = TwoLevelPreconditioner(A, P, coarse="amg", presmooth=True)
        rng = np.random.default_rng(6)
        x0 = rng.standard_normal(A.nrows)
        x, rep = fgmres(A, M, np.zeros(A.nrows), SolverConfig(rel_tol=1e-6), x0=x0)
        assert rep.converged and rep.iterations <= 20

    def test_zero_rhs_uses_initial_residual(self):
        prob = poisson_setup(2, 1)
        A = prob.system.A
        rng = np.random.default_rng(7)
        x0 = rng.standard_normal(A.nrows)
        x, rep = fgmres(A, None, np.zeros(A.nrows), SolverConfig(rel_tol=1e-6, max_iters=200), x0=x0)
        assert rep.converged
        assert rep.residual_history[0] == 1.0
        r0 = np.linalg.norm(spmv(A, x0))
        assert np.linalg.norm(spmv(A, x)) <= 1e-6 * r0

    def test_stagnation_reports_nonconverged(self):
        A = CsrMatrix.from_dense(np.diag([1.0, 0.0]))  # singular, inconsistent rhs
        b = np.array([0.0, 1.0])
        x, rep = fgmres(A, None, b, SolverConfig(rel_tol=1e-12, max_iters=50, restart=5))
        assert not rep.converged
        assert rep.iterations < 50

    def test_restart_still_converges(self):
        prob = poisson_setup(2, 2)
        A = prob.system.A
        rng = np.random.default_rng(8)
        b = rng.standard_normal(A.nrows)
        x, rep = fgmres(A, None, b, SolverConfig(rel_tol=1e-8, max_iters=400, restart=5))
        assert rep.converged
        assert np.linalg.norm(b - spmv(A, x)) / np.linalg.norm(b) <= 1e-8

    def test_fixed_preconditioner_matches_plain_gmres(self):
        prob = poisson_setup(2, 2)
        A = prob.system.A
        dinv = 1.0 / A.diagonal()
        M = lambda r: dinv * r
        rng = np.random.default_rng(9)
        b = rng.standard_normal(A.nrows)
        x0 = np.zeros(A.nrows)
        refs = _reference_gmres(lambda v: spmv(A, v), M, b, x0, 5)
        for j, x_ref in enumerate(refs, start=1):
            x_j, rep = fgmres(A, M, b, SolverConfig(rel_tol=1e-30, max_iters=j, restart=100))
            assert rep.iterations == j
            assert np.max(np.abs(x_j - x_ref)) <= 1e-12 * max(1.0, np.max(np.abs(x_ref)))

    def test_deterministic(self):
        prob = poisson_setup(2, 2)
        A = prob.system.A
        rng = np.random.default_rng(10)
        b = rng.standard_normal(A.nrows)
        _, rep1 = fgmres(A, None, b, SolverConfig(rel_tol=1e-8))
        _, rep2 = fgmres(A, None, b, SolverConfig(rel_tol=1e-8))
        assert np.array_equal(rep1.residual_history, rep2.residual_history)


class TestPostHocResiduals:
    def test_all_converged_reports_verify_independently(self):
        # every solver's convergence claim is re-checked from scratch
        prob = poisson_setup(2, 2)
        A = prob.system.A
        rng = np.random.default_rng(11)
        b = rng.standard_normal(A.nrows)
        tol = 1e-8
        runs = [
            pcg(A, None, b, SolverConfig(method="cg", rel_tol=tol, max_iters=400)),
            minres(A, None, b, SolverConfig(method="minres", rel_tol=tol, max_iters=400)),
            fgmres(A, None, b, SolverConfig(method="fgmres", rel_tol=tol, max_iters=400)),
        ]
        for x, rep in runs:
            assert rep.converged
            assert np.linalg.norm(b - spmv(A, x)) / np.linalg.norm(b) <= tol
            assert rep.residual_history[-1] <= tol
            assert len(rep.residual_history) == rep.iterations + 1


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(rel_tol=0.0)
        with pytest.raises(ValueError):
            SolverConfig(restart=0)

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError, match="'gmres'"):
            SolverConfig(method="gmres")


class TestNonFiniteInput:
    @pytest.mark.parametrize("solver", [pcg, minres, fgmres])
    @pytest.mark.parametrize("precond", ["none", "two_level"])
    @pytest.mark.parametrize("name", ["b", "x0"])
    def test_fails_fast_naming_the_input(self, solver, precond, name):
        prob = poisson_setup(2, 2)
        A, P = prob.system.A, prob.prolongation_int
        M = None if precond == "none" else TwoLevelPreconditioner(A, P, coarse="amg", presmooth=True)
        rng = np.random.default_rng(10)
        data = {"b": rng.standard_normal(A.nrows), "x0": rng.standard_normal(A.nrows)}
        data[name][3] = np.nan if name == "x0" else np.inf
        with pytest.raises(ValueError, match=rf"^{name} has a non-finite entry at index 3"):
            solver(A, M, data["b"], x0=data["x0"])
