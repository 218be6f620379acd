import numpy as np
import pytest

from auxmg.amg import AmgHierarchy, _Level, build_hierarchy, vcycle_apply
from auxmg.csr import CsrMatrix, GaussSeidel, cholesky_factor, cholesky_solve, spmv, triple_product
from auxmg.problems import poisson_setup
from auxmg.twolevel import (
    AugmentedSystem,
    TwoLevelPreconditioner,
    augmented_gs_step,
    augmented_rhs,
    build_augmented,
    contraction_factor_estimate,
    flatten_augmented,
    rate_identity_oracle,
)


def two_level(n, k, seed=None, **kw):
    prob = poisson_setup(n, k, perturb_seed=seed)
    A, P = prob.system.A, prob.prolongation_int
    return A, P, TwoLevelPreconditioner(A, P, **kw)


class _ExactInverse:
    def __init__(self, A):
        self._inv = np.linalg.inv(A.to_dense())

    def apply(self, r):
        return self._inv @ r

    apply_transpose = apply


class _ZeroPreconditioner:
    def apply(self, r):
        return np.zeros_like(r)

    apply_transpose = apply


class TestTwoLevelApply:
    def test_zero_residual(self):
        A, P, M = two_level(2, 2, coarse="exact")
        assert np.array_equal(M.apply(np.zeros(A.nrows)), np.zeros(A.nrows))

    def test_identity_transfer_exact_correction(self):
        # degenerate rig: transfer == identity, exact coarse solve
        prob = poisson_setup(2, 1)
        A = prob.system.A
        M = TwoLevelPreconditioner(A, CsrMatrix.identity(A.nrows), coarse="exact", presmooth=False)
        rng = np.random.default_rng(0)
        r = rng.standard_normal(A.nrows)
        x = M.apply(r)
        assert np.linalg.norm(spmv(A, x) - r) <= 1e-10 * np.linalg.norm(r)

    def test_symmetry_with_presmoothing(self):
        A, P, M = two_level(2, 2, coarse="exact", presmooth=True)
        rng = np.random.default_rng(1)
        for _ in range(4):
            x, y = rng.standard_normal(A.nrows), rng.standard_normal(A.nrows)
            lhs, rhs = x @ M.apply(y), y @ M.apply(x)
            assert abs(lhs - rhs) <= 1e-11 * max(1.0, abs(lhs))

    def test_symmetry_with_amg_coarse(self):
        A, P, M = two_level(3, 2, coarse="amg", presmooth=True)
        rng = np.random.default_rng(2)
        x, y = rng.standard_normal(A.nrows), rng.standard_normal(A.nrows)
        lhs, rhs = x @ M.apply(y), y @ M.apply(x)
        assert abs(lhs - rhs) <= 1e-11 * max(1.0, abs(lhs))

    def test_transpose_is_adjoint(self):
        A, P, M = two_level(2, 2, coarse="exact", presmooth=False, post="forward")
        rng = np.random.default_rng(3)
        for _ in range(4):
            x, y = rng.standard_normal(A.nrows), rng.standard_normal(A.nrows)
            assert x @ M.apply(y) == pytest.approx(y @ M.apply_transpose(x), rel=1e-11, abs=1e-13)

    def test_linear_in_residual(self):
        A, P, M = two_level(2, 3, coarse="exact")
        rng = np.random.default_rng(4)
        x, y = rng.standard_normal(A.nrows), rng.standard_normal(A.nrows)
        lhs = M.apply(1.5 * x - 0.5 * y)
        rhs = 1.5 * M.apply(x) - 0.5 * M.apply(y)
        assert np.max(np.abs(lhs - rhs)) <= 1e-12 * max(1.0, np.max(np.abs(lhs)))

    def test_empty_coarse_space_degenerates_to_smoothing(self):
        # an n=1 mesh has no interior vertices: the coarse block is empty
        A, P, M = two_level(1, 2, coarse="exact", presmooth=False)
        assert P.ncols == 0
        r = np.array([3.0])
        x = M.apply(r)
        assert np.allclose(spmv(A, x), r)  # single unknown: sweep solves exactly

    def test_sweeps_prepared_once(self):
        A, P, M = two_level(2, 2)
        assert isinstance(M.forward, GaussSeidel) and M.forward.direction == "forward"
        assert isinstance(M.backward, GaussSeidel) and M.backward.direction == "backward"
        assert not any(isinstance(v, CsrMatrix) and v not in (M.A, M.P, M.A_H) for v in vars(M).values())

    def test_zero_diagonal_fails_at_setup(self):
        A, P, _ = two_level(2, 2, coarse="exact")
        values = A.values.copy()
        values[(A.col_idx == 3) & (np.repeat(np.arange(A.nrows), np.diff(A.row_ptr)) == 3)] = 0.0
        with pytest.raises(ValueError, match="row 3"):
            TwoLevelPreconditioner(CsrMatrix(A.nrows, A.ncols, A.row_ptr, A.col_idx, values), P)


@pytest.fixture(scope="module")
def p2_n6():
    # 125 interior P1 vertices: enough for the coarse AMG to have two levels
    prob = poisson_setup(6, 2)
    return prob.system.A, prob.prolongation_int


def _composed(A, P, coarse_solve, r, pre, post):
    """Smoothing and coarse correction written out: pre sweep from a
    zero guess, P coarse_solve(P^T residual), post sweep."""
    x = np.zeros_like(r)
    if pre is not None:
        x = pre(r)
    x = x + spmv(P, coarse_solve(spmv(P.transpose(), r - spmv(A, x))))
    if post is not None:
        x = x + post(r - spmv(A, x))
    return x


class TestPinnedComposition:
    @pytest.mark.parametrize("coarse", ["amg", "exact"])
    @pytest.mark.parametrize("presmooth", [True, False])
    @pytest.mark.parametrize("post", ["backward", "forward"])
    def test_apply_and_transpose_equal_written_out_composition(self, p2_n6, coarse, presmooth, post):
        A, P = p2_n6
        M = TwoLevelPreconditioner(A, P, coarse=coarse, presmooth=presmooth, post=post)
        A_H = triple_product(P.transpose(), A, P)
        if coarse == "amg":
            H = build_hierarchy(A_H, theta=0.25)
            assert H.num_levels >= 2
            coarse_solve = lambda r_H: vcycle_apply(H, r_H)  # noqa: E731
        else:
            L_H = cholesky_factor(A_H.to_dense())
            coarse_solve = lambda r_H: cholesky_solve(L_H, r_H)  # noqa: E731
        fwd, bwd = GaussSeidel(A, "forward"), GaussSeidel(A, "backward")
        sweep = {"forward": fwd, "backward": bwd}
        flip = {"forward": bwd, "backward": fwd}
        rng = np.random.default_rng(40)
        for _ in range(2):
            r = rng.standard_normal(A.nrows)
            ref = _composed(A, P, coarse_solve, r, fwd if presmooth else None, sweep[post])
            assert np.array_equal(M.apply(r), ref)
            ref_t = _composed(A, P, coarse_solve, r, flip[post], bwd if presmooth else None)
            assert np.array_equal(M.apply_transpose(r), ref_t)

    def test_gamg_is_the_top_level_of_a_vcycle(self, p2_n6):
        # GAMG equals a V-cycle over [(A, P)] followed by the AMG levels of A_H
        A, P = p2_n6
        M = TwoLevelPreconditioner(A, P, coarse="amg", presmooth=True, post="backward")
        top = _Level(A, P)
        H = AmgHierarchy([top] + M.hierarchy.levels, M.hierarchy.coarsest_factor, M.hierarchy.theta)
        r = np.random.default_rng(41).standard_normal(A.nrows)
        assert np.array_equal(M.apply(r), vcycle_apply(H, r))

    @pytest.mark.parametrize("coarse", ["amg", "exact"])
    def test_no_coarse_dofs(self, coarse):
        A, P, M = two_level(1, 2, coarse=coarse)
        assert P.ncols == 0
        assert M.level_count() == 1
        assert M.operator_complexity() == 1.0
        r = np.random.default_rng(42).standard_normal(A.nrows)
        fwd, bwd = GaussSeidel(A, "forward"), GaussSeidel(A, "backward")
        x = fwd(r)
        assert np.array_equal(M.apply(r), x + bwd(r - spmv(A, x)))


class TestAugmentedSystem:
    def test_top_left_block_is_galerkin(self):
        prob = poisson_setup(2, 2)
        A, P = prob.system.A, prob.prolongation_int
        S = build_augmented(A, P)
        from auxmg.transfer import galerkin_coarse

        assert np.array_equal(S.A_H.to_dense(), galerkin_coarse(A, P).to_dense())

    def test_symmetric(self):
        prob = poisson_setup(2, 2)
        S = build_augmented(prob.system.A, prob.prolongation_int)
        dense = S.to_dense()
        assert np.max(np.abs(dense - dense.T)) <= 1e-13 * max(1.0, np.max(np.abs(dense)))

    def test_null_space_characterisation(self):
        prob = poisson_setup(2, 3, perturb_seed=5)
        S = build_augmented(prob.system.A, prob.prolongation_int)
        dense_norm = np.max(np.abs(S.to_dense()))
        rng = np.random.default_rng(6)
        for _ in range(5):
            c = rng.standard_normal(S.n_coarse)
            null_vec = np.concatenate([c, -spmv(S.P, c)])
            img = S.matvec(null_vec)
            assert np.max(np.abs(img)) <= 1e-12 * dense_norm * max(1.0, np.max(np.abs(c)))

    def test_range_is_invariant(self):
        # vectors of the form (R v, v) map into vectors of the same form
        prob = poisson_setup(2, 2)
        S = build_augmented(prob.system.A, prob.prolongation_int)
        rng = np.random.default_rng(7)
        v = rng.standard_normal(S.n_fine)
        w = S.matvec(np.concatenate([spmv(S.P.transpose(), v), v]))
        wc, wf = w[: S.n_coarse], w[S.n_coarse :]
        assert np.max(np.abs(wc - spmv(S.P.transpose(), wf))) <= 1e-12 * max(1.0, np.max(np.abs(wf)))

    def test_dimension_mismatch(self):
        prob = poisson_setup(2, 2)
        with pytest.raises(ValueError):
            build_augmented(prob.system.A, CsrMatrix.identity(5))


class TestAugmentedGaussSeidel:
    def test_fixed_point(self):
        prob = poisson_setup(2, 2)
        S = build_augmented(prob.system.A, prob.prolongation_int)
        rng = np.random.default_rng(8)
        v = rng.standard_normal(S.dim)
        f = S.matvec(v)
        v_next = augmented_gs_step(S, v, f)
        assert np.max(np.abs(v_next - v)) <= 1e-13 * max(1.0, np.max(np.abs(v)))

    def test_hand_computed_1x1(self):
        A = CsrMatrix.from_dense([[2.0]])
        P = CsrMatrix.from_dense([[0.5]])
        S = build_augmented(A, P)
        v = np.array([0.2, -0.3])
        f = np.array([1.0, 0.4])
        v_next = augmented_gs_step(S, v, f)
        # coarse: r_c = 1.0 - 0.5*0.2 - 1.0*(-0.3) = 1.2; z_c = 1.2/0.5 = 2.4
        # fine:   r_f = 0.4 - 1.0*0.2 - 2.0*(-0.3) = 0.8; z_f = (0.8 - 1.0*2.4)/2 = -0.8
        assert np.allclose(v_next, [0.2 + 2.4, -0.3 - 0.8], atol=1e-14)

    def test_steps_reuse_the_coarse_factor(self, monkeypatch):
        from auxmg import csr

        prob = poisson_setup(2, 2)
        S = build_augmented(prob.system.A, prob.prolongation_int)
        rng = np.random.default_rng(10)
        v, f = rng.standard_normal(S.dim), rng.standard_normal(S.dim)
        before = augmented_gs_step(S, v, f)

        def refactor(M):
            raise AssertionError("augmented_gs_step refactored the coarse block")

        monkeypatch.setattr(csr, "cholesky_factor", refactor)
        assert np.array_equal(augmented_gs_step(S, v, f), before)

    @pytest.mark.parametrize("n,k", [(1, 2), (1, 3), (2, 2)])
    def test_equivalent_to_two_level_iteration(self, n, k):
        prob = poisson_setup(n, k)
        A, P = prob.system.A, prob.prolongation_int
        M = TwoLevelPreconditioner(A, P, coarse="exact", presmooth=False, post="forward")
        S = build_augmented(A, P)
        rng = np.random.default_rng(9)
        f = rng.standard_normal(A.nrows)
        u = rng.standard_normal(A.nrows)
        f_aug = augmented_rhs(S, f)
        v = np.concatenate([np.zeros(S.n_coarse), u])
        scale = max(1.0, np.max(np.abs(u)))
        for _ in range(10):
            u = u + M.apply(f - spmv(A, u))
            v = augmented_gs_step(S, v, f_aug)
            assert np.max(np.abs(flatten_augmented(S, v) - u)) <= 1e-12 * scale


class TestConvergenceRateOracles:
    @pytest.mark.parametrize("n,k,seed", [(1, 2, None), (1, 3, None), (2, 2, None), (2, 2, 21), (2, 3, 22)])
    def test_rate_identity(self, n, k, seed):
        prob = poisson_setup(n, k, perturb_seed=seed)
        S = build_augmented(prob.system.A, prob.prolongation_int)
        lhs, rhs = rate_identity_oracle(S)
        assert abs(lhs - rhs) <= 1e-8
        assert lhs < 1.0

    def test_dense_limit_enforced(self):
        prob = poisson_setup(3, 3)  # 125 coarse-interior? no: fine interior 343 + coarse 8
        S = build_augmented(prob.system.A, prob.prolongation_int)
        with pytest.raises(ValueError):
            rate_identity_oracle(S, dense_limit=100)

    def test_exact_preconditioner_contracts_to_zero(self):
        prob = poisson_setup(2, 2)
        A = prob.system.A
        est = contraction_factor_estimate(_ExactInverse(A), A)
        assert est.value <= 1e-8

    def test_zero_preconditioner_has_unit_contraction(self):
        prob = poisson_setup(2, 2)
        A = prob.system.A
        est = contraction_factor_estimate(_ZeroPreconditioner(), A)
        assert est.value == pytest.approx(1.0, abs=1e-12)

    def test_estimate_matches_dense_oracle(self):
        import scipy.linalg

        prob = poisson_setup(2, 2)
        A, P = prob.system.A, prob.prolongation_int
        M = TwoLevelPreconditioner(A, P, coarse="exact", presmooth=False, post="forward")
        est = contraction_factor_estimate(M, A, iters=500, seed=11)
        n = A.nrows
        E = np.eye(n) - np.column_stack([M.apply(col) for col in A.to_dense().T])
        Ad = A.to_dense()
        lam = scipy.linalg.eigh(E.T @ Ad @ E, Ad, eigvals_only=True).max()
        assert est.value == pytest.approx(np.sqrt(lam), abs=1e-4)

    def test_exact_and_amg_coarse_solves_agree_in_iterations(self):
        # one AMG V-cycle on the coarse operator is close enough to the
        # exact solve that outer FGMRES counts differ by at most 2
        from auxmg.krylov import SolverConfig, fgmres

        prob = poisson_setup(3, 3)
        A, P = prob.system.A, prob.prolongation_int
        rng = np.random.default_rng(30)
        x0 = rng.standard_normal(A.nrows)
        counts = {}
        for mode in ("exact", "amg"):
            M = TwoLevelPreconditioner(A, P, coarse=mode, presmooth=True)
            _, rep = fgmres(A, M, np.zeros(A.nrows), SolverConfig(rel_tol=1e-6), x0=x0)
            assert rep.converged
            counts[mode] = rep.iterations
        assert abs(counts["exact"] - counts["amg"]) <= 2

    def test_contraction_matches_rate_identity(self):
        # matched configuration: no presmoothing, exact coarse solve,
        # forward postsmoothing == augmented block Gauss-Seidel
        prob = poisson_setup(2, 2)
        A, P = prob.system.A, prob.prolongation_int
        M = TwoLevelPreconditioner(A, P, coarse="exact", presmooth=False, post="forward")
        S = build_augmented(A, P)
        lhs, _ = rate_identity_oracle(S)
        est = contraction_factor_estimate(M, A, iters=500, seed=12)
        assert est.value == pytest.approx(np.sqrt(lhs), abs=1e-4)
