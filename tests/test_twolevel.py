from functools import partial

import numpy as np
import pytest

from auxmg import amg, csr, twolevel
from auxmg.amg import AmgHierarchy, _Level, build_hierarchy, vcycle_apply
from auxmg.csr import CsrMatrix, GaussSeidel, cholesky_factor, cholesky_solve, matmat, spmv, triple_product
from auxmg.problems import poisson_setup
from auxmg.twolevel import (
    MAX_AUGMENTED_DIM,
    TwoLevelPreconditioner,
    augmented_gs_step,
    build_augmented,
    contraction_factor_estimate,
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
        A, P, M = two_level(2, 2, coarse="exact", presmooth=False)
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
        top = M.top
        assert isinstance(top.smoother, GaussSeidel)
        # the one extra stored matrix is A P, with A P's pattern and values
        stored = [*vars(M).values(), *vars(top).values()]
        assert not any(isinstance(v, CsrMatrix) and v not in (M.A, M.P, top.AP) for v in stored)
        assert np.array_equal(top.AP.to_dense(), (A.to_scipy() @ P.to_scipy()).toarray())

    def test_zero_diagonal_fails_at_setup(self):
        A, P, _ = two_level(2, 2, coarse="exact")
        values = A.values.copy()
        values[(A.col_idx == 3) & (np.repeat(np.arange(A.nrows), np.diff(A.row_ptr)) == 3)] = 0.0
        with pytest.raises(ValueError, match="row 3"):
            TwoLevelPreconditioner(CsrMatrix(A.nrows, A.ncols, A.row_ptr, A.col_idx, values), P)

    @pytest.mark.parametrize("entry", ["zero", "missing"])
    def test_bad_diagonal_named_before_any_product(self, monkeypatch, entry):
        A, P, _ = two_level(2, 2, coarse="exact")
        rows = np.repeat(np.arange(A.nrows), np.diff(A.row_ptr))
        diagonal = (A.col_idx == rows) & (rows == 5)
        if entry == "zero":
            values = np.where(diagonal, 0.0, A.values)
            A = CsrMatrix(A.nrows, A.ncols, A.row_ptr, A.col_idx, values)
        else:
            A = CsrMatrix.from_coo(A.nrows, A.ncols, rows[~diagonal], A.col_idx[~diagonal], A.values[~diagonal])

        def no_setup(*args):
            raise AssertionError("a product formed before the diagonal check")

        monkeypatch.setattr(twolevel, "triple_product", no_setup)
        monkeypatch.setattr(twolevel, "matmat", no_setup)
        with pytest.raises(ValueError, match="^A needs a nonzero finite diagonal: row 5 has 0.0$"):
            TwoLevelPreconditioner(A, P)

    def test_unknown_coarse_solver_rejected_before_setup(self, monkeypatch):
        A, P, _ = two_level(2, 2, coarse="exact")

        def no_setup(*args):
            raise AssertionError("P^T A P formed for an unknown coarse solver")

        monkeypatch.setattr(twolevel, "triple_product", no_setup)
        with pytest.raises(ValueError, match="^unknown coarse solver 'bogus'$"):
            TwoLevelPreconditioner(A, P, coarse="bogus")

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("name", ["A", "P"])
    def test_non_finite_entry_named_at_setup(self, name, bad):
        A, P, _ = two_level(2, 2, coarse="exact")
        X = {"A": A, "P": P}[name]
        row = int(np.flatnonzero(np.diff(X.row_ptr))[-1])  # the last row with entries
        k = X.row_ptr[row]
        values = X.values.copy()
        values[k] = bad
        X = CsrMatrix(X.nrows, X.ncols, X.row_ptr, X.col_idx, values)
        with pytest.raises(ValueError, match=rf"^{name} has a non-finite entry at \({row}, {X.col_idx[k]}\): {bad}$"):
            TwoLevelPreconditioner(X, P) if name == "A" else TwoLevelPreconditioner(A, X)


@pytest.fixture(scope="module")
def p2_n6():
    # 125 interior P1 vertices: enough for the coarse AMG to have two levels
    prob = poisson_setup(6, 2)
    return prob.system.A, prob.prolongation_int


def _composed(A, P, AP, coarse_solve, r, pre, post):
    """Smoothing and coarse correction written out in the fused form: the
    pre sweep from a zero guess returns x and d = A x - r, then
    e = coarse_solve(P^T (-d)), x += P e and d += (A P) e in place, and
    the post sweep gives x - post(d)."""
    x, d = (np.zeros_like(r), -r) if pre is None else pre(r)
    e = coarse_solve(-spmv(P.transpose(), d))
    spmv(P, e, out=x)
    if post is None:
        return x
    spmv(AP, e, out=d)
    return x - post(d)


def _unfused(A, P, coarse_solve, r, pre, post):
    """The same step with each residual formed as r - A x: pre sweep from
    a zero guess, P coarse_solve(P^T residual), post sweep."""
    x = np.zeros_like(r) if pre is None else pre(r)
    x = x + spmv(P, coarse_solve(spmv(P.transpose(), r - spmv(A, x))))
    if post is not None:
        x = x + post(r - spmv(A, x))
    return x


class TestPinnedComposition:
    @pytest.mark.parametrize("coarse", ["amg", "exact"])
    # the id names the direction of the last sweep of ``apply``, which
    # ``presmooth`` fixes: backward in the symmetric form, forward in the plain
    @pytest.mark.parametrize("presmooth", [pytest.param(True, id="backward-True"),
                                           pytest.param(False, id="forward-False")])
    def test_apply_and_transpose_equal_written_out_composition(self, p2_n6, coarse, presmooth):
        A, P = p2_n6
        M = TwoLevelPreconditioner(A, P, coarse=coarse, presmooth=presmooth)
        A_H = triple_product(P.transpose(), A, P)
        if coarse == "amg":
            H = build_hierarchy(A_H, theta=0.25)
            assert H.num_levels >= 2
            coarse_solve = lambda r_H: vcycle_apply(H, r_H)  # noqa: E731
        else:
            L_H = cholesky_factor(A_H.to_dense())
            coarse_solve = lambda r_H: cholesky_solve(L_H, r_H)  # noqa: E731
        gs = GaussSeidel(A)
        AP = CsrMatrix.from_scipy(A.to_scipy() @ P.to_scipy())
        rng = np.random.default_rng(40)
        for _ in range(2):
            r = rng.standard_normal(A.nrows)
            if presmooth:
                ref = ref_t = _composed(A, P, AP, coarse_solve, r, gs.forward_sweep, gs.backward)
            else:
                ref = _composed(A, P, AP, coarse_solve, r, None, gs.forward)
                ref_t = _composed(A, P, AP, coarse_solve, r, gs.backward_sweep, None)
            assert np.array_equal(M.apply(r), ref)
            assert np.array_equal(M.apply_transpose(r), ref_t)

    def test_gamg_is_the_top_level_of_a_vcycle(self, p2_n6):
        # GAMG equals a V-cycle over [(A, P)], which prepares A P, followed
        # by the AMG levels of A_H
        A, P = p2_n6
        M = TwoLevelPreconditioner(A, P, coarse="amg", presmooth=True)
        top = _Level(A, P, AP=matmat(A, P))
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
        gs = GaussSeidel(A)
        AP = CsrMatrix.from_scipy(A.to_scipy() @ P.to_scipy())
        assert np.array_equal(M.apply(r), _composed(A, P, AP, M.coarse_solve, r, gs.forward_sweep, gs.backward))


# the fused step and the written-out one sum the same terms in different
# orders, so they differ by a few ulps of the result's largest entry (at
# most 7e-16 of it measured on P2-P4 meshes, vectors and blocks)
FUSED_RTOL = 1e-13


def assert_close(got, ref):
    assert got.shape == ref.shape
    assert np.max(np.abs(got - ref)) <= FUSED_RTOL * np.max(np.abs(ref))


def _residual(shape, seed):
    n, k = shape
    return np.random.default_rng(seed).standard_normal(n if k is None else (n, k))


class TestFusedStep:
    """The fused step against the written-out composition x + post(r - A x)."""

    @pytest.mark.parametrize("k", [None, 3])
    @pytest.mark.parametrize("form", ["symmetric", "plain", "plain-transpose"])
    @pytest.mark.parametrize("coarse", ["amg", "exact"])
    def test_two_level_matches_unfused(self, p2_n6, coarse, form, k):
        A, P = p2_n6
        M = TwoLevelPreconditioner(A, P, coarse=coarse, presmooth=form == "symmetric")
        gs = GaussSeidel(A)
        fwd, bwd = gs.forward, gs.backward
        action, pre, post = {"symmetric": (M.apply, fwd, bwd), "plain": (M.apply, None, fwd),
                             "plain-transpose": (M.apply_transpose, bwd, None)}[form]
        r = _residual((A.nrows, k), 43)
        assert_close(action(r), _unfused(A, P, M.coarse_solve, r, pre, post))

    @pytest.mark.parametrize("k", [None, 3])
    @pytest.mark.parametrize("presmooth", [True, False])
    def test_empty_coarse_space_matches_unfused(self, presmooth, k):
        A, P, M = two_level(1, 3, coarse="exact", presmooth=presmooth)
        assert P.ncols == 0 and A.nrows > 1
        gs = GaussSeidel(A)
        fwd, bwd = gs.forward, gs.backward
        r = _residual((A.nrows, k), 44)
        pre, post = (fwd, bwd) if presmooth else (None, fwd)
        assert_close(M.apply(r), _unfused(A, P, M.coarse_solve, r, pre, post))
        if not presmooth:
            assert_close(M.apply_transpose(r), _unfused(A, P, M.coarse_solve, r, bwd, None))

    @pytest.mark.parametrize("k", [None, 3])
    def test_vcycle_matches_unfused(self, k):
        A = poisson_setup(3, 3).system.A
        H = build_hierarchy(A, theta=0.25)
        assert H.num_levels >= 3

        def unfused_cycle(level, r):
            if level == H.num_levels - 1:
                return cholesky_solve(H.coarsest_factor, r)
            lvl = H.levels[level]
            return _unfused(lvl.A, lvl.P, partial(unfused_cycle, level + 1), r, lvl.smoother.forward,
                            lvl.smoother.backward)

        r = _residual((A.nrows, k), 45)
        assert_close(vcycle_apply(H, r), unfused_cycle(0, r))


@pytest.fixture
def products(monkeypatch):
    """The matrices that spmv multiplies by, in call order."""
    seen = []
    real = csr.spmv

    def recording(A, x, out=None):
        seen.append(A)
        return real(A, x, out)

    for module in (csr, amg, twolevel):
        monkeypatch.setattr(module, "spmv", recording)
    return seen


def _count(seen, X):
    return sum(Y is X for Y in seen)


class TestProductsPerStep:
    @pytest.mark.parametrize("action, presmooth", [("apply", True), ("apply", False), ("apply_transpose", False)])
    def test_two_level_action_never_multiplies_by_the_fine_operator(self, p2_n6, products, action, presmooth):
        # P^T, P and (when a post sweep follows) A P at the top, then P^T, P
        # and A once per AMG level of the coarse cycle
        A, P = p2_n6
        M = TwoLevelPreconditioner(A, P, coarse="amg", presmooth=presmooth)
        assert M.hierarchy.num_levels >= 2
        products.clear()
        getattr(M, action)(_residual((A.nrows, 3), 46))
        expected = [P.transpose(), P] + [M.top.AP] * (action == "apply")
        for lvl in M.hierarchy.levels[:-1]:
            expected += [lvl.P.transpose(), lvl.P, lvl.A]
        assert _count(products, A) == 0
        assert sorted(map(id, products)) == sorted(map(id, expected))

    def test_vcycle_level_multiplies_by_its_operator_once(self, products):
        H = build_hierarchy(poisson_setup(3, 3).system.A, theta=0.25)
        assert H.num_levels >= 3
        vcycle_apply(H, _residual((H.levels[0].A.nrows, None), 47))
        for lvl in H.levels[:-1]:
            assert (_count(products, lvl.A), _count(products, lvl.P), _count(products, lvl.P.transpose())) == (1, 1, 1)
        assert len(products) == 3 * (H.num_levels - 1)


class TestAugmentedSystem:
    def test_top_left_block_is_galerkin(self):
        # dense and sparse products sum in different orders
        prob = poisson_setup(2, 2)
        A, P = prob.system.A, prob.prolongation_int
        S = build_augmented(A, P)
        nc = S.n_coarse
        A_H = triple_product(P.transpose(), A, P).to_dense()
        assert np.max(np.abs(S.matrix[:nc, :nc] - A_H)) <= 1e-14 * np.max(np.abs(A_H))

    def test_fine_block_and_sweep(self):
        prob = poisson_setup(2, 2)
        A, P = prob.system.A, prob.prolongation_int
        S = build_augmented(A, P)
        nc = S.n_coarse
        assert (S.n_coarse, S.n_fine, S.dim) == (P.ncols, A.nrows, P.ncols + A.nrows)
        assert np.array_equal(S.W, np.hstack([P.to_dense(), np.eye(A.nrows)]))
        assert np.array_equal(S.matrix[nc:, nc:], A.to_dense())
        assert np.array_equal(S.sweep[:nc, :nc], S.matrix[:nc, :nc])
        assert not S.sweep[:nc, nc:].any()
        assert np.array_equal(S.sweep[nc:, :], np.tril(S.matrix)[nc:, :])

    def test_symmetric(self):
        prob = poisson_setup(2, 2)
        S = build_augmented(prob.system.A, prob.prolongation_int)
        dense = S.matrix
        assert np.max(np.abs(dense - dense.T)) <= 1e-13 * max(1.0, np.max(np.abs(dense)))

    def test_null_space_characterisation(self):
        prob = poisson_setup(2, 3, perturb_seed=5)
        P = prob.prolongation_int
        S = build_augmented(prob.system.A, P)
        dense_norm = np.max(np.abs(S.matrix))
        rng = np.random.default_rng(6)
        for _ in range(5):
            c = rng.standard_normal(S.n_coarse)
            null_vec = np.concatenate([c, -spmv(P, c)])
            img = S.matrix @ null_vec
            assert np.max(np.abs(img)) <= 1e-12 * dense_norm * max(1.0, np.max(np.abs(c)))

    def test_range_is_invariant(self):
        # vectors of the form (R v, v) map into vectors of the same form
        prob = poisson_setup(2, 2)
        R = prob.prolongation_int.transpose()
        S = build_augmented(prob.system.A, prob.prolongation_int)
        rng = np.random.default_rng(7)
        v = rng.standard_normal(S.n_fine)
        w = S.matrix @ np.concatenate([spmv(R, v), v])
        wc, wf = w[: S.n_coarse], w[S.n_coarse :]
        assert np.max(np.abs(wc - spmv(R, wf))) <= 1e-12 * max(1.0, np.max(np.abs(wf)))

    def test_dimension_mismatch(self):
        prob = poisson_setup(2, 2)
        for build in (build_augmented, TwoLevelPreconditioner):
            with pytest.raises(ValueError, match="^A and P dimensions do not match$"):
                build(prob.system.A, CsrMatrix.identity(5))


class TestAugmentedGaussSeidel:
    def test_fixed_point(self):
        prob = poisson_setup(2, 2)
        S = build_augmented(prob.system.A, prob.prolongation_int)
        rng = np.random.default_rng(8)
        v = rng.standard_normal(S.dim)
        f = S.matrix @ v
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

    def test_length_mismatch(self):
        S = build_augmented(CsrMatrix.from_dense([[2.0]]), CsrMatrix.from_dense([[0.5]]))
        for v, f in ((np.zeros(3), np.zeros(2)), (np.zeros(2), np.zeros(1))):
            with pytest.raises(ValueError, match="^augmented vector length mismatch$"):
                augmented_gs_step(S, v, f)

    def test_shares_no_kernel_with_the_preconditioner(self, monkeypatch):
        # the reference runs with the sparse and sweep kernels disabled
        from auxmg import amg, csr, twolevel

        prob = poisson_setup(2, 2)
        S = build_augmented(prob.system.A, prob.prolongation_int)
        rng = np.random.default_rng(10)
        v, f = rng.standard_normal(S.dim), rng.standard_normal(S.n_fine)

        def boom(*args, **kwargs):
            raise AssertionError("the augmented reference called a preconditioner kernel")

        monkeypatch.setattr(csr.GaussSeidel, "_substitute", boom)
        for module in (csr, amg, twolevel):
            for name in ("spmv", "cholesky_solve"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, boom)
        v = augmented_gs_step(S, v, S.W.T @ f)
        assert (S.W @ v).shape == (S.n_fine,)
        lhs, rhs = rate_identity_oracle(S)
        assert abs(lhs - rhs) <= 1e-8

    @pytest.mark.parametrize("n,k", [(1, 2), (1, 3), (2, 2)])
    def test_equivalent_to_two_level_iteration(self, n, k):
        prob = poisson_setup(n, k)
        A, P = prob.system.A, prob.prolongation_int
        M = TwoLevelPreconditioner(A, P, coarse="exact", presmooth=False)
        S = build_augmented(A, P)
        rng = np.random.default_rng(9)
        f = rng.standard_normal(A.nrows)
        u = rng.standard_normal(A.nrows)
        f_aug = S.W.T @ f
        v = np.concatenate([np.zeros(S.n_coarse), u])
        scale = max(1.0, np.max(np.abs(u)))
        for _ in range(10):
            u = u + M.apply(f - spmv(A, u))
            v = augmented_gs_step(S, v, f_aug)
            assert np.max(np.abs(S.W @ v - u)) <= 1e-12 * scale


class TestConvergenceRateOracles:
    @pytest.mark.parametrize("n,k,seed", [(1, 2, None), (1, 3, None), (2, 2, None), (2, 2, 21), (2, 3, 22)])
    def test_rate_identity(self, n, k, seed):
        prob = poisson_setup(n, k, perturb_seed=seed)
        S = build_augmented(prob.system.A, prob.prolongation_int)
        lhs, rhs = rate_identity_oracle(S)
        assert abs(lhs - rhs) <= 1e-8
        assert lhs < 1.0

    def test_dense_limit_enforced(self, monkeypatch):
        prob = poisson_setup(3, 3)  # 512 fine interior + 8 coarse = 520 unknowns
        assert MAX_AUGMENTED_DIM == 500

        def never(self):
            raise AssertionError("build_augmented densified before checking the dimension")

        monkeypatch.setattr(CsrMatrix, "to_dense", never)
        with pytest.raises(ValueError, match="augmented dimension 520 exceeds MAX_AUGMENTED_DIM"):
            build_augmented(prob.system.A, prob.prolongation_int)

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
        M = TwoLevelPreconditioner(A, P, coarse="exact", presmooth=False)
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
        M = TwoLevelPreconditioner(A, P, coarse="exact", presmooth=False)
        S = build_augmented(A, P)
        lhs, _ = rate_identity_oracle(S)
        est = contraction_factor_estimate(M, A, iters=500, seed=12)
        assert est.value == pytest.approx(np.sqrt(lhs), abs=1e-4)
