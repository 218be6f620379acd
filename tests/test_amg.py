import numpy as np
import pytest
import scipy.sparse.linalg

from auxmg.amg import (
    MAX_DENSE_ROWS,
    AmgHierarchy,
    CoarseLevelTooLargeError,
    VCyclePreconditioner,
    _Level,
    build_hierarchy,
    direct_interpolation,
    operator_complexity,
    rs_coarsen,
    strength_graph,
)
from auxmg.csr import CsrMatrix, GaussSeidel, cholesky_factor, cholesky_solve, spmv
from auxmg.fem import assemble_operator, eliminate_dirichlet, build_space
from auxmg.mesh import build_cube_mesh
from auxmg.problems import poisson_setup
from tests.test_csr import dense_sym_eigen
from tests.test_twolevel import assert_pair


def laplace_1d(n):
    main = 2.0 * np.ones(n)
    rows, cols, vals = [], [], []
    for i in range(n):
        rows.append(i); cols.append(i); vals.append(main[i])
        if i > 0:
            rows.append(i); cols.append(i - 1); vals.append(-1.0)
        if i < n - 1:
            rows.append(i); cols.append(i + 1); vals.append(-1.0)
    return CsrMatrix.from_coo(n, n, rows, cols, vals)


def strong_row(S, i):
    """The columns row i strongly depends on."""
    return S.col_idx[S.row_ptr[i]:S.row_ptr[i + 1]].tolist()


class TestStrengthGraph:
    def test_threshold_row(self):
        A = CsrMatrix.from_dense([[2.0, -1.0, -0.2, -0.8],
                                  [-1.0, 2.0, 0.0, 0.0],
                                  [-0.2, 0.0, 2.0, 0.0],
                                  [-0.8, 0.0, 0.0, 2.0]])
        S = strength_graph(A, 0.25)
        assert strong_row(S, 0) == [1, 3]

    def test_positive_offdiagonals_never_strong(self):
        A = CsrMatrix.from_dense([[2.0, 1.0, 0.5], [1.0, 2.0, 0.1], [0.5, 0.1, 2.0]])
        S = strength_graph(A, 0.25)
        assert S.col_idx.size == 0 and not S.row_ptr.any()

    def test_high_threshold(self):
        A = CsrMatrix.from_dense([[2.0, -1.0, -0.2, -0.8],
                                  [-1.0, 2.0, 0.0, 0.0],
                                  [-0.2, 0.0, 2.0, 0.0],
                                  [-0.8, 0.0, 0.0, 2.0]])
        S = strength_graph(A, 0.9)
        assert strong_row(S, 0) == [1]

    def test_ties_are_not_strong(self):
        # -a_ij == theta * max exactly: strict inequality excludes it
        A = CsrMatrix.from_dense([[2.0, -1.0, -0.5], [-1.0, 2.0, 0.0], [-0.5, 0.0, 2.0]])
        S = strength_graph(A, 0.5)
        assert strong_row(S, 0) == [1]

    def test_values_are_the_strong_entries_of_a(self):
        A = poisson_setup(2, 2, perturb_seed=1).system.A
        S = strength_graph(A, 0.25)
        rows = np.repeat(np.arange(S.nrows), np.diff(S.row_ptr))
        assert S.nnz > 0
        assert np.array_equal(S.values, A.to_dense()[rows, S.col_idx])
        assert np.all(S.values < 0.0)

    def test_theta_range_validated(self):
        A = laplace_1d(3)
        with pytest.raises(ValueError):
            strength_graph(A, 0.0)
        with pytest.raises(ValueError):
            strength_graph(A, 1.0)

    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match="^strength graph needs a square matrix$"):
            strength_graph(CsrMatrix.from_dense(np.ones((2, 3))), 0.25)


class TestCoarsening:
    def test_empty_graph_all_coarse(self):
        S = strength_graph(CsrMatrix.identity(5), 0.25)
        c, f, idx = rs_coarsen(S)
        assert np.array_equal(c, np.arange(5))
        assert len(f) == 0

    def test_laplace_1d_alternating(self):
        S = strength_graph(laplace_1d(5), 0.25)
        c, f, _ = rs_coarsen(S)
        assert c.tolist() == [0, 2, 4]
        assert f.tolist() == [1, 3]

    def test_fully_connected_single_c(self):
        A = CsrMatrix.from_dense(2 * np.eye(3) - (np.ones((3, 3)) - np.eye(3)))
        S = strength_graph(A, 0.25)
        c, f, _ = rs_coarsen(S)
        assert c.tolist() == [0]
        assert f.tolist() == [1, 2]

    def test_every_f_point_has_strong_c_neighbour(self):
        prob = poisson_setup(2, 2)
        S = strength_graph(prob.system.A, 0.25)
        c, f, idx = rs_coarsen(S)
        for i in f:
            assert np.any(idx[strong_row(S, i)] >= 0)


class TestInterpolation:
    def test_c_rows_are_injection(self):
        A = laplace_1d(5)
        S = strength_graph(A, 0.25)
        part = rs_coarsen(S)
        P = direct_interpolation(A, S, part).to_dense()
        for i, ci in zip(part[0], range(len(part[0]))):
            assert P[i, ci] == 1.0
            assert np.count_nonzero(P[i]) == 1

    def test_f_point_between_two_c_points(self):
        A = laplace_1d(5)
        S = strength_graph(A, 0.25)
        P = direct_interpolation(A, S, rs_coarsen(S)).to_dense()
        assert np.allclose(P[1], [0.5, 0.5, 0.0])
        assert np.allclose(P[3], [0.0, 0.5, 0.5])

    def test_single_strong_neighbour_weight_one(self):
        # zero row sum and one strong C-neighbour carrying all the
        # negative mass: the direct formula collapses to weight 1
        A = CsrMatrix.from_dense([[2.0, -2.0], [-2.0, 2.0]])
        S = strength_graph(A, 0.25)
        part = rs_coarsen(S)
        P = direct_interpolation(A, S, part).to_dense()
        assert part[0].tolist() == [0]
        assert P[1, 0] == pytest.approx(1.0)

    def test_orphan_f_point_rejected(self):
        # a hand-built bad partition: F-point whose strong neighbours
        # are all F must be flagged as a coarsening bug
        A = laplace_1d(3)
        S = strength_graph(A, 0.25)
        c_points = np.array([0])
        f_points = np.array([1, 2])
        coarse_index = np.array([0, -1, -1])
        with pytest.raises(ValueError, match="F-point 2"):
            direct_interpolation(A, S, (c_points, f_points, coarse_index))

    def test_f_rows_sum_below_one_for_m_matrix(self):
        prob = poisson_setup(2, 1)
        A = prob.system.A
        S = strength_graph(A, 0.25)
        P = direct_interpolation(A, S, rs_coarsen(S))
        sums = spmv(P, np.ones(P.ncols))
        assert np.max(sums) <= 1.0 + 1e-12


class TestHierarchy:
    def test_identity_single_level(self):
        H = build_hierarchy(CsrMatrix.identity(10), coarse_size=4)
        assert len(H.levels) == 1
        r = np.arange(10, dtype=float)
        assert np.allclose(VCyclePreconditioner(H).apply(r), r, atol=1e-12)

    def test_laplace_1d_levels(self):
        H = build_hierarchy(laplace_1d(9), theta=0.25, coarse_size=2)
        assert len(H.levels) >= 2
        assert H.levels[1].A.nrows == 5

    def test_galerkin_relation_holds(self):
        prob = poisson_setup(4, 1)
        H = build_hierarchy(prob.system.A, theta=0.25, coarse_size=8)
        assert len(H.levels) >= 2
        for l in range(len(H.levels) - 1):
            A_l, P_l = H.levels[l].A, H.levels[l].P
            recomputed = P_l.transpose().to_scipy() @ A_l.to_scipy() @ P_l.to_scipy()
            diff = (recomputed - H.levels[l + 1].A.to_scipy()).toarray()
            assert np.max(np.abs(diff)) <= 1e-12 * max(1.0, np.max(np.abs(A_l.values)))

    def test_levels_stay_spd(self):
        prob = poisson_setup(2, 2)
        H = build_hierarchy(prob.system.A, theta=0.25, coarse_size=4)
        for lvl in H.levels:
            w, _ = dense_sym_eigen(lvl.A.to_dense())
            assert w[0] > 0

    def test_zero_diagonal_fails_at_setup(self):
        A = laplace_1d(9)
        values = A.values.copy()
        values[A.row_ptr[4] + 1] = 0.0  # a_44
        with pytest.raises(ValueError, match="row 4"):
            build_hierarchy(CsrMatrix(9, 9, A.row_ptr, A.col_idx, values), coarse_size=2)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_named_before_coarsening(self, bad):
        A = laplace_1d(9)
        values = A.values.copy()
        values[A.row_ptr[4]] = bad  # a_43
        with pytest.raises(ValueError, match=rf"^A has a non-finite entry at \(4, 3\): {bad}$"):
            build_hierarchy(CsrMatrix(9, 9, A.row_ptr, A.col_idx, values), coarse_size=2)

    @pytest.mark.parametrize("field, value", [("theta", 2.0), ("theta", 0.0), ("max_levels", 0)])
    def test_parameters_checked_before_any_work(self, field, value):
        # the non-finite entry shows that the parameter is checked first
        A = CsrMatrix.from_dense(np.array([[np.nan, 0.0], [0.0, 1.0]]))
        with pytest.raises(ValueError, match=f"^{field} must"):
            build_hierarchy(A, **{field: value})
        with pytest.raises(ValueError, match=f"^{field} must"):
            build_hierarchy(CsrMatrix.identity(10), **{field: value})

    def test_levels_hold_prepared_sweeps(self):
        H = build_hierarchy(poisson_setup(2, 2).system.A, theta=0.25, coarse_size=4)
        assert len(H.levels) >= 2
        for lvl in H.levels[:-1]:
            assert isinstance(lvl.smoother, GaussSeidel)
            # each split product would hold 36% of A's entries on P4 n=8,
            # so a step takes half passes over A instead
            assert lvl.PtS is None and lvl.SP is None
            others = [v for k, v in vars(lvl).items() if k not in ("A", "P", "PtS", "SP")]
            assert all(isinstance(v, GaussSeidel) for v in others) and len(others) == 1
        # the dense factor solves the coarsest level, so it prepares no sweeps
        coarsest = H.levels[-1]
        assert coarsest.P is None and coarsest.smoother is None

    def test_one_level_hierarchy_is_the_dense_solve(self):
        A = laplace_1d(100)  # larger than the default coarse size
        H = build_hierarchy(A, max_levels=1)
        assert len(H.levels) == 1
        r = np.random.default_rng(5).standard_normal(100)
        assert np.array_equal(VCyclePreconditioner(H).apply(r), cholesky_solve(cholesky_factor(A.to_dense()), r))

    def test_stagnation_guard(self):
        # no negative couplings: all points stay coarse, single level
        H = build_hierarchy(CsrMatrix.from_dense(np.diag(np.arange(1.0, 80.0))), coarse_size=4)
        assert len(H.levels) == 1

    def test_stalled_coarsening_above_the_dense_cap_fails_fast(self):
        # a diagonal matrix does not coarsen; factoring it densely would
        # take 8 n^2 bytes
        n = MAX_DENSE_ROWS + 1
        A = CsrMatrix(n, n, np.arange(n + 1), np.arange(n), np.arange(1.0, n + 1.0))
        with pytest.raises(CoarseLevelTooLargeError, match=f"level 0 with n = {n}, above the {MAX_DENSE_ROWS}-row cap"):
            build_hierarchy(A)

    def test_one_level_hierarchy_above_the_dense_cap_fails_fast(self):
        with pytest.raises(CoarseLevelTooLargeError, match="max_levels = 1"):
            build_hierarchy(laplace_1d(MAX_DENSE_ROWS + 1), max_levels=1)


class TestVCycle:
    def test_zero_residual(self):
        H = build_hierarchy(laplace_1d(9), coarse_size=2)
        assert np.array_equal(VCyclePreconditioner(H).apply(np.zeros(9)), np.zeros(9))

    def test_single_level_is_exact_solve(self):
        A = laplace_1d(20)
        H = build_hierarchy(A, coarse_size=64)
        assert len(H.levels) == 1
        rng = np.random.default_rng(0)
        r = rng.standard_normal(20)
        x = VCyclePreconditioner(H).apply(r)
        assert np.linalg.norm(spmv(A, x) - r) <= 1e-10 * np.linalg.norm(r)

    def test_linearity(self):
        prob = poisson_setup(2, 1)
        H = build_hierarchy(prob.system.A, coarse_size=4)
        rng = np.random.default_rng(1)
        x, y = rng.standard_normal(H.levels[0].A.nrows), rng.standard_normal(H.levels[0].A.nrows)
        lhs = VCyclePreconditioner(H).apply(2.0 * x - 3.0 * y)
        rhs = 2.0 * VCyclePreconditioner(H).apply(x) - 3.0 * VCyclePreconditioner(H).apply(y)
        assert np.max(np.abs(lhs - rhs)) <= 1e-12 * max(1.0, np.max(np.abs(lhs)))

    def test_symmetry(self):
        prob = poisson_setup(3, 1)
        H = build_hierarchy(prob.system.A, coarse_size=8)
        rng = np.random.default_rng(2)
        n = H.levels[0].A.nrows
        for _ in range(3):
            x, y = rng.standard_normal(n), rng.standard_normal(n)
            lhs, rhs = x @ VCyclePreconditioner(H).apply(y), y @ VCyclePreconditioner(H).apply(x)
            assert abs(lhs - rhs) <= 1e-11 * max(1.0, abs(lhs))

    def test_preconditioner_spd(self):
        prob = poisson_setup(2, 2)  # 27 unknowns
        A = prob.system.A
        H = build_hierarchy(A, coarse_size=4)
        n = A.nrows
        V = np.column_stack([VCyclePreconditioner(H).apply(e) for e in np.eye(n)])
        w, _ = dense_sym_eigen(0.5 * (V + V.T))
        assert w[0] > 0

    def test_cg_mesh_independence(self):
        # V-cycle-preconditioned CG on P1 Poisson; counts must not grow
        # by more than 3 across three refinements
        counts = []
        for n in (2, 3, 4):
            prob = poisson_setup(n, 1)
            A = prob.system.A
            H = build_hierarchy(A, theta=0.25, coarse_size=8)
            M = scipy.sparse.linalg.LinearOperator(A.shape, matvec=lambda r, H=H: VCyclePreconditioner(H).apply(r))
            rng = np.random.default_rng(3)
            b = rng.standard_normal(A.nrows)
            it = 0

            def cb(xk):
                nonlocal it
                it += 1

            x, info = scipy.sparse.linalg.cg(A.to_scipy(), b, rtol=1e-6, atol=0.0, M=M, callback=cb)
            assert info == 0
            counts.append(it)
        assert max(counts) - min(counts) <= 3


class TestOperatorComplexity:
    def test_single_level(self):
        H = build_hierarchy(CsrMatrix.identity(10))
        assert operator_complexity(H) == 1.0

    def test_definition(self):
        lvl1 = _Level(CsrMatrix.identity(100))
        lvl2 = _Level(CsrMatrix.identity(30))
        H = AmgHierarchy([lvl1, lvl2], cholesky_factor(np.eye(30)), 0.25)
        assert operator_complexity(H) == pytest.approx(1.3)

    def test_summary_fields(self):
        H = build_hierarchy(laplace_1d(9), coarse_size=2)
        s = H.summary()
        assert s["levels"][0]["n"] == 9
        assert s["operator_complexity"] == operator_complexity(H)

    def test_summary_coarsening_ratios_and_grid_complexity(self):
        H = build_hierarchy(laplace_1d(9), coarse_size=2)
        assert [lvl.A.nrows for lvl in H.levels] == [9, 5, 3, 2]
        s = H.summary()
        assert [lvl["coarsening_ratio"] for lvl in s["levels"]] == [5 / 9, 3 / 5, 2 / 3, None]
        assert s["grid_complexity"] == 19 / 9

    def test_single_level_summary(self):
        s = build_hierarchy(CsrMatrix.identity(10)).summary()
        assert s["levels"] == [{"n": 10, "nnz": 10, "coarsening_ratio": None}]
        assert s["grid_complexity"] == s["operator_complexity"] == 1.0

    def test_empty_finest_level(self):
        # both complexities read 1.0, as a two-level method with no coarse
        # unknowns reports; neither divides by zero
        H = build_hierarchy(CsrMatrix(0, 0, [0], [], []))
        assert operator_complexity(H) == 1.0
        s = H.summary()
        assert s["levels"] == [{"n": 0, "nnz": 0, "coarsening_ratio": None}]
        assert s["grid_complexity"] == s["operator_complexity"] == 1.0

    def test_summary_serialises_to_json(self):
        import json

        H = build_hierarchy(laplace_1d(9), coarse_size=2)
        back = json.loads(json.dumps(H.summary()))
        assert back["levels"][0]["nnz"] == H.levels[0].A.nnz


class TestVCyclePreconditioner:
    def test_complexity_and_levels_come_from_the_hierarchy(self):
        H = build_hierarchy(poisson_setup(2, 2).system.A, coarse_size=4)
        M = VCyclePreconditioner(H)
        assert M.operator_complexity() == operator_complexity(H)
        assert M.level_count() == len(H.levels) >= 2

    @pytest.mark.parametrize("k", [None, 3])
    @pytest.mark.parametrize("max_levels", [20, 1])
    def test_pair_is_the_cycle_and_its_product(self, max_levels, k):
        # the top level's last sweep gives A z; one level is the dense solve
        A = poisson_setup(3, 3).system.A
        H = build_hierarchy(A, theta=0.25, max_levels=max_levels)
        assert len(H.levels) >= 3 if max_levels > 1 else len(H.levels) == 1
        M = VCyclePreconditioner(H)
        assert M.A is A
        r = np.random.default_rng(50).standard_normal(A.nrows if k is None else (A.nrows, k))
        assert_pair(M.apply_with_product, M, A, r)
