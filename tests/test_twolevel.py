import itertools
from functools import partial
from types import SimpleNamespace

import numpy as np
import pytest

from auxmg import amg, csr, krylov, twolevel
from auxmg.amg import AmgHierarchy, VCyclePreconditioner, _Level, build_hierarchy
from auxmg.csr import CsrMatrix, GaussSeidel, cholesky_factor, cholesky_solve, spmv, triple_product
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

    def test_transpose_is_adjoint(self, p2_to_p4):
        A, P, M = two_level(2, 2, coarse="exact", presmooth=False)
        rng = np.random.default_rng(3)
        for _ in range(4):
            x, y = rng.standard_normal(A.nrows), rng.standard_normal(A.nrows)
            assert x @ M.apply(y) == pytest.approx(y @ M.apply_transpose(x), rel=1e-11, abs=1e-13)
        # <s, M r> against <M^T s, r> on P2-P4, both coarse solves, vectors
        # and blocks: at most 6.6e-17 of |s| |M r| measured
        for (A, P), coarse, k in itertools.product(p2_to_p4, ("amg", "exact"), (None, 3)):
            M = TwoLevelPreconditioner(A, P, coarse=coarse, presmooth=False)
            r, s = _residual((A.nrows, k), 53), _residual((A.nrows, k), 54)
            z = M.apply(r)
            assert abs(np.vdot(s, z) - np.vdot(M.apply_transpose(s), r)) <= 1e-14 * np.linalg.norm(s) * np.linalg.norm(z)

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
        for presmooth in (True, False):
            A, P, M = two_level(2, 2, presmooth=presmooth)
            top = M.top
            assert isinstance(top.smoother, GaussSeidel)
            # the extra stored matrices are the smoother's split products for
            # the form: P^T U D^{-1} and L P, or P^T L D^{-1} and U P
            stored = [*vars(M).values(), *vars(top).values()]
            assert not any(isinstance(v, CsrMatrix) and v not in (M.A, M.P, top.PtS, top.SP) for v in stored)
            for got, ref in zip((top.PtS, top.SP), GaussSeidel(A).coarse_products(P, presmooth)):
                assert np.array_equal(got.to_dense(), ref.to_dense())

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
        monkeypatch.setattr(csr.GaussSeidel, "coarse_products", no_setup)
        with pytest.raises(ValueError, match="^A needs a nonzero finite diagonal: row 5 has 0.0$"):
            TwoLevelPreconditioner(A, P)

    def test_unknown_coarse_solver_rejected_before_setup(self, monkeypatch):
        A, P, _ = two_level(2, 2, coarse="exact")

        def no_setup(*args):
            raise AssertionError("P^T A P formed for an unknown coarse solver")

        monkeypatch.setattr(twolevel, "triple_product", no_setup)
        with pytest.raises(ValueError, match="^unknown coarse solver 'bogus'$"):
            TwoLevelPreconditioner(A, P, coarse="bogus")

    @pytest.mark.parametrize("presmooth", ["no", 1, 0, None, np.array([True])])
    def test_non_bool_presmooth_rejected_before_setup(self, monkeypatch, presmooth):
        A, P, _ = two_level(2, 2, coarse="exact")

        def no_setup(*args):
            raise AssertionError(f"a product formed for presmooth = {presmooth!r}")

        monkeypatch.setattr(twolevel, "triple_product", no_setup)
        monkeypatch.setattr(csr.GaussSeidel, "coarse_products", no_setup)
        with pytest.raises(ValueError, match=r"^presmooth must be a bool, got "):
            TwoLevelPreconditioner(A, P, presmooth=presmooth)

    def test_numpy_bool_presmooth_accepted(self):
        A, P, _ = two_level(2, 2, coarse="exact", presmooth=False)
        r = np.arange(A.nrows, dtype=np.float64)
        for presmooth in (np.False_, np.True_):
            got = TwoLevelPreconditioner(A, P, coarse="exact", presmooth=presmooth).apply(r)
            want = TwoLevelPreconditioner(A, P, coarse="exact", presmooth=bool(presmooth)).apply(r)
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("coarse", ["amg", "exact"])
    @pytest.mark.parametrize("theta", [0.0, 1.0, 1.5, np.nan])
    def test_invalid_theta_rejected_before_setup(self, monkeypatch, theta, coarse):
        A, P, _ = two_level(2, 2, coarse="exact")

        def no_setup(*args):
            raise AssertionError(f"a product formed for theta = {theta}")

        monkeypatch.setattr(twolevel, "triple_product", no_setup)
        monkeypatch.setattr(csr.GaussSeidel, "coarse_products", no_setup)
        with pytest.raises(ValueError, match=rf"^theta must lie in \(0,1\), got {theta}$"):
            TwoLevelPreconditioner(A, P, coarse=coarse, theta=theta)

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


@pytest.fixture(scope="module")
def p2_to_p4(p2_n6):
    """(A, P) of P2 n=6, P3 n=3 and P4 n=2."""
    return [p2_n6] + [(prob.system.A, prob.prolongation_int) for prob in (poisson_setup(3, 3), poisson_setup(2, 4))]


def _composed(A, P, coarse_solve, r, presmooth, transpose=False):
    """The step written out in the split form, from a fresh smoother and
    its split products: (D + U) z = D x0 - L P e after a forward sweep
    x0 = D^{-1} y and e = coarse_solve(-P^T U x0); (D + L) z = r - U P e
    for e = coarse_solve(P^T r) in the plain form; and x0 + P e after a
    backward sweep for its adjoint."""
    gs = GaussSeidel(A)
    PtS, SP = gs.coarse_products(P, presmooth)
    if transpose:
        y = gs.substitute(r, False)
        return spmv(P, coarse_solve(-spmv(PtS, y)), out=gs.scale(y))
    if presmooth:
        y = gs.substitute(r, True)
        b = spmv(SP, -coarse_solve(-spmv(PtS, y)), out=y)
    else:
        b = spmv(SP, -coarse_solve(spmv(P.transpose(), r)), out=r.copy())
    return gs.scale(gs.substitute(b, not presmooth))


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
            assert len(H.levels) >= 2
            coarse_solve = lambda r_H: VCyclePreconditioner(H).apply(r_H)  # noqa: E731
        else:
            L_H = cholesky_factor(A_H.to_dense())
            coarse_solve = lambda r_H: cholesky_solve(L_H, r_H)  # noqa: E731
        rng = np.random.default_rng(40)
        for _ in range(2):
            r = rng.standard_normal(A.nrows)
            ref = ref_t = _composed(A, P, coarse_solve, r, presmooth)
            if not presmooth:
                ref_t = _composed(A, P, coarse_solve, r, presmooth, transpose=True)
            assert np.array_equal(M.apply(r), ref)
            assert np.array_equal(M.apply_transpose(r), ref_t)

    def test_gamg_is_the_top_level_of_a_vcycle(self, p2_n6):
        # GAMG equals a V-cycle over [(A, P)], which prepares the split
        # products, followed by the AMG levels of A_H
        A, P = p2_n6
        M = TwoLevelPreconditioner(A, P, coarse="amg", presmooth=True)
        top = _Level(A, P, presmooth=True)
        H = AmgHierarchy([top] + M.hierarchy.levels, M.hierarchy.coarsest_factor, M.hierarchy.theta)
        r = np.random.default_rng(41).standard_normal(A.nrows)
        assert np.array_equal(M.apply(r), VCyclePreconditioner(H).apply(r))
        # the pair (z, A z) is the cycle's with_product pair, on a vector
        # and on an (n, 3) block, and both count the same levels
        for r in (r, np.random.default_rng(42).standard_normal((A.nrows, 3))):
            for got, ref in zip(M.apply_with_product(r), amg._vcycle(H, 0, r, with_product=True)):
                assert np.array_equal(got, ref)
        V = VCyclePreconditioner(H)
        assert M.operator_complexity() == V.operator_complexity()
        assert M.level_count() == V.level_count() == len(H.levels)

    def test_empty_coarse_hierarchy_summary(self):
        # an n = 1 mesh has no interior P1 vertex, so the coarse hierarchy
        # holds one empty level
        _, _, M = two_level(1, 2)
        s = M.hierarchy.summary()
        assert s["levels"] == [{"n": 0, "nnz": 0, "coarsening_ratio": None}]
        assert s["grid_complexity"] == s["operator_complexity"] == 1.0

    @pytest.mark.parametrize("coarse", ["amg", "exact"])
    def test_no_coarse_dofs(self, coarse):
        A, P, M = two_level(1, 2, coarse=coarse)
        assert P.ncols == 0
        assert M.level_count() == 1
        assert M.operator_complexity() == 1.0
        r = np.random.default_rng(42).standard_normal(A.nrows)
        assert np.array_equal(M.apply(r), _composed(A, P, M.coarse_solve, r, True))


# the split step and the written-out one sum the same terms in different
# orders, so they differ by a few ulps of the result's largest entry (at
# most 1.7e-15 of it measured on P2 n=4 and 6, P3 n=3 and 4 and P4 n=2,
# every form and coarse mode, vectors and blocks)
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
    def test_two_level_matches_unfused(self, p2_to_p4, coarse, form, k):
        for A, P in p2_to_p4:
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
        assert len(H.levels) >= 3

        def unfused_cycle(level, r):
            if level == len(H.levels) - 1:
                return cholesky_solve(H.coarsest_factor, r)
            lvl = H.levels[level]
            return _unfused(lvl.A, lvl.P, partial(unfused_cycle, level + 1), r, lvl.smoother.forward,
                            lvl.smoother.backward)

        r = _residual((A.nrows, k), 45)
        assert_close(VCyclePreconditioner(H).apply(r), unfused_cycle(0, r))


# A z from the last sweep's right-hand side against spmv(A, z): at most
# 3.7e-15 of the product's largest entry, measured for every form and the
# V-cycle on the meshes of FUSED_RTOL, vectors and blocks, and 3.9e-15 on
# a P4 n=8 vector
PRODUCT_RTOL = 1e-13


def assert_pair(pair, action, A, r):
    """``pair(r)`` gives ``action(r)`` bit for bit and A times it."""
    z, Az = pair(r)
    assert np.array_equal(z, action(r))
    ref = spmv(A, z)
    assert Az.shape == ref.shape
    assert np.max(np.abs(Az - ref)) <= PRODUCT_RTOL * np.max(np.abs(ref))


class TestApplyWithProduct:
    @pytest.mark.parametrize("k", [None, 3])
    @pytest.mark.parametrize("presmooth", [True, False])
    @pytest.mark.parametrize("coarse", ["amg", "exact"])
    def test_pair_is_the_action_and_its_product(self, p2_to_p4, coarse, presmooth, k):
        for A, P in p2_to_p4:
            M = TwoLevelPreconditioner(A, P, coarse=coarse, presmooth=presmooth)
            assert_pair(M.apply_with_product, M.apply, A, _residual((A.nrows, k), 48))

    @pytest.mark.parametrize("k", [None, 3])
    @pytest.mark.parametrize("presmooth", [True, False])
    def test_empty_coarse_space(self, presmooth, k):
        A, P, M = two_level(1, 3, coarse="exact", presmooth=presmooth)
        assert P.ncols == 0 and A.nrows > 1
        assert_pair(M.apply_with_product, M.apply, A, _residual((A.nrows, k), 49))


@pytest.fixture
def products(monkeypatch):
    """The matrices that spmv multiplies by, in call order."""
    seen = []
    real = csr.spmv

    def recording(A, x, out=None):
        seen.append(A)
        return real(A, x, out)

    for module in (csr, amg, twolevel, krylov):
        monkeypatch.setattr(module, "spmv", recording)
    return seen


def _count(seen, X):
    return sum(Y is X for Y in seen)


@pytest.fixture
def kernels(monkeypatch):
    """The arrays each ``gstrs`` substitution and each ``csr_matvec`` pass
    reads, in call order: the L slot's values, and the (row pointer,
    column indices, values) of the matrix or triangle."""
    seen = {"gstrs": [], "matvec": []}
    real_gstrs, real_matvec = csr._superlu.gstrs, csr._add_matvec

    def gstrs(trans, n, nnz_l, l_vals, *args):
        seen["gstrs"].append(l_vals)
        return real_gstrs(trans, n, nnz_l, l_vals, *args)

    def matvec(n, m, arrays, x, y):
        seen["matvec"].append(arrays)
        real_matvec(n, m, arrays, x, y)

    monkeypatch.setattr(csr, "_superlu", SimpleNamespace(gstrs=gstrs))
    monkeypatch.setattr(csr, "_add_matvec", matvec)
    return seen


def _sweep_kernels(seen, gs):
    """(substitutions, half products) that ran on the triangles of ``gs``."""
    subs = sum(v is gs._forward[0][2] or v is gs._backward[0][2] for v in seen["gstrs"])
    halves = sum(a is gs._forward[1] or a is gs._backward[0] for a in seen["matvec"])
    return subs, halves


class TestProductsPerStep:
    @pytest.mark.parametrize("action, presmooth", [("apply", True), ("apply", False), ("apply_transpose", False)])
    def test_two_level_action_never_multiplies_by_the_fine_operator(self, p2_n6, products, kernels, action,
                                                                    presmooth):
        # the top level multiplies by its split products (P^T r or P e in
        # place of one in the plain form and its adjoint) and substitutes
        # once per sweep, with no half pass over A unless the
        # pair (z, A z) is asked for; each AMG level of the coarse cycle
        # multiplies by P^T and P, substitutes twice and takes two half
        # passes over its A, and nothing multiplies by a level's A
        A, P = p2_n6
        M = TwoLevelPreconditioner(A, P, coarse="amg", presmooth=presmooth)
        top, coarse = M.top, M.hierarchy.levels[:-1]
        assert len(coarse) >= 1
        top_products = {("apply", True): [top.PtS, top.SP], ("apply", False): [P.transpose(), top.SP],
                        ("apply_transpose", False): [top.PtS, P]}[action, presmooth]
        top_subs = 2 if presmooth else 1
        for with_product in (False, True) if action == "apply" else (False,):
            products.clear()
            kernels["gstrs"].clear()
            kernels["matvec"].clear()
            (M.apply_with_product if with_product else getattr(M, action))(_residual((A.nrows, 3), 46))
            expected = top_products + [X for lvl in coarse for X in (lvl.P.transpose(), lvl.P)]
            assert not any(lvl.A in products for lvl in M.levels)
            assert sorted(map(id, products)) == sorted(map(id, expected))
            assert _sweep_kernels(kernels, top.smoother) == (top_subs, int(with_product))
            for lvl in coarse:
                assert _sweep_kernels(kernels, lvl.smoother) == (2, 2)
            assert len(kernels["gstrs"]) == top_subs + 2 * len(coarse)
            assert len(kernels["matvec"]) == len(products) + int(with_product) + 2 * len(coarse)

    def test_vcycle_level_never_multiplies_by_its_operator(self, products, kernels):
        H = build_hierarchy(poisson_setup(3, 3).system.A, theta=0.25)
        assert len(H.levels) >= 3
        VCyclePreconditioner(H).apply(_residual((H.levels[0].A.nrows, None), 47))
        for lvl in H.levels[:-1]:
            assert (_count(products, lvl.A), _count(products, lvl.P), _count(products, lvl.P.transpose())) == (0, 1, 1)
            assert _sweep_kernels(kernels, lvl.smoother) == (2, 2)
        assert len(products) == 2 * (len(H.levels) - 1)
        assert len(kernels["gstrs"]) == 2 * (len(H.levels) - 1)
        assert len(kernels["matvec"]) == 4 * (len(H.levels) - 1)

    # rel_tol=1e-30 is never met, so max_iters=7 stops each solve; with
    # restart=3 the cycles end after iterations 3, 6 and 7
    CAPPED = krylov.SolverConfig(rel_tol=1e-30, max_iters=7, restart=3)

    @pytest.mark.parametrize("presmooth", [True, False])
    def test_paired_fgmres_multiplies_by_the_fine_operator_for_true_residuals_only(self, products, presmooth):
        # r0 and the three cycle ends; the Arnoldi steps take A z from the sweep
        A, P, M = two_level(2, 3, presmooth=presmooth)
        x0 = _residual((A.nrows, None), 51)
        products.clear()
        _, rep = krylov.fgmres(A, M, np.zeros(A.nrows), self.CAPPED, x0=x0)
        assert rep.iterations == 7
        assert _count(products, A) == rep.operator_applies == 4
        assert rep.precond_applies == 7

    def test_plain_amg_fgmres_multiplies_by_the_fine_operator_for_true_residuals_only(self, products):
        # r0 and the three cycle ends; the V-cycle's first level gives A z
        A = poisson_setup(3, 3).system.A
        M = VCyclePreconditioner(build_hierarchy(A, theta=0.25))
        x0 = _residual((A.nrows, None), 52)
        products.clear()
        _, rep = krylov.fgmres(A, M, np.zeros(A.nrows), self.CAPPED, x0=x0)
        assert rep.iterations == 7
        assert _count(products, A) == rep.operator_applies == 4


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

        monkeypatch.setattr(csr.GaussSeidel, "substitute", boom)
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
