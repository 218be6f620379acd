import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import auxmg
from auxmg import csr
from auxmg.amg import build_hierarchy
from auxmg.csr import (
    CsrMatrix,
    GaussSeidel,
    NotPositiveDefiniteError,
    cholesky_factor,
    cholesky_solve,
    matmat,
    read_matrix_market,
    spmv,
    triple_product,
    write_matrix_market,
)
from auxmg.fem import assemble_divergence, assemble_operator, build_space, eliminate_dirichlet
from auxmg.mesh import build_cube_mesh
from auxmg.transfer import build_prolongation


def dense_sym_eigen(M, tol=1e-12):
    """Eigendecomposition of a symmetric dense matrix.

    Returns (eigenvalues ascending, eigenvectors as columns).  Raises
    ValueError if M is not symmetric to ``tol`` (entrywise, relative).
    """
    M = np.asarray(M, dtype=np.float64)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError("expected a square matrix")
    asym = np.abs(M - M.T)
    if np.any(asym > tol * np.maximum(1.0, np.abs(M))):
        raise ValueError("matrix is not symmetric")
    w, V = np.linalg.eigh(M)
    return w, V


def random_csr(rng, nrows, ncols, density=0.5):
    dense = rng.standard_normal((nrows, ncols))
    dense[rng.random((nrows, ncols)) > density] = 0.0
    return CsrMatrix.from_dense(dense), dense


# (nrows, ncols, row_ptr, col_idx, values) that CsrMatrix must reject
MALFORMED = {
    "pointer_length": (2, 2, [0, 1], [0], [1.0]),
    "pointer_start": (2, 2, [1, 1, 2], [0, 1], [1.0, 2.0]),
    "short_end": (2, 2, [0, 1, 1], [0, 1], [1.0, 2.0]),
    "long_end": (2, 2, [0, 1, 3], [0, 1], [1.0, 2.0]),
    "decreasing_pointer": (2, 2, [0, 2, 1], [0, 1, 0], [1.0, 2.0, 3.0]),
    "length_mismatch": (1, 2, [0, 2], [0, 1], [1.0]),
    "negative_column": (1, 2, [0, 1], [-1], [1.0]),
    "column_past_ncols": (1, 2, [0, 1], [2], [1.0]),
    "unsorted_row": (1, 3, [0, 2], [2, 0], [1.0, 2.0]),
    "duplicate_column": (1, 3, [0, 2], [1, 1], [1.0, 2.0]),
    "negative_dimension": (-1, 2, [0], [], []),
    "empty_row_ptr": (0, 2, [], [], []),
}


class TestCsrInvariants:
    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_rejects_malformed(self, case):
        with pytest.raises(ValueError):
            CsrMatrix(*MALFORMED[case])

    def test_column_decrease_across_row_boundary_allowed(self):
        # strict ordering applies within rows only
        A = CsrMatrix(2, 3, [0, 1, 2], [2, 0], [1.0, 2.0])
        assert A.nnz == 2

    def test_zero_rows_allowed(self):
        A = CsrMatrix(0, 3, [0], [], [])
        assert A.shape == (0, 3) and A.nnz == 0

    def test_empty_rows_allowed(self):
        A = CsrMatrix(3, 3, [0, 0, 2, 2], [0, 1], [1.0, 2.0])
        assert A.to_dense()[1, 1] == 2.0

    def test_from_coo_sums_duplicates(self):
        A = CsrMatrix.from_coo(2, 2, [0, 0, 1], [1, 1, 0], [2.0, 3.0, 4.0])
        assert A.nnz == 2
        assert A.to_dense()[0, 1] == 5.0

    def test_structural_zeros_kept(self):
        A = CsrMatrix.from_coo(1, 2, [0], [1], [0.0])
        assert A.nnz == 1

    def test_symmetry_predicate(self):
        A = CsrMatrix.from_dense([[2.0, -1.0], [-1.0, 2.0]])
        assert A.is_symmetric()
        B = CsrMatrix.from_dense([[2.0, -1.0], [-0.5, 2.0]])
        assert not B.is_symmetric()


def _every_constructor():
    """One matrix from each way a CsrMatrix comes to be."""
    rng = np.random.default_rng(11)
    A, _ = random_csr(rng, 6, 6)
    P, _ = random_csr(rng, 6, 3, density=0.7)
    mesh = build_cube_mesh(1)
    p1, p2 = build_space(mesh, 1), build_space(mesh, 2)
    unsorted = scipy.sparse.csr_matrix((np.arange(1.0, 4.0), [2, 0, 1], [0, 2, 3]), shape=(2, 3))
    return {
        "init": CsrMatrix(2, 3, [0, 1, 2], [2, 0], [1.0, 2.0]),
        "from_coo": CsrMatrix.from_coo(3, 4, [2, 0, 2], [1, 3, 1], [1.0, 2.0, 3.0]),
        "from_dense": A,
        "from_scipy": CsrMatrix.from_scipy(unsorted),
        "identity": CsrMatrix.identity(4),
        "transpose": A.transpose(),
        "tril": A.tril(),
        "submatrix": A.submatrix([0, 2, 4], [5, 1, 3]),
        "triple_product": triple_product(P.transpose(), A, P),
        "assemble_operator": assemble_operator(p2, "stiffness"),
        "divergence": assemble_divergence(p2, p1)[2],
        "prolongation": build_prolongation(p2, p1).prolongation,
    }


class TestIndexStorage:
    @pytest.mark.parametrize("name", sorted(_every_constructor()))
    def test_indices_are_the_scipy_arrays(self, name):
        A = _every_constructor()[name]
        S = A.to_scipy()
        assert S is A.to_scipy()
        assert np.shares_memory(S.indptr, A.row_ptr) and np.shares_memory(S.indices, A.col_idx)
        assert np.shares_memory(S.data, A.values)
        assert A.row_ptr.dtype == A.col_idx.dtype == np.int32
        assert not any(a.flags.writeable for a in (A.row_ptr, A.col_idx, A.values))

    def test_from_scipy_leaves_the_callers_matrix_alone(self):
        S = scipy.sparse.csr_matrix((np.arange(1.0, 4.0), [2, 0, 1], [0, 2, 3]), shape=(2, 3))
        A = CsrMatrix.from_scipy(S)
        assert S.indices.tolist() == [2, 0, 1]
        assert all(a.flags.writeable for a in (S.indptr, S.indices, S.data))
        assert A.col_idx.tolist() == [0, 2, 1] and A.values.tolist() == [2.0, 1.0, 3.0]

    def test_wide_shape_keeps_int64_indices(self):
        ncols = 3_000_000_000
        A = CsrMatrix.from_coo(2, ncols, [1, 0, 1, 1], [ncols - 1, 7, 5, ncols - 1], [1.0, 2.0, 3.0, 4.0])
        assert A.row_ptr.dtype == A.col_idx.dtype == np.int64
        assert np.shares_memory(A.to_scipy().indices, A.col_idx)
        assert A.row_ptr.tolist() == [0, 1, 3]
        assert A.col_idx.tolist() == [7, 5, ncols - 1]
        assert A.values.tolist() == [2.0, 3.0, 5.0]


class TestTranspose:
    def test_cached(self):
        A, _ = random_csr(np.random.default_rng(4), 5, 7)
        assert A.transpose() is A.transpose()

    def test_matches_scipy(self):
        A, dense = random_csr(np.random.default_rng(5), 6, 4)
        T = A.transpose()
        assert T.shape == (4, 6)
        assert (T.to_scipy() != A.to_scipy().T).nnz == 0
        assert np.array_equal(T.to_dense(), dense.T)


class TestDiagonal:
    def test_cached_read_only(self):
        A, dense = random_csr(np.random.default_rng(6), 5, 5)
        assert A.diagonal() is A.diagonal()
        assert not A.diagonal().flags.writeable
        assert np.array_equal(A.diagonal(), np.diag(dense))


class TestSpmv:
    def test_identity(self):
        A = CsrMatrix.identity(3)
        assert np.array_equal(spmv(A, [1.0, 2.0, 3.0]), [1.0, 2.0, 3.0])

    def test_row_sums(self):
        A = CsrMatrix.from_dense([[2.0, -1.0], [-1.0, 2.0]])
        assert np.array_equal(spmv(A, [1.0, 1.0]), [1.0, 1.0])

    def test_against_dense_oracle(self):
        rng = np.random.default_rng(42)
        A, dense = random_csr(rng, 5, 5)
        x = rng.standard_normal(5)
        assert np.max(np.abs(spmv(A, x) - dense @ x)) <= 1e-14

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            spmv(CsrMatrix.identity(3), [1.0, 2.0])

    def test_linearity(self):
        rng = np.random.default_rng(7)
        A, _ = random_csr(rng, 8, 8)
        x, y = rng.standard_normal(8), rng.standard_normal(8)
        a, b = 0.37, -1.91
        lhs = spmv(A, a * x + b * y)
        rhs = a * spmv(A, x) + b * spmv(A, y)
        scale = max(1.0, np.max(np.abs(lhs)))
        assert np.max(np.abs(lhs - rhs)) <= 1e-13 * scale

    @pytest.mark.parametrize("k", [None, 3])
    def test_out_accumulates_in_place(self, k):
        # small integers keep every sum exact, so y + A x is the reference
        rng = np.random.default_rng(8)
        dense = rng.integers(-3, 4, (6, 5)).astype(float)
        A = CsrMatrix.from_dense(dense)
        shape = (5,) if k is None else (5, k)
        x = rng.integers(-3, 4, shape).astype(float)
        y = np.asfortranarray(rng.integers(-3, 4, (6,) + shape[1:]).astype(float))
        ref = y + dense @ x
        out = spmv(A, x, out=y)
        assert out is y and np.array_equal(y, ref)

    def test_out_of_the_wrong_shape_or_layout_rejected(self):
        A = CsrMatrix.identity(3)
        for out in (np.zeros(4), np.zeros((3, 2)), np.zeros(3, dtype=np.float32), np.zeros((3, 2), order="C")):
            with pytest.raises(ValueError, match="^out must be"):
                spmv(A, np.ones((3, 2)) if out.ndim == 2 else np.ones(3), out=out)


class TestMatmat:
    def test_against_dense_oracle(self):
        rng = np.random.default_rng(5)
        A, dA = random_csr(rng, 6, 5)
        B, dB = random_csr(rng, 5, 3, density=0.6)
        C = matmat(A, B)
        assert C.shape == (6, 3)
        assert np.max(np.abs(C.to_dense() - dA @ dB)) <= 1e-14

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            matmat(CsrMatrix.identity(3), CsrMatrix.identity(4))


class TestTripleProduct:
    def test_identity_sandwich(self):
        rng = np.random.default_rng(1)
        A, dense = random_csr(rng, 4, 4)
        I = CsrMatrix.identity(4)
        B = triple_product(I, A, I)
        assert np.array_equal(B.to_dense(), A.to_dense())

    def test_selection_vector(self):
        rng = np.random.default_rng(2)
        A, dense = random_csr(rng, 4, 4, density=1.0)
        e1 = CsrMatrix.from_coo(4, 1, [0], [0], [1.0])
        B = triple_product(e1.transpose(), A, e1)
        assert B.shape == (1, 1)
        assert B.to_dense()[0, 0] == dense[0, 0]

    def test_against_dense_oracle(self):
        rng = np.random.default_rng(3)
        A, dA = random_csr(rng, 6, 6)
        P, dP = random_csr(rng, 6, 3, density=0.7)
        B = triple_product(P.transpose(), A, P)
        assert np.max(np.abs(B.to_dense() - dP.T @ dA @ dP)) <= 1e-13

    def test_galerkin_preserves_symmetry(self):
        rng = np.random.default_rng(4)
        M = rng.standard_normal((7, 7))
        A = CsrMatrix.from_dense(M + M.T)
        P, _ = random_csr(rng, 7, 3, density=0.6)
        assert triple_product(P.transpose(), A, P).is_symmetric()

    def test_dimension_mismatch(self):
        A = CsrMatrix.identity(3)
        P = CsrMatrix.identity(4)
        with pytest.raises(ValueError, match=r"^dimension mismatch: R is \(4, 4\), A is \(3, 3\)$"):
            triple_product(P, A, P)
        with pytest.raises(ValueError, match=r"^dimension mismatch: A is \(3, 3\), P is \(4, 4\)$"):
            triple_product(A, A, P)


def p4_stiffness_n2():
    mesh = build_cube_mesh(2)
    space = build_space(mesh, 4)
    return eliminate_dirichlet(assemble_operator(space, "stiffness"), np.zeros(space.n_dofs), space).A


@st.composite
def diagonally_dominant(draw):
    n = draw(st.integers(1, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dense = rng.standard_normal((n, n))
    dense[rng.random((n, n)) > draw(st.floats(0.0, 1.0))] = 0.0
    np.fill_diagonal(dense, 0.0)
    sign = rng.choice([-1.0, 1.0], size=n)
    np.fill_diagonal(dense, sign * (np.abs(dense).sum(axis=1) + rng.uniform(0.5, 2.0, size=n)))
    return dense, rng.standard_normal(n)


class TestGaussSeidel:
    @pytest.mark.parametrize("level", [0, 1])
    def test_bit_identical_to_spsolve_triangular(self, level):
        A = build_hierarchy(p4_stiffness_n2()).levels[level].A
        S = A.to_scipy()
        b = np.random.default_rng(level).standard_normal(A.nrows)
        fwd = scipy.sparse.linalg.spsolve_triangular(scipy.sparse.tril(S, format="csr"), b, lower=True)
        bwd = scipy.sparse.linalg.spsolve_triangular(scipy.sparse.triu(S, format="csr"), b, lower=False)
        assert np.array_equal(GaussSeidel(A).forward(b), fwd)
        assert np.array_equal(GaussSeidel(A).backward(b), bwd)

    @settings(max_examples=60, deadline=None)
    @given(diagonally_dominant())
    def test_matches_dense_triangular_solve(self, case):
        dense, b = case
        A = CsrMatrix.from_dense(dense)
        for direction, tri in (("forward", np.tril), ("backward", np.triu)):
            x = getattr(GaussSeidel(A), direction)(b)
            ref = np.linalg.solve(tri(dense), b)
            assert np.allclose(x, ref, rtol=1e-12, atol=1e-12 * np.abs(ref).max())

    @pytest.mark.parametrize("level", [0, 1])
    @pytest.mark.parametrize("k", [None, 3])
    def test_sweep_returns_the_call_and_its_residual(self, level, k):
        # x is the plain sweep bit for bit; d sums U x (or L x) where the
        # written-out A x - b cancels (D + L) x against b, so the two
        # agree to a few ulps of b (at most 7e-16 of max |b| measured on P2-P4 meshes)
        A = build_hierarchy(p4_stiffness_n2()).levels[level].A
        rng = np.random.default_rng(level)
        b = rng.standard_normal(A.nrows if k is None else (A.nrows, k))
        gs = GaussSeidel(A)
        for direction in ("forward", "backward"):
            x, d = getattr(gs, direction + "_sweep")(b)
            assert np.array_equal(x, getattr(GaussSeidel(A), direction)(b))
            assert np.max(np.abs(d - (spmv(A, x) - b))) <= 1e-13 * np.max(np.abs(b))
            if k is not None:  # the block contract: each column is the vector call
                for j in range(k):
                    xj, dj = getattr(gs, direction + "_sweep")(b[:, j])
                    assert np.array_equal(x[:, j], xj) and np.array_equal(d[:, j], dj)

    @settings(max_examples=60, deadline=None)
    @given(diagonally_dominant())
    def test_sweep_residual_matches_dense_residual(self, case):
        dense, b = case
        gs = GaussSeidel(CsrMatrix.from_dense(dense))
        for sweep in (gs.forward_sweep, gs.backward_sweep):
            x, d = sweep(b)
            scale = (np.abs(dense) @ np.abs(x) + np.abs(b)).max()
            assert np.max(np.abs(d - (dense @ x - b))) <= 1e-13 * scale

    def test_one_object_shares_its_triangles(self, monkeypatch):
        # one object stores each triangle once: the forward residual runs
        # over the backward sweep's triangle and the backward residual over
        # the forward sweep's, the very arrays that gstrs substitutes with
        gs = GaussSeidel(p4_stiffness_n2())
        unit, lower = gs._forward
        upper, empty = gs._backward
        assert len(empty[2]) == 0 and np.array_equal(unit[2], np.ones(len(unit[2])))
        read = []
        real = csr._add_matvec

        def recording(n, m, arrays, x, y):
            read.append(arrays)
            real(n, m, arrays, x, y)

        monkeypatch.setattr(csr, "_add_matvec", recording)
        b = np.ones(len(unit[2]))
        gs.forward_sweep(b)
        gs.backward_sweep(b)
        assert read[0] is upper and read[1] is lower

    def test_call_and_sweep_leave_b_unchanged(self):
        A = p4_stiffness_n2()
        rng = np.random.default_rng(3)
        vector, block = rng.standard_normal(A.nrows), rng.standard_normal((A.nrows, 3))
        for b in (vector, np.asfortranarray(block), np.ascontiguousarray(block)):
            before = b.copy()
            gs = GaussSeidel(A)
            for sweep in (gs.forward, gs.backward, gs.forward_sweep, gs.backward_sweep):
                sweep(b)
                assert np.array_equal(b, before)

    def test_leaves_right_hand_side_alone(self):
        A = CsrMatrix.from_dense([[2.0, -1.0], [-1.0, 2.0]])
        b = np.array([1.0, 1.0])
        GaussSeidel(A).forward(b)
        assert np.array_equal(b, [1.0, 1.0])

    @pytest.mark.parametrize("bad", [0.0, np.nan, np.inf])
    def test_bad_diagonal_names_the_row(self, bad):
        A = CsrMatrix.from_dense([[2.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 2.0]])
        values = A.values.copy()
        values[A.col_idx == 1] = [-1.0, bad, -1.0]
        B = CsrMatrix(3, 3, A.row_ptr, A.col_idx, values)
        with pytest.raises(ValueError, match="row 1"):
            GaussSeidel(B)

    def test_missing_diagonal_entry_rejected(self):
        A = CsrMatrix.from_dense([[1.0, 0.0], [1.0, 0.0]])
        with pytest.raises(ValueError, match="row 1"):
            GaussSeidel(A)

    def test_rejects_bad_length(self):
        with pytest.raises(ValueError):
            GaussSeidel(CsrMatrix.identity(3)).forward(np.ones(4))


class TestScipyKernelContracts:
    """What the solve path relies on from the scipy kernels it calls
    directly: a sweep hands its right-hand side to ``gstrs`` without a
    copy, and ``spmv(out=)`` adds through ``csr_matvec``."""

    @pytest.mark.parametrize("k", [None, 3])
    @pytest.mark.parametrize("direction", ["forward", "backward"])
    def test_gstrs_reads_its_right_hand_side_and_returns_a_new_array(self, direction, k):
        A = p4_stiffness_n2()
        n = A.nrows
        (lp, li, lv), (up, ui, uv) = getattr(GaussSeidel(A), "_" + direction)
        b = np.asfortranarray(np.random.default_rng(9).standard_normal(n if k is None else (n, k)))
        before = b.copy()
        y, info = csr._superlu.gstrs("T", n, len(lv), lv, li, lp, n, len(uv), uv, ui, up, b)
        assert info == 0 and y.shape == b.shape
        assert np.array_equal(b, before) and not np.shares_memory(y, b)

    def test_csr_matvec_adds_into_y(self):
        # small integers keep every sum exact, so y + A x is the reference
        rng = np.random.default_rng(10)
        dense = rng.integers(-3, 4, (6, 5)).astype(float)
        A = CsrMatrix.from_dense(dense)
        x, y = rng.integers(-3, 4, 5).astype(float), rng.integers(-3, 4, 6).astype(float)
        ref = y + dense @ x
        csr.csr_matvec(6, 5, A.row_ptr, A.col_idx, A.values, x, y)
        assert np.array_equal(y, ref)


class TestDenseKernels:
    def test_eigen_diagonal(self):
        w, _ = dense_sym_eigen(np.diag([3.0, 1.0, 2.0]))
        assert np.allclose(w, [1.0, 2.0, 3.0], atol=1e-14)

    def test_eigen_closed_form(self):
        w, _ = dense_sym_eigen([[0.0, 1.0], [1.0, 0.0]])
        assert np.allclose(w, [-1.0, 1.0], atol=1e-14)

    def test_eigen_reconstruction(self):
        rng = np.random.default_rng(5)
        M = rng.standard_normal((8, 8))
        M = M + M.T
        w, V = dense_sym_eigen(M)
        assert np.max(np.abs(V @ np.diag(w) @ V.T - M)) <= 1e-10
        for i in range(8):
            res = np.linalg.norm(M @ V[:, i] - w[i] * V[:, i])
            assert res <= 1e-10 * np.linalg.norm(M, "fro")

    def test_eigen_trace(self):
        rng = np.random.default_rng(6)
        M = rng.standard_normal((10, 10))
        M = M + M.T
        w, _ = dense_sym_eigen(M)
        assert abs(w.sum() - np.trace(M)) <= 1e-10 * max(1.0, abs(np.trace(M)))

    def test_eigen_rejects_nonsymmetric(self):
        with pytest.raises(ValueError):
            dense_sym_eigen([[1.0, 2.0], [0.0, 1.0]])

    def test_cholesky_identity(self):
        assert np.array_equal(cholesky_solve(cholesky_factor(np.eye(2)), [4.0, 5.0]), [4.0, 5.0])

    def test_cholesky_diagonal(self):
        x = cholesky_solve(cholesky_factor(np.diag([2.0, 8.0])), [2.0, 8.0])
        assert np.allclose(x, [1.0, 1.0], atol=1e-15)

    def test_cholesky_random_spd(self):
        rng = np.random.default_rng(8)
        B = rng.standard_normal((10, 10))
        M = B.T @ B + np.eye(10)
        b = rng.standard_normal(10)
        x = cholesky_solve(cholesky_factor(M), b)
        assert np.linalg.norm(M @ x - b) <= 1e-10 * np.linalg.norm(b)

    @pytest.mark.parametrize("shape", [(2, 3), (4,), (2, 2, 2)])
    def test_cholesky_rejects_non_square(self, shape):
        with pytest.raises(ValueError, match="^expected a square matrix$"):
            cholesky_factor(np.ones(shape))

    def test_cholesky_reports_pivot(self):
        M = np.diag([1.0, -1.0, 2.0])
        with pytest.raises(NotPositiveDefiniteError) as exc:
            cholesky_factor(M)
        assert exc.value.pivot == 1

    def test_cholesky_factor_matches_column_loop(self):
        # reference: the column-by-column factorisation LAPACK replaced
        rng = np.random.default_rng(10)
        B = rng.standard_normal((12, 12))
        M = B.T @ B + np.eye(12)
        ref = np.zeros_like(M)
        for j in range(12):
            ref[j, j] = np.sqrt(M[j, j] - ref[j, :j] @ ref[j, :j])
            ref[j + 1 :, j] = (M[j + 1 :, j] - ref[j + 1 :, :j] @ ref[j, :j]) / ref[j, j]
        L = cholesky_factor(M)
        assert np.array_equal(L, np.tril(L))
        assert np.max(np.abs(L - ref)) <= 100 * 12 * np.finfo(float).eps * np.max(np.abs(ref))


class TestMatrixMarket:
    def test_identity_header(self, tmp_path):
        path = tmp_path / "eye.mtx"
        write_matrix_market(CsrMatrix.identity(2), path)
        lines = path.read_text().splitlines()
        assert lines[0] == "%%MatrixMarket matrix coordinate real symmetric"
        assert next(line for line in lines if not line.startswith("%")) == "2 2 2"

    def test_round_trip_general(self, tmp_path):
        rng = np.random.default_rng(9)
        A, _ = random_csr(rng, 6, 4, density=0.4)
        path = tmp_path / "a.mtx"
        write_matrix_market(A, path)
        B = read_matrix_market(path)
        assert B.shape == A.shape
        assert np.array_equal(B.to_dense(), A.to_dense())

    def test_round_trip_symmetric(self, tmp_path):
        rng = np.random.default_rng(10)
        M = rng.standard_normal((5, 5))
        A = CsrMatrix.from_dense(M + M.T)
        path = tmp_path / "s.mtx"
        write_matrix_market(A, path)
        lines = path.read_text().splitlines()
        assert "symmetric" in lines[0]
        B = read_matrix_market(path)
        assert np.array_equal(B.to_dense(), A.to_dense())

    def test_round_trip_assembled_operator(self, tmp_path):
        # a stiffness matrix that is symmetric only to roundoff is stored
        # as general, an exactly symmetric one as its lower triangle;
        # either way the file reads back bit for bit
        from auxmg.fem import assemble_operator, build_space
        from auxmg.mesh import build_cube_mesh, perturb_interior

        space = build_space(perturb_interior(build_cube_mesh(2), seed=17), 2)
        A = assemble_operator(space, "stiffness")
        path = tmp_path / "stiff.mtx"
        write_matrix_market(A, path)
        B = read_matrix_market(path)
        assert np.array_equal(A.to_dense(), B.to_dense())

    @pytest.mark.parametrize("what", ["stiffness", "prolongation"])
    def test_round_trip_is_bit_exact(self, tmp_path, what):
        # a symmetric P2 stiffness matrix (lower triangle stored) and a
        # rectangular P2 -> P1 transfer (general)
        from auxmg.transfer import build_prolongation

        space = build_space(build_cube_mesh(2), 2)
        if what == "stiffness":
            A = assemble_operator(space, "stiffness")
            assert A.is_symmetric(tol=0.0)
        else:
            A = build_prolongation(space, build_space(build_cube_mesh(2), 1)).prolongation
        path = tmp_path / f"{what}.mtx"
        write_matrix_market(A, path)
        assert ("symmetric" in path.read_text().splitlines()[0]) == (what == "stiffness")
        B = read_matrix_market(path)
        assert B.shape == A.shape
        assert np.array_equal(B.row_ptr, A.row_ptr)
        assert np.array_equal(B.col_idx, A.col_idx)
        assert np.array_equal(B.values, A.values)

    @pytest.mark.parametrize("k", [3, 4])
    def test_high_order_stiffness_round_trips_bit_for_bit(self, tmp_path, k):
        # P3 and P4 stiffness matrices are symmetric only to the last bit,
        # so the lower triangle would not carry the upper entries
        A = assemble_operator(build_space(build_cube_mesh(2), k), "stiffness")
        assert A.is_symmetric() and not A.is_symmetric(tol=0.0)
        path = tmp_path / f"p{k}.mtx"
        write_matrix_market(A, path)
        assert path.read_text().splitlines()[0] == "%%MatrixMarket matrix coordinate real general"
        B = read_matrix_market(path)
        assert np.array_equal(B.row_ptr, A.row_ptr)
        assert np.array_equal(B.col_idx, A.col_idx)
        assert np.array_equal(B.values, A.values)

    def test_parent_layout_reads_back(self, tmp_path):
        # the column-major, %.16e, lower-triangle layout this library wrote
        # before it handed Matrix Market to scipy.io: an explicit zero, a
        # subnormal, -0.0 and a value near the top of the range
        path = tmp_path / "parent.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real symmetric\n"
            "4 4 7\n"
            "1 1 4.0000000000000000e+00\n"
            "2 1 -3.3333333333333331e-01\n"
            "4 1 4.9406564584124654e-324\n"
            "2 2 2.0000000000000000e+00\n"
            "3 2 0.0000000000000000e+00\n"
            "3 3 1.0000000000000001e+300\n"
            "4 4 -0.0000000000000000e+00\n"
        )
        A = CsrMatrix.from_coo(
            4, 4,
            [0, 0, 1, 1, 1, 2, 2, 3, 0, 3],
            [0, 1, 0, 1, 2, 1, 2, 0, 3, 3],
            [4.0, -1 / 3, -1 / 3, 2.0, 0.0, 0.0, 1e300, 5e-324, 5e-324, -0.0],
        )
        B = read_matrix_market(path)
        assert B.shape == A.shape
        assert np.array_equal(B.row_ptr, A.row_ptr)
        assert np.array_equal(B.col_idx, A.col_idx)
        assert np.array_equal(B.values, A.values)
        assert np.array_equal(np.signbit(B.values), np.signbit(A.values))

    @pytest.mark.parametrize("qualifier, shape, rows, cols, vals", [
        ("symmetric", (4, 4), [0, 1, 1, 2, 3, 0, 3], [0, 2, 1, 1, 3, 3, 0],
         [-0.0, 0.0, 5e-324, 0.0, 1e300, 5e-324, 5e-324]),
        ("general", (3, 5), [0, 2, 2], [4, 0, 1], [-0.0, 0.0, 5e-324]),
        ("general", (3, 2), [], [], []),
    ])
    def test_edge_values_round_trip(self, tmp_path, qualifier, shape, rows, cols, vals):
        # -0.0, subnormals and explicit zeros survive a write and a read
        A = CsrMatrix.from_coo(*shape, rows, cols, vals)
        path = tmp_path / "edge.mtx"
        write_matrix_market(A, path)
        assert path.read_text().splitlines()[0].endswith(qualifier)
        B = read_matrix_market(path)
        assert B.shape == A.shape
        assert np.array_equal(B.row_ptr, A.row_ptr)
        assert np.array_equal(B.col_idx, A.col_idx)
        assert np.array_equal(B.values, A.values)
        assert np.array_equal(np.signbit(B.values), np.signbit(A.values))

    def test_entry_count_checked(self, tmp_path):
        path = tmp_path / "short.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real general\n2 2 3\n1 1 1.0\n2 2 1.0\n")
        with pytest.raises(ValueError, match="Truncated file"):
            read_matrix_market(path)
        path.write_text("%%MatrixMarket matrix coordinate real general\n2 2 0\n")
        assert read_matrix_market(path).nnz == 0

    @pytest.mark.parametrize("text, message", [
        ("%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 nan\n", "bad.mtx holds a value that is"),
        ("%%MatrixMarket matrix coordinate real general\n2 2 1\n2 1 -inf\n", "bad.mtx holds a value that is"),
        ("%%MatrixMarket matrix coordinate complex general\n2 2 1\n1 1 1.0 2.0\n", "bad.mtx holds complex values"),
        ("%%MatrixMarket matrix array real general\n1 1\n1.0\n", "bad.mtx is a dense array file"),
        ("%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 1.0\n", "Row index out of bounds"),
        ("2 2 1\n1 1 1.0\n", "Missing banner"),
    ], ids=["nan", "inf", "complex", "array", "index", "banner"])
    def test_malformed_file_rejected(self, tmp_path, text, message):
        path = tmp_path / "bad.mtx"
        path.write_text(text)
        with pytest.raises(ValueError, match=message):
            read_matrix_market(path)

    def test_writes_exactly_the_given_path(self, tmp_path):
        # given a path rather than a file, scipy's mmwrite appends ".mtx"
        write_matrix_market(CsrMatrix.identity(2), tmp_path / "a.dat")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.dat"]

    def test_import_leaves_scipy_io_out(self):
        # scipy.io is imported by the two functions above, not by the package
        code = "import sys, auxmg; print('scipy.io' in sys.modules)"
        env = {**os.environ, "PYTHONPATH": str(Path(auxmg.__file__).resolve().parents[1])}
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "False"
