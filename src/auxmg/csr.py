"""Sparse CSR matrices, Gauss-Seidel sweeps and small dense kernels.

Everything downstream (assembly, transfer, AMG, Krylov) works with
:class:`CsrMatrix`.  Kernels are deterministic: entries are stored with
strictly increasing column indices per row and summations run in that
order, so repeated runs on one machine are bit-identical.  A matrix is
immutable, so its transpose is built once and cached.

:class:`GaussSeidel` is the one triangular-sweep type: every smoother
prepares its forward and backward sweeps once at setup, and each call
is a single triangular substitution.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg
import scipy.sparse
from scipy.sparse.linalg._dsolve import _superlu  # gstrs, the kernel of spsolve_triangular


class NotPositiveDefiniteError(ValueError):
    """Raised when a Cholesky pivot is not positive.

    ``pivot`` is the 0-based index of the offending leading minor.
    """

    def __init__(self, pivot: int):
        self.pivot = int(pivot)
        super().__init__(f"matrix is not positive definite (pivot {pivot})")


def _csr_from_keys(nrows, ncols, key, vals):
    """CSR of triplets given as in-range keys ``row * ncols + col`` (a fresh
    int64 array, sorted in place) and values, summing duplicates in (row,
    col, insertion) order.  A 2-D ``vals`` holds one value set per row and
    gives a list of matrices that share one index pattern.

    When the key and position bits fit in 63, each position is packed
    below its key and one sort of these unique values gives the sorted
    keys and the stable-sort permutation; otherwise a stable ``argsort``
    does.  Each transient is dropped as soon as it has been used, so a
    caller that passes ``vals`` as a temporary lets it go once gathered.
    """
    m = len(key)
    b = max(m - 1, 0).bit_length()
    if (nrows * ncols - 1).bit_length() + b <= 63:
        pos = np.int32 if b <= 31 else np.int64
        key <<= b
        key |= np.arange(m, dtype=pos)
        key.sort()
        order = np.empty(m, dtype=pos)
        np.bitwise_and(key, (1 << b) - 1, out=order, casting="unsafe")
        key >>= b
    else:
        order = np.argsort(key, kind="stable")
        key = key[order]
    vals = vals[..., order]
    del order
    if m:
        starts = np.flatnonzero(np.r_[True, key[1:] != key[:-1]])
        vals = np.add.reduceat(vals, starts, axis=-1)
        key = key[starts]
        del starts
    row_ptr = np.searchsorted(key, np.arange(nrows + 1, dtype=np.int64) * ncols)
    key %= max(ncols, 1)
    mats = []
    for v in np.atleast_2d(vals):
        mats.append(CsrMatrix(nrows, ncols, row_ptr, key, v, check=False))
        row_ptr, key = mats[0].row_ptr, mats[0].col_idx
    return mats if vals.ndim == 2 else mats[0]


def _index_array(a):
    """``a`` as a contiguous int32 or int64 array, converted to int64 only
    when it is neither."""
    a = np.asarray(a)
    return np.ascontiguousarray(a, dtype=a.dtype if a.dtype in (np.int32, np.int64) else np.int64)


def _adopt(S) -> CsrMatrix:
    """The CsrMatrix over a scipy CSR matrix that nothing else holds: its
    indices are sorted in place and its arrays become the matrix's own."""
    S.sort_indices()
    return CsrMatrix(S.shape[0], S.shape[1], S.indptr, S.indices, S.data)


class CsrMatrix:
    """Immutable compressed-sparse-row matrix.

    Parameters
    ----------
    nrows, ncols : int
    row_ptr : (nrows+1,) int array, nondecreasing, row_ptr[0] == 0
    col_idx : (nnz,) int array, strictly increasing within each row
    values : (nnz,) float array

    ``row_ptr``, ``col_idx`` and ``values`` are the arrays of the scipy
    matrix that :meth:`to_scipy` returns, so each is stored once.  The
    index dtype is the one scipy picks: int32 when nnz and both
    dimensions fit in it, int64 otherwise, so index products such as
    ``row * ncols + col`` must be formed in int64.  Explicitly stored
    zeros are kept; the sparsity pattern is structural.
    """

    __slots__ = ("nrows", "ncols", "row_ptr", "col_idx", "values", "_scipy", "_transpose")

    def __init__(self, nrows, ncols, row_ptr, col_idx, values, check=True):
        self.nrows = int(nrows)
        self.ncols = int(ncols)
        self.row_ptr = _index_array(row_ptr)
        self.col_idx = _index_array(col_idx)
        self.values = np.ascontiguousarray(values, dtype=np.float64)
        self._transpose = None
        if check:
            self._validate()
        S = self._scipy = scipy.sparse.csr_matrix((self.values, self.col_idx, self.row_ptr), shape=self.shape)
        self.row_ptr, self.col_idx, self.values = S.indptr, S.indices, S.data
        for arr in (self.row_ptr, self.col_idx, self.values):
            arr.flags.writeable = False

    def _validate(self):
        if self.nrows < 0 or self.ncols < 0:
            raise ValueError("negative matrix dimension")
        if self.row_ptr.shape != (self.nrows + 1,):
            raise ValueError("row_ptr must have length nrows+1")
        if self.row_ptr[0] != 0 or self.row_ptr[-1] != len(self.col_idx):
            raise ValueError("row_ptr must start at 0 and end at nnz")
        if np.any(np.diff(self.row_ptr) < 0):
            raise ValueError("row_ptr must be nondecreasing")
        if len(self.col_idx) != len(self.values):
            raise ValueError("col_idx and values length mismatch")
        if len(self.col_idx):
            if self.col_idx.min() < 0 or self.col_idx.max() >= self.ncols:
                raise ValueError("column index out of range")
            # strictly increasing inside each row (no duplicates)
            d = np.diff(self.col_idx)
            starts = self.row_ptr[1:-1]
            interior = np.ones(len(d), dtype=bool)
            interior[starts[(starts > 0) & (starts < len(self.col_idx))] - 1] = False
            if np.any(d[interior] <= 0):
                raise ValueError("column indices must be strictly increasing per row")

    # -- constructors ---------------------------------------------------

    @staticmethod
    def from_coo(nrows, ncols, rows, cols, vals):
        """Build from triplets, summing duplicates in (row, col, insertion) order.

        Raises ValueError for triplets of unequal length, an index out of
        range, or a shape whose entry count ``nrows * ncols`` does not fit
        the int64 sort key.
        """
        nrows, ncols = int(nrows), int(ncols)
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        vals = np.asarray(vals, dtype=np.float64)
        if not len(rows) == len(cols) == len(vals):
            raise ValueError(f"triplet lengths differ: {len(rows)}, {len(cols)}, {len(vals)}")
        if nrows * ncols > np.iinfo(np.int64).max:
            raise ValueError(f"shape ({nrows}, {ncols}) has more entries than an int64 sort key can index")
        if len(rows) and (rows.min() < 0 or rows.max() >= nrows or cols.min() < 0 or cols.max() >= ncols):
            raise ValueError(f"triplet index out of range for shape ({nrows}, {ncols})")
        key = rows * ncols + cols
        del rows, cols  # drop any copies asarray made before the sort
        return _csr_from_keys(nrows, ncols, key, vals)

    @staticmethod
    def from_dense(arr):
        arr = np.asarray(arr, dtype=np.float64)
        rows, cols = np.nonzero(arr)
        return CsrMatrix.from_coo(arr.shape[0], arr.shape[1], rows, cols, arr[rows, cols])

    @staticmethod
    def from_scipy(S):
        """Build from a copy of any scipy sparse matrix; ``S`` is left as it is."""
        return _adopt(S.tocsr(copy=True))

    @staticmethod
    def identity(n):
        return CsrMatrix(n, n, np.arange(n + 1), np.arange(n), np.ones(n), check=False)

    # -- views and conversions ------------------------------------------

    @property
    def nnz(self):
        return len(self.values)

    @property
    def shape(self):
        return (self.nrows, self.ncols)

    def to_scipy(self):
        """The scipy matrix over this matrix's own (read-only) arrays."""
        return self._scipy

    def to_dense(self):
        return self.to_scipy().toarray()

    def transpose(self):
        """A^T, built on the first call and cached."""
        if self._transpose is None:
            self._transpose = _adopt(self._scipy.T.tocsr())
        return self._transpose

    def diagonal(self):
        return self.to_scipy().diagonal()

    def tril(self):
        """Lower triangle including the diagonal."""
        return _adopt(scipy.sparse.tril(self._scipy, format="csr"))

    def triu(self):
        """Upper triangle including the diagonal."""
        return _adopt(scipy.sparse.triu(self._scipy, format="csr"))

    def submatrix(self, row_idx, col_idx):
        return _adopt(self._scipy[np.asarray(row_idx)][:, np.asarray(col_idx)])

    def is_symmetric(self, tol=1e-12):
        """Entrywise check |a_ij - a_ji| <= tol * max(1, |a_ij|)."""
        if self.nrows != self.ncols:
            return False
        S = self.to_scipy()
        D = (S - S.T).tocoo()
        if D.nnz == 0:
            return True
        ref = np.abs(np.asarray(S[D.row, D.col])).ravel()
        return bool(np.all(np.abs(D.data) <= tol * np.maximum(1.0, ref)))

    def __repr__(self):
        return f"CsrMatrix({self.nrows}x{self.ncols}, nnz={self.nnz})"


# -- sparse kernels ------------------------------------------------------


def spmv(A: CsrMatrix, x):
    """y = A x with ascending-column summation per row."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape[0] != A.ncols:
        raise ValueError(f"dimension mismatch: A is {A.shape}, x has length {x.shape[0]}")
    return A.to_scipy() @ x


def triple_product(R: CsrMatrix, A: CsrMatrix, P: CsrMatrix) -> CsrMatrix:
    """Galerkin product R A P.

    Rows of the result are sorted and merged; entries that come out
    exactly zero through cancellation are dropped.
    """
    if R.ncols != A.nrows:
        raise ValueError(f"dimension mismatch: R is {R.shape}, A is {A.shape}")
    if A.ncols != P.nrows:
        raise ValueError(f"dimension mismatch: A is {A.shape}, P is {P.shape}")
    S = (R.to_scipy() @ A.to_scipy() @ P.to_scipy()).tocsr()
    S.eliminate_zeros()
    return _adopt(S)


def matmul(A: CsrMatrix, B: CsrMatrix) -> CsrMatrix:
    """Sparse product A B with sorted, merged rows."""
    if A.ncols != B.nrows:
        raise ValueError(f"dimension mismatch: A is {A.shape}, B is {B.shape}")
    S = (A.to_scipy() @ B.to_scipy()).tocsr()
    S.eliminate_zeros()
    return _adopt(S)


# -- dense kernels -------------------------------------------------------


def cholesky_factor(M):
    """Lower Cholesky factor of a dense SPD matrix (LAPACK ``potrf``).

    Raises :class:`NotPositiveDefiniteError` naming the first
    nonpositive pivot.
    """
    M = np.asarray(M, dtype=np.float64)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError("expected a square matrix")
    L, info = scipy.linalg.lapack.dpotrf(M, lower=True, clean=True)
    if info > 0:
        raise NotPositiveDefiniteError(info - 1)
    return L


def cholesky_solve(M, b, factor=None):
    """Solve M x = b for dense SPD M (optionally with a precomputed factor)."""
    b = np.asarray(b, dtype=np.float64)
    L = cholesky_factor(M) if factor is None else factor
    y = scipy.linalg.solve_triangular(L, b, lower=True)
    return scipy.linalg.solve_triangular(L.T, y, lower=False)


class GaussSeidel:
    """One Gauss-Seidel sweep on the residual equation, prepared once.

    ``GaussSeidel(A, "forward")(b)`` is ``tril(A)^{-1} b`` and
    ``GaussSeidel(A, "backward")(b)`` is ``triu(A)^{-1} b``.  Construction
    does what ``scipy.sparse.linalg.spsolve_triangular`` repeats on every
    call: it takes the triangle, scales its columns by 1/diag, drops the
    exact zeros, and lays it out with its unit partner triangle as
    SuperLU's ``intc`` CSC pair.  A call is one SuperLU ``gstrs``
    substitution and one diagonal scale, the same kernel and arithmetic,
    so the result is bit-identical to ``spsolve_triangular``.

    Raises ValueError naming the first row whose diagonal entry is zero
    or not finite.
    """

    __slots__ = ("direction", "_lower", "_upper", "_inv_diag")

    def __init__(self, A: CsrMatrix, direction: str):
        if direction not in ("forward", "backward"):
            raise ValueError(f"direction must be 'forward' or 'backward', got {direction!r}")
        if A.nrows != A.ncols:
            raise ValueError(f"Gauss-Seidel needs a square matrix, got {A.shape}")
        n = A.nrows
        diag = A.diagonal()
        bad = np.flatnonzero((diag == 0.0) | ~np.isfinite(diag))
        if len(bad):
            i = int(bad[0])
            raise ValueError(f"Gauss-Seidel needs a nonzero finite diagonal: row {i} has {diag[i]}")
        if A.nnz > np.iinfo(np.intc).max:
            raise ValueError(f"{A.nnz} nonzeros exceed SuperLU's index range")
        self.direction = direction
        self._inv_diag = 1.0 / diag
        rows = np.repeat(np.arange(n, dtype=np.intc), np.diff(A.row_ptr))
        keep = A.col_idx <= rows if direction == "forward" else A.col_idx >= rows
        rows, cols = rows[keep], A.col_idx[keep].astype(np.intc, copy=False)
        vals = A.values[keep] * self._inv_diag[cols]
        keep = vals != 0.0
        rows, cols, vals = rows[keep], cols[keep], vals[keep]
        # the CSR arrays of tri(A) D^{-1} are the CSC arrays of its
        # transpose, which gstrs solves with trans="T"
        ptr = np.zeros(n + 1, dtype=np.intc)
        np.cumsum(np.bincount(rows, minlength=n), out=ptr[1:])
        tri = (vals, cols, ptr)
        if direction == "forward":
            # the strict triangle takes SuperLU's U slot with its diagonal
            # stored as explicit zeros; L is the identity
            vals[cols == rows] = 0.0
            self._lower = (np.ones(n), np.arange(n, dtype=np.intc), np.arange(n + 1, dtype=np.intc))
            self._upper = tri
        else:
            self._lower = tri
            self._upper = (np.empty(0), np.empty(0, dtype=np.intc), np.zeros(n + 1, dtype=np.intc))

    def __call__(self, b):
        b = np.array(b, dtype=np.float64)  # gstrs overwrites its right-hand side
        n = len(self._inv_diag)
        if b.shape != (n,):
            raise ValueError(f"dimension mismatch: sweep is {n}x{n}, b has shape {b.shape}")
        (lv, li, lp), (uv, ui, up) = self._lower, self._upper
        x, info = _superlu.gstrs("T", n, len(lv), lv, li, lp, n, len(uv), uv, ui, up, b)
        if info:
            raise np.linalg.LinAlgError(f"triangular solve failed (SuperLU info {info})")
        return x * self._inv_diag


def tri_lower_solve(L: CsrMatrix, b):
    """x = L^{-1} b for sparse lower-triangular L (diagonal included)."""
    return GaussSeidel(L, "forward")(b)


# -- Matrix Market I/O ---------------------------------------------------


def write_matrix_market(A: CsrMatrix, path, symmetric=None):
    """Write coordinate Matrix Market (1-based, 17 significant digits).

    ``symmetric=None`` auto-detects; symmetric files store the lower
    triangle only.
    """
    if symmetric is None:
        symmetric = A.is_symmetric()
    S = A.to_scipy().tocoo()
    if symmetric:
        keep = S.row >= S.col
        rows, cols, vals = S.row[keep], S.col[keep], S.data[keep]
        qualifier = "symmetric"
    else:
        rows, cols, vals = S.row, S.col, S.data
        qualifier = "general"
    order = np.lexsort((rows, cols))  # column-major, the conventional MM layout
    with open(path, "w") as fh:
        fh.write(f"%%MatrixMarket matrix coordinate real {qualifier}\n")
        fh.write(f"{A.nrows} {A.ncols} {len(vals)}\n")
        for t in order:
            fh.write(f"{rows[t] + 1} {cols[t] + 1} {vals[t]:.16e}\n")


def read_matrix_market(path) -> CsrMatrix:
    """Read a coordinate Matrix Market file written by :func:`write_matrix_market`."""
    with open(path) as fh:
        header = fh.readline().split()
        if len(header) < 5 or header[0] != "%%MatrixMarket" or header[2] != "coordinate":
            raise ValueError(f"unsupported Matrix Market header in {path}")
        qualifier = header[4]
        line = fh.readline()
        while line.startswith("%"):
            line = fh.readline()
        nrows, ncols, nnz = (int(t) for t in line.split())
        entry = [("row", np.int64), ("col", np.int64), ("val", np.float64)]
        body = np.loadtxt(fh, dtype=entry, ndmin=1, max_rows=nnz) if nnz else np.empty(0, dtype=entry)
    if len(body) != nnz:
        raise ValueError(f"{path} declares {nnz} entries but holds {len(body)}")
    rows, cols, vals = body["row"] - 1, body["col"] - 1, body["val"]
    if qualifier == "symmetric":
        off = rows != cols
        rows, cols = (
            np.concatenate([rows, cols[off]]),
            np.concatenate([cols, rows[off]]),
        )
        vals = np.concatenate([vals, vals[off]])
    elif qualifier != "general":
        raise ValueError(f"unsupported qualifier {qualifier!r}")
    return CsrMatrix.from_coo(nrows, ncols, rows, cols, vals)
