"""Sparse CSR matrices, Gauss-Seidel sweeps and small dense kernels.

Everything downstream (assembly, transfer, AMG, Krylov) works with
:class:`CsrMatrix`.  Kernels are deterministic: entries are stored with
strictly increasing column indices per row and summations run in that
order, so repeated runs on one machine are bit-identical.  A matrix is
immutable, so its transpose and its diagonal are built once and cached.

:class:`GaussSeidel` is the one smoother type: ``GaussSeidel(A)``
prepares both triangles of A once at setup and offers the forward and
the backward sweep, each a single triangular substitution, with or
without the residual it leaves, which it reads from the other triangle.

The solve-phase kernels (:func:`spmv`, the :class:`GaussSeidel` sweeps,
:func:`cholesky_solve`) take a vector of length n or an ``(n, k)``
block, and each column of a block's result is bit-identical to the call
on that column alone.  They call the compiled kernel that scipy's
``A @ x``, ``spsolve_triangular`` and ``solve_triangular`` run,
without the Python dispatch around it, which costs more than the
arithmetic on the small levels of a multigrid cycle.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse
from scipy.linalg.lapack import dpotrf, dtrtrs  # dtrtrs is the kernel of solve_triangular
from scipy.sparse._sparsetools import csr_matvec  # the kernel of A @ x
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
    The spent permutation is shrunk in place to hold the mask of first
    entries, so the starts and the sums fit in the space the values and
    the permutation leave; when they did not, a warm P4 n=8 build peaked
    at 194 MB RSS instead of 175, depending on the process's heap layout.
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
    if m:
        order.resize(-(-m // order.itemsize), refcheck=False)
        first = order.view(np.bool_)[:m]  # the first entry of each distinct key
        first[0] = True
        np.not_equal(key[1:], key[:-1], out=first[1:])
        starts = np.flatnonzero(first)
        del first, order
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

    With ``check`` (the default) malformed input raises ValueError:
    scipy's full ``check_format`` runs, and its canonical-format test
    rejects unsorted or repeated columns within a row.
    """

    __slots__ = ("nrows", "ncols", "row_ptr", "col_idx", "values", "_scipy", "_transpose", "_diagonal")

    def __init__(self, nrows, ncols, row_ptr, col_idx, values, check=True):
        self.nrows = int(nrows)
        self.ncols = int(ncols)
        row_ptr = np.asarray(row_ptr)
        self._transpose = self._diagonal = None
        # scipy drops the entries past a short row_ptr[-1] without a word
        if check and len(row_ptr) and row_ptr[-1] != len(col_idx):
            raise ValueError("row_ptr must end at nnz")
        S = self._scipy = scipy.sparse.csr_matrix(
            (np.ascontiguousarray(values, dtype=np.float64), col_idx, row_ptr), shape=self.shape
        )
        if check:
            S.check_format(full_check=True)
            if not S.has_canonical_format:
                raise ValueError("column indices must be strictly increasing per row")
        self.row_ptr, self.col_idx, self.values = S.indptr, S.indices, S.data
        for arr in (self.row_ptr, self.col_idx, self.values):
            arr.flags.writeable = False

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
        """The (read-only) diagonal, built on the first call and cached."""
        if self._diagonal is None:
            self._diagonal = self._scipy.diagonal()
            self._diagonal.flags.writeable = False
        return self._diagonal

    def tril(self):
        """Lower triangle including the diagonal."""
        return _adopt(scipy.sparse.tril(self._scipy, format="csr"))

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


def _as_block(x, n, what):
    """``x`` as a float64 vector of length n or an (n, k) block in Fortran
    order, so that each column is contiguous; any other shape raises
    ValueError naming it."""
    x = np.asarray(x, dtype=np.float64, order="F")
    if x.ndim not in (1, 2) or x.shape[0] != n:
        raise ValueError(f"dimension mismatch: {what} has shape {x.shape}, expected ({n},) or ({n}, k)")
    return x


def _add_matvec(n, m, arrays, x, y):
    """y += M x, for the n x m CSR ``arrays`` (row pointer, column indices,
    values) and a vector or a Fortran-ordered block x, y: one
    ``csr_matvec`` call per column, each row's sum starting from its entry
    of y and adding the products in ascending column order."""
    X, Y = (x, y) if x.ndim == 2 else (x[:, None], y[:, None])
    ptr, idx, vals = arrays
    for j in range(X.shape[1]):
        csr_matvec(n, m, ptr, idx, vals, X[:, j], Y[:, j])


def spmv(A: CsrMatrix, x, out=None):
    """y = A x with ascending-column summation per row, for a vector x or
    an (ncols, k) block, one ``csr_matvec`` call per column.

    With ``out``, a Fortran-ordered float64 array of the result's shape,
    A x is added into it in place (each row's sum starts from its entry of
    ``out``) and ``out`` is returned.
    """
    x = _as_block(x, A.ncols, f"x for A of shape {A.shape}")
    shape = (A.nrows,) + x.shape[1:]
    if out is None:
        out = np.zeros(shape, order="F")
    elif out.shape != shape or out.dtype != np.float64 or not out.flags.f_contiguous:
        raise ValueError(f"out must be a Fortran-ordered float64 array of shape {shape}, got {out.shape}")
    _add_matvec(A.nrows, A.ncols, (A.row_ptr, A.col_idx, A.values), x, out)
    return out


def matmat(A: CsrMatrix, B: CsrMatrix) -> CsrMatrix:
    """The product A B, with the pattern scipy's sparse product gives it."""
    if A.ncols != B.nrows:
        raise ValueError(f"dimension mismatch: A is {A.shape}, B is {B.shape}")
    return _adopt((A.to_scipy() @ B.to_scipy()).tocsr())


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


# -- dense kernels -------------------------------------------------------


def cholesky_factor(M):
    """Lower Cholesky factor of a dense SPD matrix (LAPACK ``potrf``).

    Raises :class:`NotPositiveDefiniteError` naming the first
    nonpositive pivot.
    """
    M = np.asarray(M, dtype=np.float64)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError("expected a square matrix")
    L, info = dpotrf(M, lower=True, clean=True)
    if info > 0:
        raise NotPositiveDefiniteError(info - 1)
    return L


def cholesky_solve(L, b):
    """Solve L L^T x = b for the lower Cholesky factor L of
    :func:`cholesky_factor`: LAPACK ``trtrs`` with L, then with L^T.

    A block is solved column by column: one ``trtrs`` call on several
    right-hand sides blocks the work differently and changes the bits.
    A right-hand side with an inf or NaN raises ValueError, so a
    multigrid cycle on a non-finite residual fails at its coarsest level.
    """
    b = _as_block(b, L.shape[0], f"b for a factor of shape {L.shape}")
    if not np.isfinite(b).all():
        raise ValueError("b must not contain infs or NaNs")
    x = np.empty_like(b)
    if not len(b):  # LAPACK rejects a 0 x 0 factor
        return x
    X, B = (x, b) if b.ndim == 2 else (x[:, None], b[:, None])
    for j in range(B.shape[1]):
        y, info = dtrtrs(L, B[:, j], lower=1)
        if not info:
            X[:, j], info = dtrtrs(L, y, lower=1, trans=1, overwrite_b=1)
        if info:
            raise np.linalg.LinAlgError(f"triangular solve failed (LAPACK trtrs info {info})")
    return x


def check_finite(A: CsrMatrix, name: str):
    """Raise ValueError naming the first (row, col) of ``A`` whose value is
    not finite.  The sum of the values is the allocation-free first test;
    only a sum that is not finite (an overflow, or a bad entry) costs the
    elementwise pass."""
    with np.errstate(over="ignore", invalid="ignore"):
        total = A.values.sum()
    if np.isfinite(total):
        return
    bad = np.flatnonzero(~np.isfinite(A.values))
    if len(bad):
        k = int(bad[0])
        row = int(np.searchsorted(A.row_ptr, k, side="right")) - 1
        raise ValueError(f"{name} has a non-finite entry at ({row}, {A.col_idx[k]}): {A.values[k]}")


def checked_diagonal(A: CsrMatrix, who: str) -> np.ndarray:
    """The diagonal of square ``A``; a ValueError names the first row whose
    diagonal entry is zero, missing or not finite."""
    diag = A.diagonal()
    bad = np.flatnonzero((diag == 0.0) | ~np.isfinite(diag))
    if len(bad):
        i = int(bad[0])
        raise ValueError(f"{who} needs a nonzero finite diagonal: row {i} has {diag[i]}")
    return diag


class GaussSeidel:
    """The forward and the backward Gauss-Seidel sweep of A, prepared once.

    ``forward(b)`` is ``tril(A)^{-1} b`` and ``backward(b)`` is
    ``triu(A)^{-1} b``.  Construction does what
    ``scipy.sparse.linalg.spsolve_triangular`` repeats on every call: it
    takes each triangle, scales its columns by 1/diag, drops the exact
    zeros, and lays it out with a unit or an empty partner as SuperLU's
    ``intc`` CSC pair.  A sweep is one SuperLU ``gstrs`` substitution and
    one diagonal scale, the same kernel and arithmetic, so the result is
    bit-identical to ``spsolve_triangular``.  :meth:`forward_sweep` and
    :meth:`backward_sweep` also return the residual the sweep leaves,
    read from the other sweep's triangle, so no triangle is stored twice.

    Raises ValueError naming the first row whose diagonal entry is zero,
    missing or not finite.
    """

    __slots__ = ("_inv_diag", "_forward", "_backward")

    def __init__(self, A: CsrMatrix):
        if A.nrows != A.ncols:
            raise ValueError(f"Gauss-Seidel needs a square matrix, got {A.shape}")
        n = A.nrows
        diag = checked_diagonal(A, "Gauss-Seidel")
        if A.nnz > np.iinfo(np.intc).max:
            raise ValueError(f"{A.nnz} nonzeros exceed SuperLU's index range")
        self._inv_diag = 1.0 / diag
        cols = A.col_idx.astype(np.intc, copy=False)

        def triangle(lower):
            # the row ids are built per triangle: held for both, they raised
            # the traced peak of a P4 n=8 fine level by 7 MB
            rows = np.repeat(np.arange(n, dtype=np.intc), np.diff(A.row_ptr))
            keep = cols <= rows if lower else cols >= rows
            rows, c = rows[keep], cols[keep]
            vals = A.values[keep] * self._inv_diag[c]
            keep = vals != 0.0
            rows, c, vals = rows[keep], c[keep], vals[keep]
            # the CSR arrays of tri(A) D^{-1} are the CSC arrays of its
            # transpose, which gstrs solves with trans="T"
            ptr = np.zeros(n + 1, dtype=np.intc)
            np.cumsum(np.bincount(rows, minlength=n), out=ptr[1:])
            if lower:
                # the strict triangle takes SuperLU's U slot with its
                # diagonal stored as explicit zeros; L is the identity
                vals[c == rows] = 0.0
            return ptr, c, vals

        lower = triangle(True)
        self._forward = ((np.arange(n + 1, dtype=np.intc), np.arange(n, dtype=np.intc), np.ones(n)), lower)
        # the upper triangle takes the L slot, and U is empty
        self._backward = (triangle(False),
                          (np.zeros(n + 1, dtype=np.intc), np.empty(0, dtype=np.intc), np.empty(0)))

    def _substitute(self, b, slots):
        """The ``gstrs`` substitution with the (L, U) ``slots`` of a sweep
        on ``b``: D x for the sweep x.  The kernel reads ``b`` and returns a
        new array, so ``b`` goes to it as it is."""
        n = len(self._inv_diag)
        b = _as_block(b, n, f"b for a {n}x{n} sweep")
        (lp, li, lv), (up, ui, uv) = slots
        y, info = _superlu.gstrs("T", n, len(lv), lv, li, lp, n, len(uv), uv, ui, up, b)
        if info:
            raise np.linalg.LinAlgError(f"triangular solve failed (SuperLU info {info})")
        return y

    def _scale(self, y):
        y *= self._inv_diag if y.ndim == 1 else self._inv_diag[:, None]
        return y

    def forward(self, b):
        """x = tril(A)^{-1} b for a vector or, in one ``gstrs`` call, for
        every column of an (n, k) block; ``b`` is left unchanged."""
        return self._scale(self._substitute(b, self._forward))

    def backward(self, b):
        """x = triu(A)^{-1} b, as :meth:`forward`."""
        return self._scale(self._substitute(b, self._backward))

    def forward_sweep(self, b):
        """The forward sweep x and the negated residual d = A x - b that it
        leaves.  With y = D x the substitution's output, (D + L) x = b gives
        d = U x = triu(A) D^{-1} y - y: one ``csr_matvec`` over the backward
        sweep's triangle, each row's sum started from -y_i and meeting the
        diagonal first.  d is negated because ``csr_matvec`` adds into its
        output; it matches the written-out A x - b to roundoff."""
        y = self._substitute(b, self._forward)
        d = np.negative(y)
        _add_matvec(len(y), len(y), self._backward[0], y, d)
        return self._scale(y), d

    def backward_sweep(self, b):
        """The backward sweep x and the residual d = L x that it leaves: one
        ``csr_matvec`` over the forward sweep's strict triangle."""
        y = self._substitute(b, self._backward)
        d = np.zeros_like(y)
        _add_matvec(len(y), len(y), self._forward[1], y, d)
        return self._scale(y), d


def tri_lower_solve(L: CsrMatrix, b):
    """x = L^{-1} b for sparse lower-triangular L (diagonal included)."""
    return GaussSeidel(L).forward(b)


# -- Matrix Market I/O ---------------------------------------------------
# scipy.io is imported inside these functions: it adds about 20 ms to
# ``import auxmg``, which every process pays and no solve needs.


def write_matrix_market(A: CsrMatrix, path):
    """Write coordinate Matrix Market through ``scipy.io.mmwrite``.

    An exactly symmetric matrix is stored as its lower triangle under the
    ``symmetric`` qualifier; any other, including one symmetric only to
    roundoff, under ``general``, so every file reads back bit for bit.
    """
    import scipy.io

    symmetry = "symmetric" if A.is_symmetric(tol=0.0) else "general"
    # an open binary file: given a path, mmwrite would append ".mtx" to it
    with open(path, "wb") as fh:
        scipy.io.mmwrite(fh, A.to_scipy(), symmetry=symmetry)


def read_matrix_market(path) -> CsrMatrix:
    """Read a real coordinate Matrix Market file through ``scipy.io.mmread``.

    Raises ValueError for a malformed file, and one naming the file for a
    dense ``array`` file, complex values or a value that is not finite.
    """
    import scipy.io

    S = scipy.io.mmread(path)  # raises ValueError for a malformed file
    if not scipy.sparse.issparse(S):
        raise ValueError(f"{path} is a dense array file, not a coordinate one")
    if np.iscomplexobj(S.data):
        raise ValueError(f"{path} holds complex values")
    if not np.all(np.isfinite(S.data)):
        raise ValueError(f"{path} holds a value that is not finite")
    return CsrMatrix.from_coo(S.shape[0], S.shape[1], S.row, S.col, S.data)
