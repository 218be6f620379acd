"""Classical algebraic multigrid: strength graph, greedy C/F splitting,
direct interpolation, Galerkin hierarchy and symmetric V-cycles.

A connection i -> j is strong when -a_ij > theta * max_k(-a_ik), k != i
(strict inequality, negative couplings only).  The splitting walks the
unknowns in index order, turning each undecided point into a C-point
and its undecided strong dependents into F-points.  Everything is
serial and deterministic; ties always resolve to the lowest index.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .csr import (
    CsrMatrix,
    GaussSeidel,
    cholesky_factor,
    cholesky_solve,
    spmv,
    triple_product,
)


# the largest coarsest level build_hierarchy factors densely (8 n^2 bytes,
# 200 MB at the cap)
MAX_DENSE_ROWS = 5000


class CoarseLevelTooLargeError(ValueError):
    """The hierarchy stopped at a level too large for the dense coarse
    factor: coarsening stalled, or ``max_levels`` was reached first."""


@dataclass
class StrengthGraph:
    """Strong-connection graph as two CSR patterns: row i of
    (row_ptr, col_idx) lists the columns row i strongly depends on, row j
    of (t_row_ptr, t_col_idx) the rows that strongly depend on j, both in
    ascending order."""

    n: int
    theta: float
    row_ptr: np.ndarray
    col_idx: np.ndarray
    t_row_ptr: np.ndarray
    t_col_idx: np.ndarray


def _entry_rows(row_ptr):
    """The row id of every stored entry of a CSR pattern, as int64, so that
    keys ``row * n + col`` never wrap, whatever the index dtype."""
    return np.repeat(np.arange(len(row_ptr) - 1, dtype=np.int64), np.diff(row_ptr))


def _row_pointer(rows, nrows):
    """CSR row pointer of entries whose row ids, in ascending order, are ``rows``."""
    row_ptr = np.zeros(nrows + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=nrows), out=row_ptr[1:])
    return row_ptr


def strength_graph(A: CsrMatrix, theta: float) -> StrengthGraph:
    if not 0.0 < theta < 1.0:
        raise ValueError(f"strength threshold must lie in (0,1), got {theta}")
    if A.nrows != A.ncols:
        raise ValueError("strength graph needs a square matrix")
    n = A.nrows
    counts = np.diff(A.row_ptr)
    rows = _entry_rows(A.row_ptr)
    neg = -A.values
    neg[A.col_idx == rows] = -np.inf  # the diagonal is never strong
    # max over the off-diagonal -a_ij of each row; a row whose max is not
    # positive (or that has no off-diagonal) gets no strong connections
    row_max = np.full(n, -np.inf)
    nonempty = np.flatnonzero(counts)
    if len(nonempty):
        row_max[nonempty] = np.maximum.reduceat(neg, A.row_ptr[nonempty])
    cut = np.where(row_max > 0.0, theta * row_max, np.inf)
    strong = neg > np.repeat(cut, counts)
    rows, cols = rows[strong], A.col_idx[strong]
    order = np.argsort(cols, kind="stable")  # each column's rows stay ascending
    return StrengthGraph(n, theta, _row_pointer(rows, n), cols, _row_pointer(cols[order], n), rows[order])


def rs_coarsen(S: StrengthGraph):
    """Greedy C/F splitting; returns (c_points, f_points, coarse_index).

    coarse_index[i] is the coarse id of C-point i, -1 for F-points.
    """
    UNDECIDED, CPT, FPT = 0, 1, 2
    state = np.full(S.n, UNDECIDED, dtype=np.int8)
    t_ptr, t_idx = S.t_row_ptr, S.t_col_idx
    for i in range(S.n):
        if state[i] != UNDECIDED:
            continue
        state[i] = CPT
        dependents = t_idx[t_ptr[i]:t_ptr[i + 1]]
        state[dependents[state[dependents] == UNDECIDED]] = FPT
    # each F-point strongly depends on the C-point that made it F
    c_points = np.flatnonzero(state == CPT)
    f_points = np.flatnonzero(state == FPT)
    coarse_index = np.full(S.n, -1, dtype=np.int64)
    coarse_index[c_points] = np.arange(len(c_points))
    return c_points, f_points, coarse_index


def _row_sums(vals, rows, n):
    """Per-row sums of entries given in row order, each bit-identical to
    ``ndarray.sum`` over that row's 1-D slice: rows of equal length are
    gathered into one 2-D block and summed along its rows, which takes
    numpy's pairwise summation as the 1-D sum does (``np.add.reduceat``
    sums left to right and would change the bits)."""
    counts = np.bincount(rows, minlength=n)
    starts = np.cumsum(counts) - counts
    out = np.zeros(n)
    for m in np.unique(counts[counts > 0]):
        r = np.flatnonzero(counts == m)
        out[r] = vals[starts[r, None] + np.arange(m)].sum(axis=1)
    return out


def direct_interpolation(A: CsrMatrix, S: StrengthGraph, partition) -> CsrMatrix:
    """Unit rows at C-points; F-point weights from the direct formula

        w_ij = -(a_ij / a_ii) * (sum of all negative a_ik) /
                                (sum of negative a_ik over strong C-neighbours).
    """
    c_points, f_points, coarse_index = partition
    n, n_c = A.nrows, len(c_points)
    is_f = np.zeros(n, dtype=bool)
    is_f[f_points] = True
    s_rows = _entry_rows(S.row_ptr)
    strong_c = is_f[s_rows] & (coarse_index[S.col_idx] >= 0)
    orphans = f_points[np.bincount(s_rows[strong_c], minlength=n)[f_points] == 0]
    if len(orphans):
        raise ValueError(f"F-point {orphans[0]} has no strong C-neighbour (coarsening bug)")

    rows = _entry_rows(A.row_ptr)
    cols, vals = A.col_idx, A.values
    diag = np.zeros(n)
    on_diag = cols == rows
    diag[rows[on_diag]] = vals[on_diag]
    neg = is_f[rows] & ~on_diag & (vals < 0.0)
    rows, cols, vals = rows[neg], cols[neg], vals[neg]
    # negative entries of F rows that are strong C-connections; both key
    # lists are sorted, as CSR rows are
    key, strong_key = rows * n + cols, s_rows[strong_c] * n + S.col_idx[strong_c]
    at = np.minimum(np.searchsorted(strong_key, key), len(strong_key) - 1)
    in_c = strong_key[at] == key
    neg_sum = _row_sums(vals, rows, n)[f_points]
    negc_sum = _row_sums(vals[in_c], rows[in_c], n)[f_points]
    scale = np.zeros(n)
    scale[f_points] = neg_sum / negc_sum
    rows, cols, vals = rows[in_c], cols[in_c], vals[in_c]
    weights = -vals * scale[rows] / diag[rows]
    return CsrMatrix.from_coo(
        n, n_c,
        np.concatenate([c_points, rows]),
        np.concatenate([np.arange(n_c), coarse_index[cols]]),
        np.concatenate([np.ones(n_c), weights]),
    )


@dataclass
class _Level:
    """A level of the hierarchy; every level but the coarsest, which the
    dense factor solves, holds its prolongation and prepared sweeps."""

    A: CsrMatrix
    P: CsrMatrix | None = None
    forward: GaussSeidel | None = field(init=False, default=None, repr=False)   # presmoothing sweep
    backward: GaussSeidel | None = field(init=False, default=None, repr=False)  # postsmoothing sweep

    def __post_init__(self):
        if self.P is not None:
            self.forward = GaussSeidel(self.A, "forward")
            self.backward = GaussSeidel(self.A, "backward")


@dataclass
class AmgHierarchy:
    levels: list
    coarsest_factor: np.ndarray
    theta: float

    @property
    def num_levels(self):
        return len(self.levels)

    def summary(self) -> dict:
        return {
            "theta": self.theta,
            "levels": [
                {"n": lvl.A.nrows, "nnz": lvl.A.nnz} for lvl in self.levels
            ],
            "operator_complexity": operator_complexity(self),
        }


def build_hierarchy(A: CsrMatrix, theta=0.25, max_levels=20, coarse_size=64) -> AmgHierarchy:
    """Coarsen until the matrix is small or coarsening stalls (< 5% removed).

    ``max_levels=1`` gives a one-level hierarchy whose cycle is the
    dense Cholesky solve of A.  Raises :class:`CoarseLevelTooLargeError`
    when the coarsest level has more than ``MAX_DENSE_ROWS`` rows.
    """
    levels = [_Level(A)]
    while levels[-1].A.nrows > coarse_size and len(levels) < max_levels:
        A_l = levels[-1].A
        S = strength_graph(A_l, theta)
        partition = rs_coarsen(S)
        n_c = len(partition[0])
        if n_c >= A_l.nrows or n_c > 0.95 * A_l.nrows:
            break
        P = direct_interpolation(A_l, S, partition)
        levels[-1] = _Level(A_l, P)
        levels.append(_Level(triple_product(P.transpose(), A_l, P)))
    n = levels[-1].A.nrows
    if n > MAX_DENSE_ROWS:
        raise CoarseLevelTooLargeError(
            f"the hierarchy stops at level {len(levels) - 1} with n = {n}, above the "
            f"{MAX_DENSE_ROWS}-row cap of the dense coarse factor (coarsening stalled "
            f"or max_levels = {max_levels} reached)"
        )
    return AmgHierarchy(levels, cholesky_factor(levels[-1].A.to_dense()), theta)


def smooth_and_correct(A: CsrMatrix, P: CsrMatrix, r, coarse_solve, pre, post) -> np.ndarray:
    """One multigrid step on A x = r from a zero guess: the ``pre`` sweep,
    the coarse correction P coarse_solve(P^T residual), the ``post``
    sweep.  A sweep that is None is skipped.

    Every V-cycle level and the two-level preconditioner take this step.
    """
    x = np.zeros_like(r) if pre is None else pre(r)
    x = x + spmv(P, coarse_solve(spmv(P.transpose(), r - spmv(A, x))))
    if post is not None:
        x = x + post(r - spmv(A, x))
    return x


def _vcycle(H: AmgHierarchy, level: int, r):
    if level == len(H.levels) - 1:
        return cholesky_solve(H.coarsest_factor, r)
    lvl = H.levels[level]
    return smooth_and_correct(lvl.A, lvl.P, r, partial(_vcycle, H, level + 1), lvl.forward, lvl.backward)


def vcycle_apply(H: AmgHierarchy, r) -> np.ndarray:
    """One symmetric V-cycle on residual r with zero initial guess."""
    r = np.asarray(r, dtype=np.float64)
    if r.shape[0] != H.levels[0].A.nrows:
        raise ValueError("residual length does not match the finest level")
    return _vcycle(H, 0, r)


def operator_complexity(H: AmgHierarchy) -> float:
    """Total stored nonzeros over all levels relative to the finest level."""
    nnz = [lvl.A.nnz for lvl in H.levels]
    return float(sum(nnz)) / float(nnz[0])


class VCyclePreconditioner:
    """One symmetric V-cycle as a preconditioner action."""

    def __init__(self, hierarchy: AmgHierarchy):
        self.hierarchy = hierarchy

    def __call__(self, r):
        return vcycle_apply(self.hierarchy, r)

    def operator_complexity(self) -> float:
        return operator_complexity(self.hierarchy)

    def level_count(self) -> int:
        return self.hierarchy.num_levels
