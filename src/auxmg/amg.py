"""Classical algebraic multigrid: strength graph, greedy C/F splitting,
direct interpolation, Galerkin hierarchy and symmetric V-cycles.

A connection i -> j is strong when -a_ij > theta * max_k(-a_ik), k != i
(strict inequality, negative couplings only); the strength graph is the
:class:`CsrMatrix` of A's strong entries, values included.  The
splitting walks the unknowns in index order, turning each undecided
point into a C-point and its undecided strong dependents into F-points.
Everything is serial and deterministic; ties always resolve to the
lowest index.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .csr import (
    CsrMatrix,
    GaussSeidel,
    _as_block,
    check_finite,
    checked_diagonal,
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


def _entry_rows(row_ptr):
    """The row id, as int64, of every stored entry of a CSR matrix."""
    return np.repeat(np.arange(len(row_ptr) - 1, dtype=np.int64), np.diff(row_ptr))


def strength_graph(A: CsrMatrix, theta: float) -> CsrMatrix:
    """The strong entries of A with their values: row i holds the a_ij that
    i strongly depends on.  Each is a negative off-diagonal entry."""
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
    row_ptr = np.zeros(n + 1, dtype=A.row_ptr.dtype)  # the dtype of col_idx, which scipy need not convert
    np.cumsum(np.bincount(rows[strong], minlength=n), out=row_ptr[1:])
    return CsrMatrix(n, n, row_ptr, A.col_idx[strong], A.values[strong], check=False)


def rs_coarsen(S: CsrMatrix):
    """Greedy C/F splitting; returns (c_points, f_points, coarse_index).

    coarse_index[i] is the coarse id of C-point i, -1 for F-points.
    """
    UNDECIDED, CPT, FPT = 0, 1, 2
    state = np.full(S.nrows, UNDECIDED, dtype=np.int8)
    T = S.transpose()  # row i lists the rows that strongly depend on i, ascending
    t_ptr, t_idx = T.row_ptr, T.col_idx
    for i in range(S.nrows):
        if state[i] != UNDECIDED:
            continue
        state[i] = CPT
        dependents = t_idx[t_ptr[i]:t_ptr[i + 1]]
        state[dependents[state[dependents] == UNDECIDED]] = FPT
    # each F-point strongly depends on the C-point that made it F
    c_points = np.flatnonzero(state == CPT)
    f_points = np.flatnonzero(state == FPT)
    coarse_index = np.full(S.nrows, -1, dtype=np.int64)
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


def direct_interpolation(A: CsrMatrix, S: CsrMatrix, partition) -> CsrMatrix:
    """Unit rows at C-points; F-point weights from the direct formula

        w_ij = -(a_ij / a_ii) * (sum of all negative a_ik) /
                                (sum of negative a_ik over strong C-neighbours).

    ``S`` is the strength graph of A, whose entries are negative a_ij.
    """
    c_points, f_points, coarse_index = partition
    n, n_c = A.nrows, len(c_points)
    is_f = np.zeros(n, dtype=bool)
    is_f[f_points] = True
    s_rows = _entry_rows(S.row_ptr)
    strong_c = is_f[s_rows] & (coarse_index[S.col_idx] >= 0)
    s_rows, cols, vals = s_rows[strong_c], S.col_idx[strong_c], S.values[strong_c]
    orphans = f_points[np.bincount(s_rows, minlength=n)[f_points] == 0]
    if len(orphans):
        raise ValueError(f"F-point {orphans[0]} has no strong C-neighbour (coarsening bug)")

    rows = _entry_rows(A.row_ptr)
    neg = is_f[rows] & (A.col_idx != rows) & (A.values < 0.0)
    neg_sum = _row_sums(A.values[neg], rows[neg], n)[f_points]
    negc_sum = _row_sums(vals, s_rows, n)[f_points]
    scale = np.zeros(n)
    scale[f_points] = neg_sum / negc_sum
    weights = -vals * scale[s_rows] / A.diagonal()[s_rows]
    return CsrMatrix.from_coo(
        n, n_c,
        np.concatenate([c_points, s_rows]),
        np.concatenate([np.arange(n_c), coarse_index[cols]]),
        np.concatenate([np.ones(n_c), weights]),
    )


@dataclass
class _Level:
    """A level of the hierarchy; every level but the coarsest, which the
    dense factor solves, holds its prolongation and prepared smoother.

    ``AP`` = A P, where it is given, lets a step correct its residual
    without a product by A.  It pays where P is much sparser than A: on
    the two-level top, whose P1 transfer gives an A P with 6% of A's
    entries on P4 n=8.  An AMG level's A P has 58% of A's, so these levels
    leave ``AP`` at None and form A (P e) instead.
    """

    A: CsrMatrix
    P: CsrMatrix | None = None
    AP: CsrMatrix | None = None
    smoother: GaussSeidel | None = field(init=False, default=None, repr=False)

    def __post_init__(self):
        if self.P is not None:
            self.smoother = GaussSeidel(self.A)


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
    dense Cholesky solve of A.  A ValueError names a ``theta`` outside
    (0, 1) or a ``max_levels`` below 1 before any work, and the first
    entry of A that is not finite, or the first row whose diagonal entry
    is zero, before any coarsening.  Raises
    :class:`CoarseLevelTooLargeError` when the coarsest level has more
    than ``MAX_DENSE_ROWS`` rows.
    """
    if not 0.0 < theta < 1.0:
        raise ValueError(f"theta must lie in (0,1), got {theta}")
    if max_levels < 1:
        raise ValueError(f"max_levels must be at least 1, got {max_levels}")
    check_finite(A, "A")
    checked_diagonal(A, "AMG")
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


def smooth_and_correct(level: _Level, r, coarse_solve, pre, post) -> np.ndarray:
    """One multigrid step on A x = r from a zero guess, with the A, P and
    AP of ``level``: the ``pre`` sweep, the coarse correction
    P coarse_solve(P^T residual), the ``post`` sweep.  A sweep that is
    None is skipped; ``pre`` also returns its residual.  ``r`` is a vector
    or an (n, k) block whose columns are independent residuals.

    No residual is formed from scratch.  The step carries the negated
    residual d = A x - r, into which ``spmv`` adds in place: the pre sweep
    returns it (:meth:`GaussSeidel.forward_sweep`), and the coarse
    correction P e adds (A P) e to it, through the level's ``AP`` when it
    has one and as A (P e) otherwise.  So a step on a level with ``AP``
    never multiplies by A, and one without it multiplies by A once.  x is
    updated in place.  Against the written-out x + post(r - A x) the pre
    sweep's x is bit-identical and the residuals, and so the result, move
    at roundoff.

    Every V-cycle level and the two-level preconditioner take this step.
    """
    P = level.P
    x, d = (np.zeros_like(r), np.negative(r)) if pre is None else pre(r)
    r_H = spmv(P.transpose(), d)
    e = coarse_solve(np.negative(r_H, out=r_H))
    if post is None:
        return spmv(P, e, out=x)
    if level.AP is None:
        Pe = spmv(P, e)
        x += Pe
        spmv(level.A, Pe, out=d)
    else:
        spmv(P, e, out=x)
        spmv(level.AP, e, out=d)
    x -= post(d)  # post(r - A x) = -post(d), exactly
    return x


def _vcycle(H: AmgHierarchy, level: int, r):
    if level == len(H.levels) - 1:
        return cholesky_solve(H.coarsest_factor, r)
    lvl = H.levels[level]
    gs = lvl.smoother
    return smooth_and_correct(lvl, r, partial(_vcycle, H, level + 1), gs.forward_sweep, gs.backward)


def vcycle_apply(H: AmgHierarchy, r) -> np.ndarray:
    """One symmetric V-cycle with zero initial guess on a residual vector
    or on each column of an (n, k) block."""
    return _vcycle(H, 0, _as_block(r, H.levels[0].A.nrows, "residual for the finest level"))


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
