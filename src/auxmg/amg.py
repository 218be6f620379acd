"""Classical algebraic multigrid: strength graph, greedy C/F splitting,
direct interpolation, Galerkin hierarchy and symmetric V-cycles.

A connection i -> j is strong when -a_ij > theta * max_k(-a_ik), k != i
(strict inequality, negative couplings only).  The splitting walks the
unknowns in index order, turning each undecided point into a C-point
and its undecided strong dependents into F-points, then promotes any
F-point left without a strong C-neighbour.  Everything is serial and
deterministic; ties always resolve to the lowest index.
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


@dataclass
class StrengthGraph:
    """Strong-connection adjacency: strong[i] lists the columns row i
    strongly depends on; transpose[i] lists the rows depending on i."""

    n: int
    theta: float
    strong: list
    transpose: list


def strength_graph(A: CsrMatrix, theta: float) -> StrengthGraph:
    if not 0.0 < theta < 1.0:
        raise ValueError(f"strength threshold must lie in (0,1), got {theta}")
    if A.nrows != A.ncols:
        raise ValueError("strength graph needs a square matrix")
    n = A.nrows
    strong = []
    transpose = [[] for _ in range(n)]
    for i in range(n):
        lo, hi = A.row_ptr[i], A.row_ptr[i + 1]
        cols = A.col_idx[lo:hi]
        vals = A.values[lo:hi]
        off = cols != i
        neg = -vals[off]
        if len(neg) == 0 or neg.max() <= 0.0:
            strong.append(np.empty(0, dtype=np.int64))
            continue
        cut = theta * neg.max()
        sel = cols[off][neg > cut]
        strong.append(sel)
        for j in sel:
            transpose[j].append(i)
    transpose = [np.asarray(t, dtype=np.int64) for t in transpose]
    return StrengthGraph(n, theta, strong, transpose)


def rs_coarsen(S: StrengthGraph):
    """Greedy C/F splitting; returns (c_points, f_points, coarse_index).

    coarse_index[i] is the coarse id of C-point i, -1 for F-points.
    """
    UNDECIDED, CPT, FPT = 0, 1, 2
    state = np.full(S.n, UNDECIDED, dtype=np.int8)
    for i in range(S.n):
        if state[i] != UNDECIDED:
            continue
        state[i] = CPT
        for j in S.transpose[i]:
            if state[j] == UNDECIDED:
                state[j] = FPT
    # every F-point needs a strong C-neighbour to interpolate from
    for i in range(S.n):
        if state[i] == FPT and not np.any(state[S.strong[i]] == CPT):
            state[i] = CPT

    c_points = np.flatnonzero(state == CPT)
    f_points = np.flatnonzero(state == FPT)
    coarse_index = np.full(S.n, -1, dtype=np.int64)
    coarse_index[c_points] = np.arange(len(c_points))
    return c_points, f_points, coarse_index


def direct_interpolation(A: CsrMatrix, S: StrengthGraph, partition) -> CsrMatrix:
    """Unit rows at C-points; F-point weights from the direct formula

        w_ij = -(a_ij / a_ii) * (sum of all negative a_ik) /
                                (sum of negative a_ik over strong C-neighbours).
    """
    c_points, f_points, coarse_index = partition
    n, n_c = A.nrows, len(c_points)
    rows, cols, vals = [], [], []
    for i in c_points:
        rows.append(i)
        cols.append(coarse_index[i])
        vals.append(1.0)
    for i in f_points:
        lo, hi = A.row_ptr[i], A.row_ptr[i + 1]
        rcols = A.col_idx[lo:hi]
        rvals = A.values[lo:hi]
        diag = rvals[rcols == i]
        a_ii = diag[0] if len(diag) else 0.0
        strong_c = S.strong[i][coarse_index[S.strong[i]] >= 0]
        if len(strong_c) == 0:
            raise ValueError(f"F-point {i} has no strong C-neighbour (coarsening bug)")
        neg = (rcols != i) & (rvals < 0.0)
        neg_sum = rvals[neg].sum()
        in_c = np.isin(rcols, strong_c) & neg
        negc_sum = rvals[in_c].sum()
        scale = neg_sum / negc_sum
        for j, a_ij in zip(rcols[in_c], rvals[in_c]):
            rows.append(i)
            cols.append(coarse_index[j])
            vals.append(-a_ij * scale / a_ii)
    return CsrMatrix.from_coo(n, n_c, rows, cols, vals)


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
    dense Cholesky solve of A.
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
        return cholesky_solve(None, r, factor=H.coarsest_factor)
    lvl = H.levels[level]
    return smooth_and_correct(lvl.A, lvl.P, r, partial(_vcycle, H, level + 1), lvl.forward, lvl.backward)


def vcycle_apply(H: AmgHierarchy, r) -> np.ndarray:
    """One symmetric V-cycle on residual r with zero initial guess."""
    r = np.asarray(r, dtype=np.float64)
    if r.shape[0] != H.levels[0].A.nrows:
        raise ValueError("residual length does not match the finest level")
    return _vcycle(H, 0, r)


def vcycles(H: AmgHierarchy, r, cycles: int) -> np.ndarray:
    """``cycles`` V-cycles on A x = r from a zero guess, A the finest level."""
    x = vcycle_apply(H, r)
    for _ in range(cycles - 1):
        x += vcycle_apply(H, r - spmv(H.levels[0].A, x))
    return x


def operator_complexity(H: AmgHierarchy) -> float:
    """Total stored nonzeros over all levels relative to the finest level."""
    nnz = [lvl.A.nnz for lvl in H.levels]
    return float(sum(nnz)) / float(nnz[0])


class VCyclePreconditioner:
    """Fixed number of V-cycles as a (symmetric) preconditioner action."""

    def __init__(self, hierarchy: AmgHierarchy, cycles: int = 1):
        self.hierarchy = hierarchy
        self.cycles = cycles

    def __call__(self, r):
        return vcycles(self.hierarchy, r, self.cycles)

    def operator_complexity(self) -> float:
        return operator_complexity(self.hierarchy)

    def level_count(self) -> int:
        return self.hierarchy.num_levels
