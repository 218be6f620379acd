"""Classical algebraic multigrid: strength graph, greedy C/F splitting,
direct interpolation, Galerkin hierarchy and symmetric V-cycles.

A connection i -> j is strong when -a_ij > theta * max_k(-a_ik), k != i
(strict inequality, negative couplings only); the strength graph is the
:class:`CsrMatrix` of A's strong entries, values included.  The
splitting is the greedy one that visits the unknowns in index order, so
point i is a C-point exactly when no C-point j < i has S[i, j] strong.
It applies that rule in vector rounds over the strict-lower strong edges
and hands the last few points to the sequential loop (:func:`rs_coarsen`).
Everything is serial and deterministic; ties always resolve to the
lowest index.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field
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

# rs_coarsen hands the points still undecided to its loop once a round
# decides fewer than _HANDOVER of them (a chain decides one per round) or
# leaves fewer than _HANDOVER_LEFT.  Without the second rule the last
# rounds of every level make many sub-kilobyte arrays, which numpy's
# small-buffer cache keeps allocated inside the freed setup heap: the warm
# plain-AMG peak RSS on P4 n=8 then read about 234 MB in most fresh
# processes, against about 209 MB with the per-point loop and 201-216 MB
# with the rule (ROADMAP item 7).
_HANDOVER = 8
_HANDOVER_LEFT = 256


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

    The splitting of a loop that visits the points in index order and
    makes each undecided point C and its undecided strong dependents F:
    point i is C exactly when no C-point j < i has S[i, j] strong.  Each
    round applies that rule to the strict-lower strong edges (i depends
    on an earlier j) in two vector steps:

    - an undecided point with a C parent becomes F;
    - an undecided point whose lower parents are all decided, none of
      them C, becomes C;

    and drops every edge that touches a decided point.  Decided points
    are final, so once a round decides fewer than ``_HANDOVER`` points or
    leaves fewer than ``_HANDOVER_LEFT`` undecided, the F step runs once
    more and the loop visits the points still undecided, in ascending
    order; only then is S's transpose built.  coarse_index[i] is the
    coarse id of C-point i, -1 for F-points.
    """
    UNDECIDED, CPT, FPT = 0, 1, 2
    n = S.nrows
    state = np.full(n, UNDECIDED, dtype=np.int8)
    pending = np.arange(n, dtype=S.col_idx.dtype)  # undecided, ascending
    rows = np.repeat(pending, np.diff(S.row_ptr))
    lower = S.col_idx < rows
    rows, cols = rows[lower], S.col_idx[lower]  # rows[e] strongly depends on cols[e] < rows[e]
    waiting = np.zeros(n, dtype=bool)
    handover = False
    while len(pending):
        # F step, then only edges between undecided points are kept
        state[rows[state[cols] == CPT]] = FPT
        live = state[rows] == UNDECIDED
        live &= state[cols] == UNDECIDED
        rows, cols = rows[live], cols[live]
        left = len(pending)
        pending = pending[state[pending] == UNDECIDED]
        if handover:
            break
        # C step: a point with no edge left has no undecided parent
        waiting[rows] = True
        free = ~waiting[pending]
        waiting[rows] = False
        state[pending[free]] = CPT
        pending = pending[~free]
        handover = left - len(pending) < _HANDOVER or len(pending) < _HANDOVER_LEFT
    if len(pending):
        T = S.transpose()  # row i lists the rows that strongly depend on i, ascending
        t_ptr, t_idx = T.row_ptr, T.col_idx
        for i in pending.tolist():
            if state[i] != UNDECIDED:
                continue
            state[i] = CPT
            dependents = t_idx[t_ptr[i]:t_ptr[i + 1]]
            state[dependents[state[dependents] == UNDECIDED]] = FPT
    # each F-point strongly depends on the C-point that made it F
    c_points = np.flatnonzero(state == CPT)
    f_points = np.flatnonzero(state == FPT)
    coarse_index = np.full(n, -1, dtype=np.int64)
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

    ``PtS`` and ``SP``, where they are given, are the smoother's
    :meth:`~GaussSeidel.coarse_products` for the form ``presmooth`` names,
    which let a step restrict and correct with no pass over A.  They pay
    where P is much sparser than A: on the two-level top, whose P1
    transfer gives products of 114k entries each against A's 1.94M on P4
    n=8.  On the first AMG level there each would hold 36% of A's entries,
    so AMG levels prepare none and take one half pass over A for each.
    """

    A: CsrMatrix
    P: CsrMatrix | None = None
    presmooth: InitVar[bool | None] = None
    PtS: CsrMatrix | None = field(init=False, default=None)
    SP: CsrMatrix | None = field(init=False, default=None)
    smoother: GaussSeidel | None = field(init=False, default=None, repr=False)

    def __post_init__(self, presmooth):
        if self.P is not None:
            self.smoother = GaussSeidel(self.A)
            if presmooth is not None:
                self.PtS, self.SP = self.smoother.coarse_products(self.P, presmooth)


@dataclass
class AmgHierarchy:
    levels: list
    coarsest_factor: np.ndarray
    theta: float

    def summary(self) -> dict:
        """Per level n, nnz and coarsening ratio n_{l+1} / n_l (None on the
        coarsest), then the grid complexity sum(n_l) / n_0 and the operator
        complexity, as PyAMG's multilevel summary prints them; both
        complexities are 1.0 when the finest level is empty."""
        n = [lvl.A.nrows for lvl in self.levels]
        return {
            "theta": self.theta,
            "levels": [
                {"n": n_l, "nnz": lvl.A.nnz, "coarsening_ratio": n_next / n_l if n_next else None}
                for n_l, n_next, lvl in zip(n, n[1:] + [None], self.levels)
            ],
            "grid_complexity": sum(n) / n[0] if n[0] else 1.0,
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


def smooth_and_correct(level: _Level, r, coarse_solve, presmooth=True, with_product=False):
    """One multigrid step on A x = r from a zero guess, with the A and P of
    ``level``: a forward sweep (with ``presmooth``), the coarse correction
    P coarse_solve(P^T residual) and a backward sweep, or the correction
    and a forward sweep.  ``r`` is a vector or an (n, k) block whose
    columns are independent residuals.

    No residual is formed and no product by A is taken.  With A = L + D +
    U, the forward sweep x0 comes out of its substitution as y = D x0 and
    leaves r - A x0 = -U x0, so the backward sweep after the correction
    P e solves

        (D + U) x = D x0 - L P e,

    which needs P^T U x0 and L P e only.  A level with prepared products
    (the two-level top) reads them from ``PtS`` and ``SP``; any other takes
    one half pass over A for each, through the smoother's triangles.
    Without ``presmooth`` the step solves (D + L) x = r - U P e the same
    way.  Against the written-out x + post(r - A x) the result moves at
    roundoff.

    With ``with_product`` the step returns the pair (x, A x) with one more
    half pass: A x = b + L x for b the post sweep's right-hand side (b + U x
    after a forward sweep).  This is Eisenstat's splitting (SIAM J. Sci.
    Stat. Comput. 2, 1981); the x is bit-identical to the one without it.

    Every V-cycle level and the two-level preconditioner take this step.
    """
    P, gs = level.P, level.smoother
    if presmooth:
        b = gs.substitute(r, True)
        r_H = spmv(P.transpose(), gs.residual(b, True)) if level.PtS is None else spmv(level.PtS, b)
        np.negative(r_H, out=r_H)
    else:
        b = np.array(r, order="F")  # the caller's r is left alone
        r_H = spmv(P.transpose(), r)
    e = np.negative(coarse_solve(r_H))
    if level.SP is None:
        gs.residual(gs.unscale(spmv(P, e)), not presmooth, out=b)
    else:
        spmv(level.SP, e, out=b)
    y = gs.substitute(b, not presmooth)
    if with_product:
        Ax = gs.residual(y, not presmooth, out=b)
        return gs.scale(y), Ax
    return gs.scale(y)


def _vcycle(H: AmgHierarchy, level: int, r, with_product=False):
    """The cycle from ``level`` down; ``with_product`` returns (x, A x),
    which the cycle of one level forms with a product by A."""
    if level == len(H.levels) - 1:
        x = cholesky_solve(H.coarsest_factor, r)
        return (x, spmv(H.levels[level].A, x)) if with_product else x
    return smooth_and_correct(H.levels[level], r, partial(_vcycle, H, level + 1), True, with_product)


def operator_complexity(H) -> float:
    """Total stored nonzeros over the ``levels`` of H (a hierarchy or a
    preconditioner) relative to the first; 1.0 when the first is empty."""
    nnz = [lvl.A.nnz for lvl in H.levels]
    return float(sum(nnz)) / float(nnz[0]) if nnz[0] else 1.0


class VCyclePreconditioner:
    """One symmetric V-cycle as a preconditioner action on the operator
    ``A`` of its first level.  A subclass sets where a cycle starts
    (:meth:`_cycle`) and which ``levels`` it has."""

    def __init__(self, hierarchy: AmgHierarchy):
        self.hierarchy = hierarchy
        self.A = self.levels[0].A

    @property
    def levels(self):
        return self.hierarchy.levels

    def _cycle(self, r, with_product):
        return _vcycle(self.hierarchy, 0, r, with_product)

    def _as_block(self, r):
        return _as_block(r, self.A.nrows, "residual for the operator")

    def apply(self, r):
        """The action on a residual vector or on each column of an (n, k)
        block."""
        return self._cycle(self._as_block(r), with_product=False)

    __call__ = apply

    def apply_with_product(self, r):
        """The pair (z, A z): z is :meth:`apply`'s action, bit for bit, and
        A z comes from the first level's last sweep with no product by A
        (see :func:`smooth_and_correct`).  A one-level hierarchy, whose
        cycle is the dense solve, forms A z by ``spmv``."""
        return self._cycle(self._as_block(r), with_product=True)

    def operator_complexity(self) -> float:
        return operator_complexity(self)

    def level_count(self) -> int:
        """The levels that have unknowns."""
        return sum(lvl.A.nrows > 0 for lvl in self.levels)
