"""Two-level auxiliary-space preconditioning and its augmented-system
analysis.

The preconditioner acts on a residual r from a zero guess in one of two
forms.  The symmetric form (``presmooth=True``) is a forward
Gauss-Seidel sweep, the coarse correction P * solve(P^T A P, P^T
residual) and a backward sweep; with a symmetric coarse solve it is SPD,
so it can sit inside CG or MINRES as well as FGMRES.  The plain form
(``presmooth=False``) is the coarse correction followed by one forward
sweep, the iteration the convergence theory is about.

With an exact coarse solve the plain form is block Gauss-Seidel on the
singular augmented system over the redundant coarse+fine basis.  That
system is held as dense matrices and solved with numpy alone, so it
shares no kernel with the preconditioner it checks.  The equivalence,
the rate identity |E|^2 = 1 - 1/K and a power-iteration contraction
estimator are executable cross-checks of the solver stack.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.linalg

from .amg import VCyclePreconditioner, _Level, build_hierarchy, smooth_and_correct
from .csr import CsrMatrix, check_finite, checked_diagonal, spmv, triple_product


class TwoLevelPreconditioner(VCyclePreconditioner):
    """Smoothing on the fine operator plus an exact-or-AMG coarse solve:
    a V-cycle whose top level ``top`` holds A and P and whose coarse
    levels are a hierarchy of P^T A P.  The top level prepares the split
    products P^T U and L P (for the plain form P^T L and U P), so an
    action is its sweeps' triangular substitutions around the coarse
    solve and makes no pass over A (see :func:`smooth_and_correct`).  A
    ValueError names an unknown ``coarse``, a ``theta`` outside (0, 1), a
    ``presmooth`` that is not a bool, the first entry of A or P that is
    not finite, or the first row of A whose diagonal entry is zero, before
    any setup work.

    Parameters
    ----------
    A : CsrMatrix
        Fine (eliminated) SPD operator.
    P : CsrMatrix
        Prolongation from the coarse space, matching A's dimension.
    coarse : "exact" or "amg"
        Coarse solver for P^T A P: one V-cycle of a classical AMG
        hierarchy built with strength threshold ``theta``, or of a
        one-level hierarchy, whose cycle is the dense Cholesky solve.
    presmooth : bool
        True: forward sweep, coarse correction, backward sweep (the
        symmetric form, its own adjoint).  False: coarse correction,
        then one forward sweep (the plain two-level iteration).
    """

    def __init__(self, A: CsrMatrix, P: CsrMatrix, coarse="amg", theta=0.25, presmooth=True):
        if A.nrows != A.ncols or A.nrows != P.nrows:
            raise ValueError("A and P dimensions do not match")
        if coarse not in ("exact", "amg"):
            raise ValueError(f"unknown coarse solver {coarse!r}")
        if not 0.0 < theta < 1.0:
            raise ValueError(f"theta must lie in (0,1), got {theta}")
        if not isinstance(presmooth, (bool, np.bool_)):
            raise ValueError(f"presmooth must be a bool, got {presmooth!r}")
        check_finite(A, "A")
        check_finite(P, "P")
        checked_diagonal(A, "A")
        self.P = P
        A_H = triple_product(P.transpose(), A, P)
        self.top = _Level(A, P, presmooth=presmooth)
        self.presmooth = presmooth
        H = build_hierarchy(A_H, max_levels=1) if coarse == "exact" else build_hierarchy(A_H, theta=theta)
        super().__init__(H)

    @property
    def levels(self):
        return [self.top] + self.hierarchy.levels

    def coarse_solve(self, r_H):
        """One V-cycle of the coarse hierarchy: the cycle this class
        inherits."""
        return super()._cycle(r_H, False)

    def _cycle(self, r, with_product):
        return smooth_and_correct(self.top, r, self.coarse_solve, self.presmooth, with_product)

    def apply_transpose(self, r):
        """Adjoint action.  The symmetric form is its own adjoint; the
        plain form's adjoint is a backward sweep x0, then the coarse
        correction x0 + P coarse_solve(-P^T L x0), whose restriction the
        top level prepares."""
        if self.presmooth:
            return self.apply(r)
        gs = self.top.smoother
        y = gs.substitute(self._as_block(r), False)
        e = self.coarse_solve(np.negative(spmv(self.top.PtS, y)))
        return spmv(self.P, e, out=gs.scale(y))


# -- augmented formulation --------------------------------------------------

# largest coarse+fine dimension build_augmented forms as dense matrices
MAX_AUGMENTED_DIM = 500


@dataclass
class AugmentedSystem:
    """The singular augmented operator over the redundant coarse+fine
    basis, as dense matrices."""

    W: np.ndarray       # [P | I]: augmented coefficients to fine-space ones
    matrix: np.ndarray  # W^T A W = [[RAP, RA], [AP, A]]
    sweep: np.ndarray   # block lower triangle [[RAP, 0], [AP, tril(A)]]

    @property
    def n_coarse(self):
        return self.dim - self.n_fine

    @property
    def n_fine(self):
        return self.W.shape[0]

    @property
    def dim(self):
        return self.W.shape[1]


def build_augmented(A: CsrMatrix, P: CsrMatrix) -> AugmentedSystem:
    """The augmented system of A over the basis [P | I]; a dimension
    above MAX_AUGMENTED_DIM raises before anything is allocated."""
    if A.nrows != A.ncols or A.nrows != P.nrows:
        raise ValueError("A and P dimensions do not match")
    dim = P.ncols + A.nrows
    if dim > MAX_AUGMENTED_DIM:
        raise ValueError(f"augmented dimension {dim} exceeds MAX_AUGMENTED_DIM = {MAX_AUGMENTED_DIM}")
    W = np.hstack([P.to_dense(), np.eye(A.nrows)])
    matrix = W.T @ A.to_dense() @ W
    sweep = np.tril(matrix)
    sweep[: P.ncols, : P.ncols] = matrix[: P.ncols, : P.ncols]
    return AugmentedSystem(W=W, matrix=matrix, sweep=sweep)


def augmented_gs_step(S: AugmentedSystem, v, f) -> np.ndarray:
    """One block Gauss-Seidel update v + B^{-1} (f - Aug v), B = S.sweep:
    an exact solve of the coarse block, then a forward sweep over the
    fine unknowns fed by the updated coarse value."""
    v = np.asarray(v, dtype=np.float64)
    f = np.asarray(f, dtype=np.float64)
    if v.shape[0] != S.dim or f.shape[0] != S.dim:
        raise ValueError("augmented vector length mismatch")
    return v + np.linalg.solve(S.sweep, f - S.matrix @ v)


# -- convergence-rate oracles ----------------------------------------------


# the null-space cut: pencil eigenvalues <= NULL_TOL, Aug eigenvalues <= NULL_TOL**2
NULL_TOL = 1e-10


class ContractionEstimate(NamedTuple):
    value: float
    converged: bool


def contraction_factor_estimate(M: TwoLevelPreconditioner, A: CsrMatrix,
                                iters=200, seed=0) -> ContractionEstimate:
    """A-norm of the error propagator E = I - M A by power iteration on
    E* E in the A-inner product (E* uses the transposed action)."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(A.nrows)

    def a_dot(u, w):
        return float(u @ spmv(A, w))

    x /= np.sqrt(a_dot(x, x))
    rho_old = np.inf
    for _ in range(iters):
        ex = x - M.apply(spmv(A, x))
        gx = ex - M.apply_transpose(spmv(A, ex))
        rho = a_dot(ex, ex)
        nrm = np.sqrt(max(a_dot(gx, gx), 0.0))
        if rho <= 1e-20 or nrm == 0.0:
            # exact (or numerically exact) preconditioner: E is roundoff
            return ContractionEstimate(float(np.sqrt(max(rho, 0.0))), True)
        if abs(rho - rho_old) <= 1e-8 * rho:
            return ContractionEstimate(float(np.sqrt(rho)), True)
        rho_old = rho
        x = gx / nrm
    return ContractionEstimate(float(np.sqrt(rho_old)), False)


def rate_identity_oracle(S: AugmentedSystem):
    """Both sides of the rate identity |E|_aug^2 = 1 - 1/K, computed by
    two independent dense routines.

    The left side takes the worst seminorm contraction of the explicit
    sweep propagator restricted to the range of the augmented operator;
    the right side takes the smallest positive eigenvalue mu of the
    pencil  Aug x = mu (Aug + L D^{-1} L^T) x  and returns 1 - mu.

    The sweep matrix B is ``S.sweep`` and the block diagonal D pairs RAP
    with diag(A).
    """
    N = S.dim
    coarse = np.s_[: S.n_coarse, : S.n_coarse]
    B = S.sweep
    D = np.diag(np.diag(B))
    D[coarse] = B[coarse]
    Aug = 0.5 * (S.matrix + S.matrix.T)

    # lhs: E = I - B^{-1} Aug on the positive eigenspace of Aug
    E = np.eye(N) - np.linalg.solve(B, Aug)
    w, V = np.linalg.eigh(Aug)
    cutoff = max(NULL_TOL**2, np.max(np.abs(w)) * 1e-12)
    pos = w > cutoff
    Vp, wp = V[:, pos], w[pos]
    G = Vp.T @ (E.T @ Aug @ E) @ Vp
    scale = 1.0 / np.sqrt(wp)
    W = scale[:, None] * G * scale[None, :]
    lhs = float(np.linalg.eigvalsh(0.5 * (W + W.T)).max())

    # rhs: smallest positive eigenvalue of the pencil against Aug + S
    L = D - B  # strictly block-lower part of the splitting
    Ssym = L @ np.linalg.solve(D, L.T)
    pencil_b = Aug + 0.5 * (Ssym + Ssym.T)
    mu, X = scipy.linalg.eigh(Aug, pencil_b)
    # B-normalised eigenvectors have squared seminorm x' Aug x = mu, so
    # null directions are exactly the mu that vanish up to roundoff;
    # cutting on mu (not its square root) keeps float null-noise out
    positive = mu[mu > NULL_TOL]
    if len(positive) == 0:
        raise ValueError("no eigenvector with positive augmented seminorm")
    rhs = float(1.0 - positive.min())
    return lhs, rhs
