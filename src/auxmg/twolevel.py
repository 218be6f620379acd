"""Two-level auxiliary-space preconditioning and its augmented-system
analysis.

The preconditioner action on a residual r (zero initial guess) is

    optional forward Gauss-Seidel presmoothing,
    coarse correction  P * solve(P^T A P, P^T residual),
    one Gauss-Seidel postsmoothing sweep (backward by default).

With presmoothing on and a symmetric coarse solve the action is a
symmetric positive definite operator, so it can sit inside CG or
MINRES as well as FGMRES.

The same iteration is equivalently a block Gauss-Seidel sweep on the
singular augmented system over the redundant coarse+fine basis; that
equivalence, the convergence-rate identity |E|^2 = 1 - 1/K of the
augmented formulation, and a power-iteration contraction estimator are
implemented here as executable cross-checks of the solver stack.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.linalg

from .amg import build_hierarchy, smooth_and_correct, vcycle_apply
from .csr import CsrMatrix, GaussSeidel, _as_block, cholesky_factor, cholesky_solve, matmul, spmv, triple_product


class TwoLevelPreconditioner:
    """Smoothing on the fine operator plus an exact-or-AMG coarse solve:
    the top level of a V-cycle whose coarse levels are a hierarchy of
    P^T A P.

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
        Forward Gauss-Seidel sweep before the coarse correction; with it
        the action is symmetric.
    post : "backward" or "forward"
        Direction of the single postsmoothing sweep.
    """

    def __init__(self, A: CsrMatrix, P: CsrMatrix, coarse="amg", theta=0.25,
                 presmooth=True, post="backward"):
        if A.nrows != A.ncols or A.nrows != P.nrows:
            raise ValueError("A and P dimensions do not match")
        if post not in ("backward", "forward"):
            raise ValueError("post must be 'backward' or 'forward'")
        self.A = A
        self.P = P
        A_H = triple_product(P.transpose(), A, P)
        self.forward = GaussSeidel(A, "forward")
        self.backward = GaussSeidel(A, "backward")
        self.presmooth = presmooth
        self.post = post
        if coarse == "exact":
            self.hierarchy = build_hierarchy(A_H, max_levels=1)
        elif coarse == "amg":
            self.hierarchy = build_hierarchy(A_H, theta=theta)
        else:
            raise ValueError(f"unknown coarse solver {coarse!r}")

    def coarse_solve(self, r_H):
        return vcycle_apply(self.hierarchy, r_H)

    def apply(self, r):
        """The action on a residual vector or on each column of an (n, k)
        block."""
        r = _as_block(r, self.A.nrows, "residual for the operator")
        pre = self.forward if self.presmooth else None
        post = self.backward if self.post == "backward" else self.forward
        return smooth_and_correct(self.A, self.P, r, self.coarse_solve, pre, post)

    def apply_transpose(self, r):
        """Adjoint action: smoother order and directions reversed."""
        r = _as_block(r, self.A.nrows, "residual for the operator")
        pre = self.forward if self.post == "backward" else self.backward
        post = self.backward if self.presmooth else None
        return smooth_and_correct(self.A, self.P, r, self.coarse_solve, pre, post)

    __call__ = apply

    def operator_complexity(self) -> float:
        """Stored nonzeros of the fine level plus the whole coarse
        hierarchy, relative to the fine level."""
        return 1.0 + sum(lvl.A.nnz for lvl in self.hierarchy.levels) / self.A.nnz

    def level_count(self) -> int:
        """The fine level plus every coarse level that has unknowns."""
        return 1 + sum(lvl.A.nrows > 0 for lvl in self.hierarchy.levels)


# -- augmented formulation --------------------------------------------------


@dataclass
class AugmentedSystem:
    """Blocks of the singular augmented operator [[RAP, RA], [AP, A]]
    over the redundant coarse+fine basis, plus the prepared solves of its
    block Gauss-Seidel sweep."""

    A: CsrMatrix
    P: CsrMatrix
    A_H: CsrMatrix   # R A P
    RA: CsrMatrix    # R A (coarse-fine coupling)
    AP: CsrMatrix    # A P
    forward: GaussSeidel  # tril(A)^{-1}, prepared once
    coarse_factor: np.ndarray  # dense Cholesky factor of A_H, factored once

    @property
    def n_coarse(self):
        return self.P.ncols

    @property
    def n_fine(self):
        return self.A.nrows

    @property
    def dim(self):
        return self.n_coarse + self.n_fine

    def matvec(self, v):
        vc, vf = v[: self.n_coarse], v[self.n_coarse :]
        top = spmv(self.A_H, vc) + spmv(self.RA, vf)
        bot = spmv(self.AP, vc) + spmv(self.A, vf)
        return np.concatenate([top, bot])

    def to_dense(self):
        top = np.hstack([self.A_H.to_dense(), self.RA.to_dense()])
        bot = np.hstack([self.AP.to_dense(), self.A.to_dense()])
        return np.vstack([top, bot])


def build_augmented(A: CsrMatrix, P: CsrMatrix) -> AugmentedSystem:
    if A.nrows != A.ncols or A.nrows != P.nrows:
        raise ValueError("A and P dimensions do not match")
    R = P.transpose()
    RA = matmul(R, A)
    AP = matmul(A, P)
    A_H = triple_product(R, A, P)
    return AugmentedSystem(A=A, P=P, A_H=A_H, RA=RA, AP=AP, forward=GaussSeidel(A, "forward"),
                           coarse_factor=cholesky_factor(A_H.to_dense()))


def augmented_rhs(S: AugmentedSystem, f) -> np.ndarray:
    f = np.asarray(f, dtype=np.float64)
    return np.concatenate([spmv(S.P.transpose(), f), f])


def augmented_gs_step(S: AugmentedSystem, v, f) -> np.ndarray:
    """One block Gauss-Seidel update v + (D - L)^{-1} (f - A v).

    The coarse block is solved exactly (dense Cholesky), the fine block
    by one forward Gauss-Seidel sweep fed by the updated coarse value.
    """
    v = np.asarray(v, dtype=np.float64)
    f = np.asarray(f, dtype=np.float64)
    if v.shape[0] != S.dim or f.shape[0] != S.dim:
        raise ValueError("augmented vector length mismatch")
    r = f - S.matvec(v)
    rc, rf = r[: S.n_coarse], r[S.n_coarse :]
    zc = cholesky_solve(S.coarse_factor, rc)
    zf = S.forward(rf - spmv(S.AP, zc))
    return v + np.concatenate([zc, zf])


def flatten_augmented(S: AugmentedSystem, v) -> np.ndarray:
    """Fine-space coefficients P v_coarse + v_fine of an augmented vector."""
    return spmv(S.P, v[: S.n_coarse]) + v[S.n_coarse :]


# -- convergence-rate oracles ----------------------------------------------


class ContractionEstimate(NamedTuple):
    value: float
    converged: bool
    iterations: int


def contraction_factor_estimate(M: TwoLevelPreconditioner, A: CsrMatrix,
                                iters=200, seed=0, tol=1e-8) -> ContractionEstimate:
    """A-norm of the error propagator E = I - M A by power iteration on
    E* E in the A-inner product (E* uses the transposed action)."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(A.nrows)

    def a_dot(u, w):
        return float(u @ spmv(A, w))

    x /= np.sqrt(a_dot(x, x))
    rho_old = np.inf
    for it in range(1, iters + 1):
        ex = x - M.apply(spmv(A, x))
        gx = ex - M.apply_transpose(spmv(A, ex))
        rho = a_dot(ex, ex)
        nrm = np.sqrt(max(a_dot(gx, gx), 0.0))
        if rho <= 1e-20 or nrm == 0.0:
            # exact (or numerically exact) preconditioner: E is roundoff
            return ContractionEstimate(float(np.sqrt(max(rho, 0.0))), True, it)
        if abs(rho - rho_old) <= tol * rho:
            return ContractionEstimate(float(np.sqrt(rho)), True, it)
        rho_old = rho
        x = gx / nrm
    return ContractionEstimate(float(np.sqrt(rho_old)), False, iters)


def rate_identity_oracle(S: AugmentedSystem, dense_limit=500, null_tol=1e-10):
    """Both sides of the rate identity |E|_aug^2 = 1 - 1/K, computed by
    two independent dense routines.

    The left side takes the worst seminorm contraction of the explicit
    sweep propagator restricted to the range of the augmented operator;
    the right side takes the smallest positive eigenvalue mu of the
    pencil  Aug x = mu (Aug + L D^{-1} L^T) x  and returns 1 - mu.

    The sweep matrix B is the block lower triangle [[RAP, 0], [AP,
    tril(A)]] and the block diagonal D pairs RAP with diag(A).
    """
    N = S.dim
    if N > dense_limit:
        raise ValueError(f"augmented dimension {N} exceeds dense limit {dense_limit}")
    dense = S.to_dense()
    coarse = np.s_[: S.n_coarse, : S.n_coarse]
    B = np.tril(dense)
    B[coarse] = dense[coarse]
    D = np.diag(np.diag(B))
    D[coarse] = dense[coarse]
    Aug = 0.5 * (dense + dense.T)

    # lhs: E = I - B^{-1} Aug on the positive eigenspace of Aug
    E = np.eye(N) - np.linalg.solve(B, Aug)
    w, V = np.linalg.eigh(Aug)
    cutoff = max(null_tol**2, np.max(np.abs(w)) * 1e-12)
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
    positive = mu[mu > null_tol]
    if len(positive) == 0:
        raise ValueError("no eigenvector with positive augmented seminorm")
    rhs = float(1.0 - positive.min())
    return lhs, rhs
