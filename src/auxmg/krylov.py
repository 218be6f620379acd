"""Preconditioned Krylov solvers: CG, MINRES and flexible GMRES.

All three stop on the recomputed true relative residual
||b - A x_i|| / ||b|| (or / ||r_0|| when b = 0, the zero-rhs
random-guess benchmarking protocol), and record that history in the
returned :class:`SolveReport` so reported iteration counts can never
drift from the actual residuals.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import partial

import numpy as np

from .csr import CsrMatrix, spmv


class IndefiniteOperatorError(RuntimeError):
    """A direction with nonpositive curvature or preconditioner energy."""


@dataclass
class SolverConfig:
    method: str = "fgmres"  # cg | minres | fgmres
    rel_tol: float = 1e-6
    max_iters: int = 500
    restart: int = 100  # fgmres only

    def __post_init__(self):
        if self.method not in ("cg", "minres", "fgmres"):
            raise ValueError(f"unknown Krylov method {self.method!r}")
        if self.rel_tol <= 0:
            raise ValueError("rel_tol must be positive")
        if self.restart < 1:
            raise ValueError("restart must be at least 1")


@dataclass
class SolveReport:
    iterations: int
    converged: bool
    residual_history: np.ndarray  # true relative residuals, length iterations+1
    wall_time: float
    precond_residual_history: np.ndarray | None = None  # MINRES: M-norm recurrence


def _as_operator(obj):
    if obj is None:
        return lambda x: x
    if isinstance(obj, CsrMatrix):
        return partial(spmv, obj)
    if callable(obj):
        return obj
    raise TypeError(f"cannot interpret {type(obj).__name__} as a linear operator")


def _start(b, x0):
    """b and the initial iterate as float arrays; a non-finite entry in
    either fails here, before it reaches an operator or a recurrence."""
    b = np.asarray(b, dtype=np.float64)
    x = np.zeros_like(b) if x0 is None else np.array(x0, dtype=np.float64)
    for name, v in (("b", b), ("x0", x)):
        bad = np.flatnonzero(~np.isfinite(v))
        if len(bad):
            raise ValueError(f"{name} has a non-finite entry at index {bad[0]}: {v[bad[0]]}")
    return b, x


def _denominator(b, r0):
    nb = np.linalg.norm(b)
    return nb if nb > 0.0 else max(np.linalg.norm(r0), np.finfo(float).tiny)


def pcg(A, M, b, cfg: SolverConfig | None = None, x0=None, callback=None):
    """Preconditioned conjugate gradients for SPD A with SPD M ~ A^{-1}."""
    cfg = cfg or SolverConfig(method="cg")
    A, M = _as_operator(A), _as_operator(M)
    b, x = _start(b, x0)
    t0 = time.perf_counter()
    r = b - A(x)
    denom = _denominator(b, r)
    history = [np.linalg.norm(r) / denom]
    z = M(r)
    rz = r @ z
    p = z.copy()
    converged = history[0] <= cfg.rel_tol
    it = 0
    while not converged and it < cfg.max_iters:
        Ap = A(p)
        pAp = p @ Ap
        if pAp <= 0.0:
            raise IndefiniteOperatorError(f"nonpositive curvature p'Ap = {pAp:g} at iteration {it}")
        alpha = rz / pAp
        x += alpha * p
        r -= alpha * Ap
        it += 1
        true_res = np.linalg.norm(b - A(x)) / denom
        history.append(true_res)
        if callback is not None:
            callback(it, x)
        if true_res <= cfg.rel_tol:
            converged = True
            break
        z = M(r)
        rz_new = r @ z
        p = z + (rz_new / rz) * p
        rz = rz_new
    return x, SolveReport(it, converged, np.asarray(history), time.perf_counter() - t0)


def minres(A, M, b, cfg: SolverConfig | None = None, x0=None):
    """Preconditioned MINRES for symmetric (possibly indefinite) A.

    M must be symmetric positive definite; the M-norm of the residual
    is minimised and its recurrence values are reported alongside the
    true unpreconditioned residuals.
    """
    cfg = cfg or SolverConfig(method="minres")
    Aop, Mop = _as_operator(A), _as_operator(M)
    b, x = _start(b, x0)
    t0 = time.perf_counter()

    r1 = b - Aop(x)
    denom = _denominator(b, r1)
    y = Mop(r1)
    beta1_sq = r1 @ y
    if beta1_sq < 0.0:
        raise IndefiniteOperatorError(f"preconditioner yields negative energy r'Mr = {beta1_sq:g}")
    beta1 = np.sqrt(beta1_sq)
    history = [np.linalg.norm(r1) / denom]
    phibar_history = [beta1]
    if history[0] <= cfg.rel_tol:
        return x, SolveReport(0, True, np.asarray(history), time.perf_counter() - t0,
                              np.asarray(phibar_history))
    if beta1 == 0.0:
        raise IndefiniteOperatorError("preconditioner annihilated a nonzero residual")

    oldb, beta = 0.0, beta1
    dbar = epsln = 0.0
    phibar = beta1
    cs, sn = -1.0, 0.0
    w = np.zeros_like(b)
    w2 = np.zeros_like(b)
    r2 = r1.copy()
    converged = False
    it = 0
    while it < cfg.max_iters:
        it += 1
        v = y / beta
        y = Aop(v)
        if it >= 2:
            y -= (beta / oldb) * r1
        alfa = v @ y
        y -= (alfa / beta) * r2
        r1 = r2
        r2 = y
        y = Mop(r2)
        oldb = beta
        beta_sq = r2 @ y
        if beta_sq < 0.0:
            raise IndefiniteOperatorError(f"preconditioner yields negative energy r'Mr = {beta_sq:g}")
        beta = np.sqrt(beta_sq)

        oldeps = epsln
        delta = cs * dbar + sn * alfa
        gbar = sn * dbar - cs * alfa
        epsln = sn * beta
        dbar = -cs * beta
        gamma = max(np.sqrt(gbar * gbar + beta * beta), np.finfo(float).eps)
        cs = gbar / gamma
        sn = beta / gamma
        phi = cs * phibar
        phibar = sn * phibar

        w1 = w2
        w2 = w
        w = (v - oldeps * w1 - delta * w2) / gamma
        x += phi * w

        true_res = np.linalg.norm(b - Aop(x)) / denom
        history.append(true_res)
        phibar_history.append(abs(phibar))
        if true_res <= cfg.rel_tol:
            converged = True
            break
    return x, SolveReport(it, converged, np.asarray(history), time.perf_counter() - t0,
                          np.asarray(phibar_history))


def fgmres(A, M, b, cfg: SolverConfig | None = None, x0=None):
    """Right-preconditioned flexible GMRES with restart.

    ``M`` may vary between applications (an inner iterative solve); the
    preconditioned directions are stored, so any fixed M reproduces
    ordinary right-preconditioned GMRES.  Stagnation over a full restart
    cycle (relative residual reduction below 1e-14) ends the solve with
    ``converged=False``.
    """
    cfg = cfg or SolverConfig(method="fgmres")
    Aop, Mop = _as_operator(A), _as_operator(M)
    b, x = _start(b, x0)
    t0 = time.perf_counter()

    r = b - Aop(x)
    denom = _denominator(b, r)
    history = [np.linalg.norm(r) / denom]
    if history[0] <= cfg.rel_tol:
        return x, SolveReport(0, True, np.asarray(history), time.perf_counter() - t0)

    it = 0
    converged = False
    stagnated = False
    while it < cfg.max_iters and not converged and not stagnated:
        cycle_start_res = history[-1]
        beta = np.linalg.norm(r)
        V = [r / beta]
        Z = []
        H = np.zeros((cfg.restart + 1, cfg.restart))
        g = np.zeros(cfg.restart + 1)
        g[0] = beta
        # Givens rotations applied progressively to H
        cs = np.zeros(cfg.restart)
        sn = np.zeros(cfg.restart)
        x_new = x
        j = 0
        while j < cfg.restart and it < cfg.max_iters:
            z = Mop(V[j])
            wv = Aop(z)
            Z.append(z)
            for i in range(j + 1):
                H[i, j] = V[i] @ wv
                wv = wv - H[i, j] * V[i]
            h_new = np.linalg.norm(wv)
            H[j + 1, j] = h_new
            if h_new > 0.0:
                V.append(wv / h_new)
            for i in range(j):
                t = cs[i] * H[i, j] + sn[i] * H[i + 1, j]
                H[i + 1, j] = -sn[i] * H[i, j] + cs[i] * H[i + 1, j]
                H[i, j] = t
            rho = np.hypot(H[j, j], H[j + 1, j])
            if rho == 0.0:
                break  # projected system singular: no progress possible
            cs[j], sn[j] = H[j, j] / rho, H[j + 1, j] / rho
            H[j, j] = rho
            H[j + 1, j] = 0.0
            g[j + 1] = -sn[j] * g[j]
            g[j] = cs[j] * g[j]

            y = np.zeros(j + 1)
            for i in range(j, -1, -1):
                y[i] = (g[i] - H[i, i + 1 : j + 1] @ y[i + 1 : j + 1]) / H[i, i]
            x_new = x + sum(yi * zi for yi, zi in zip(y, Z))

            it += 1
            j += 1
            true_res = np.linalg.norm(b - Aop(x_new)) / denom
            history.append(true_res)
            if true_res <= cfg.rel_tol:
                x = x_new
                converged = True
                break
            if h_new == 0.0:
                break  # Krylov space exhausted, force a restart
        if not converged:
            x = x_new
            r = b - Aop(x)
            if history[-1] > cycle_start_res * (1.0 - 1e-14):
                stagnated = True
    return x, SolveReport(it, converged, np.asarray(history), time.perf_counter() - t0)

