"""Preconditioned Krylov solvers: CG, MINRES and flexible GMRES.

All three share one stopping rule, :class:`_Residuals`: they stop on the
recomputed true relative residual ||b - A x_i|| / ||b|| (or / ||r_0||
when b = 0, the zero-rhs random-guess benchmarking protocol), and record
that history in the returned :class:`SolveReport`, whose ``iterations``
is ``len(residual_history) - 1``, so reported iteration counts can never
drift from the actual residuals.  A non-finite true residual raises
FloatingPointError at the iterate that produced it.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import partial
from numbers import Integral

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
        if not (self.rel_tol > 0 and math.isfinite(self.rel_tol)):
            raise ValueError(f"rel_tol must be finite and positive, got {self.rel_tol!r}")
        if not (isinstance(self.max_iters, Integral) and self.max_iters >= 0):
            raise ValueError(f"max_iters must be a non-negative int, got {self.max_iters!r}")
        if not (isinstance(self.restart, Integral) and self.restart >= 1):
            raise ValueError(f"restart must be an int of at least 1, got {self.restart!r}")


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


class _Residuals:
    """The stopping rule of all three solvers.

    Validates b and the initial iterate (a non-finite entry in either
    fails here, before it reaches an operator or a recurrence), forms
    r0 = b - A x0, and records the true relative residual of every
    iterate handed to :meth:`check`.  ``r`` is the last true residual
    formed, b - A x0 until the first check; a solver that updates a
    residual in place works on a copy of it.
    """

    def __init__(self, A, b, x0, rel_tol):
        b = np.asarray(b, dtype=np.float64)
        x = np.zeros_like(b) if x0 is None else np.array(x0, dtype=np.float64)
        for name, v in (("b", b), ("x0", x)):
            bad = np.flatnonzero(~np.isfinite(v))
            if len(bad):
                raise ValueError(f"{name} has a non-finite entry at index {bad[0]}: {v[bad[0]]}")
        self.A, self.b, self.x0, self.rel_tol = A, b, x, rel_tol
        self.t0 = time.perf_counter()
        self.r = b - A(x)
        nb = np.linalg.norm(b)
        self.denom = nb if nb > 0.0 else max(np.linalg.norm(self.r), np.finfo(float).tiny)
        self.history = []
        self._record(self.r)

    @property
    def iterations(self):
        return len(self.history) - 1

    def check(self, x):
        """Record the true residual of iterate x; True once it meets rel_tol."""
        self.r = self.b - self.A(x)
        return self._record(self.r)

    def _record(self, r):
        rel = np.linalg.norm(r) / self.denom
        if not np.isfinite(rel):
            raise FloatingPointError(
                f"non-finite true residual at iterate {len(self.history)}: "
                "the operator or the preconditioner returned a non-finite vector")
        self.history.append(rel)
        self.converged = bool(rel <= self.rel_tol)
        return self.converged

    def report(self, **extra):
        return SolveReport(self.iterations, self.converged, np.asarray(self.history),
                           time.perf_counter() - self.t0, **extra)


def pcg(A, M, b, cfg: SolverConfig | None = None, x0=None, callback=None):
    """Preconditioned conjugate gradients for SPD A with SPD M ~ A^{-1}."""
    cfg = cfg or SolverConfig(method="cg")
    A, M = _as_operator(A), _as_operator(M)
    res = _Residuals(A, b, x0, cfg.rel_tol)
    x, r = res.x0, res.r.copy()  # r is updated by recurrence, in place
    z = M(r)
    rz = r @ z
    p = z.copy()
    while not res.converged and res.iterations < cfg.max_iters:
        Ap = A(p)
        pAp = p @ Ap
        if pAp <= 0.0:
            raise IndefiniteOperatorError(f"nonpositive curvature p'Ap = {pAp:g} at iteration {res.iterations}")
        alpha = rz / pAp
        x += alpha * p
        r -= alpha * Ap
        res.check(x)
        if callback is not None:
            callback(res.iterations, x)
        if res.converged:
            break
        z = M(r)
        rz_new = r @ z
        p = z + (rz_new / rz) * p
        rz = rz_new
    return x, res.report()


def minres(A, M, b, cfg: SolverConfig | None = None, x0=None):
    """Preconditioned MINRES for symmetric (possibly indefinite) A.

    M must be symmetric positive definite; the M-norm of the residual
    is minimised and its recurrence values are reported alongside the
    true unpreconditioned residuals.
    """
    cfg = cfg or SolverConfig(method="minres")
    Aop, Mop = _as_operator(A), _as_operator(M)
    res = _Residuals(Aop, b, x0, cfg.rel_tol)
    x, r1 = res.x0, res.r
    y = Mop(r1)
    beta1_sq = r1 @ y
    if beta1_sq < 0.0:
        raise IndefiniteOperatorError(f"preconditioner yields negative energy r'Mr = {beta1_sq:g}")
    beta1 = np.sqrt(beta1_sq)
    phibar_history = [beta1]
    if beta1 == 0.0 and not res.converged:
        raise IndefiniteOperatorError("preconditioner annihilated a nonzero residual")

    oldb, beta = 0.0, beta1
    dbar = epsln = 0.0
    phibar = beta1
    cs, sn = -1.0, 0.0
    w = np.zeros_like(res.b)
    w2 = np.zeros_like(res.b)
    r2 = r1.copy()
    while not res.converged and res.iterations < cfg.max_iters:
        v = y / beta
        y = Aop(v)
        if res.iterations >= 1:
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

        res.check(x)
        phibar_history.append(abs(phibar))
    return x, res.report(precond_residual_history=np.asarray(phibar_history))


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
    res = _Residuals(Aop, b, x0, cfg.rel_tol)
    x, r = res.x0, res.r
    while not res.converged and res.iterations < cfg.max_iters:
        cycle_start_res = res.history[-1]
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
        while j < cfg.restart and res.iterations < cfg.max_iters:
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

            j += 1
            if res.check(x_new) or h_new == 0.0:
                break  # converged, or Krylov space exhausted: force a restart
        x = x_new
        if res.converged:
            break
        r = res.r  # the true residual of x, formed by its check
        if res.history[-1] > cycle_start_res * (1.0 - 1e-14):
            break  # stagnated
    return x, res.report()
