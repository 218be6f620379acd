"""Preconditioned Krylov solvers: CG, MINRES and flexible GMRES.

Each solver applies the preconditioner and the operator once per
iteration, except that FGMRES takes the operator's product from a
preconditioner that offers it (see :func:`fgmres`), and tracks its
residual by recurrence: CG carries r, MINRES carries A w next to its
direction w, and FGMRES reads |g_{j+1}| off its Givens rotations.  All
three share one stopping rule, :class:`_Residuals`, on the relative
residual ||r_i|| / ||b|| (or / ||r_0|| when b = 0, the zero-rhs
random-guess benchmarking protocol).  When the recurrence value reaches
rel_tol, or the iteration cap is reached, the true residual b - A x_i is
formed and replaces it (residual replacement, van der Vorst & Ye, SIAM
J. Sci. Comput. 22, 2000); the solve stops only if that true value meets
rel_tol too, and otherwise CG (with a fresh search direction) and MINRES
continue from it and FGMRES restarts from it.  FGMRES forms its iterate,
and that iterate's true residual, only there and at each restart.

The returned :class:`SolveReport` records one value per iterate, so
``iterations`` is ``len(residual_history) - 1``.  The entries are
recurrence values, except the first, the last and each restart or
replacement point, which are true residuals; a converged report's last
entry is always a true residual <= rel_tol.  A non-finite residual,
recurrence or true, raises FloatingPointError at the iterate that
produced it, and so does a non-finite iterate, checked wherever its true
residual is formed (a singular A can keep that residual finite).
Operators must return a new array, which the solvers may update in place.

MINRES and FGMRES minimise a residual norm, so an unconverged solve whose
last true residual is above the smallest true residual it has formed
(x0's included) has broken down, as it does on a singular, inconsistent
system.  It returns that better iterate instead, with ``converged=False``
and its report cut back to that iterate.  PCG minimises the energy norm
of the error, under which a later iterate is the better one even when its
residual is larger, so it always returns its last iterate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from numbers import Integral, Real

import numpy as np

from .csr import CsrMatrix, spmv


class IndefiniteOperatorError(RuntimeError):
    """A direction with nonpositive curvature or preconditioner energy."""


def _is_int(x):
    return isinstance(x, Integral) and not isinstance(x, bool)


@dataclass
class SolverConfig:
    method: str = "fgmres"  # cg | minres | fgmres
    rel_tol: float = 1e-6
    max_iters: int = 500
    restart: int = 100  # fgmres only

    def __post_init__(self):
        if self.method not in ("cg", "minres", "fgmres"):
            raise ValueError(f"unknown Krylov method {self.method!r}")
        if isinstance(self.rel_tol, bool) or not (isinstance(self.rel_tol, Real) and 0 < self.rel_tol < math.inf):
            raise ValueError(f"rel_tol must be finite and positive, got {self.rel_tol!r}")
        if not (_is_int(self.max_iters) and self.max_iters >= 0):
            raise ValueError(f"max_iters must be a non-negative int, got {self.max_iters!r}")
        if not (_is_int(self.restart) and self.restart >= 1):
            raise ValueError(f"restart must be an int of at least 1, got {self.restart!r}")


@dataclass
class SolveReport:
    iterations: int
    converged: bool
    # relative residuals, length iterations+1: recurrence values, except the
    # first, the last and each restart or replacement point, which are true
    residual_history: np.ndarray
    precond_residual_history: np.ndarray | None = None  # MINRES: M-norm recurrence
    # the calls of the operator (r0 and every true residual included) and
    # of the preconditioner; a paired FGMRES step counts one of the latter
    operator_applies: int = 0
    precond_applies: int = 0

    @property
    def convergence_factor(self) -> float | None:
        """The observed residual reduction per iteration,
        (h[-1] / h[0]) ** (1 / iterations) over the history h, whose two
        ends are true residuals; None at zero iterations."""
        if not self.iterations:
            return None
        h = self.residual_history
        return float((h[-1] / h[0]) ** (1.0 / self.iterations))


def _as_operator(obj):
    if obj is None:
        return lambda x: x
    if isinstance(obj, CsrMatrix):
        return partial(spmv, obj)
    if callable(obj):
        return obj
    raise TypeError(f"cannot interpret {type(obj).__name__} as a linear operator")


class _Residuals:
    """The stopping rule of all three solvers, and the counter of their
    operator and preconditioner applies.

    Validates b and the initial iterate (a non-finite entry in either
    fails here, before it reaches an operator or a recurrence) and forms
    r0 = b - A x0, with no product for a zero guess.  ``r`` is r0; the
    solver owns it and may update it in place.  Every iteration records
    its recurrence residual norm with :meth:`check`, and :meth:`replace`
    puts the true residual of an iterate in place of that value.  The
    solvers apply A and M through :meth:`A` and :meth:`M`, which count.
    """

    def __init__(self, A, M, b, x0, cfg: SolverConfig):
        b = np.asarray(b, dtype=np.float64)
        x = np.zeros_like(b) if x0 is None else np.array(x0, dtype=np.float64)
        for name, v in (("b", b), ("x0", x)):
            bad = np.flatnonzero(~np.isfinite(v))
            if len(bad):
                raise ValueError(f"{name} has a non-finite entry at index {bad[0]}: {v[bad[0]]}")
        self._A, self._M = _as_operator(A), _as_operator(M)
        self.operator_applies = self.precond_applies = 0
        self.b, self.x0 = b, x
        self.rel_tol, self.max_iters = cfg.rel_tol, cfg.max_iters
        self.r = b.copy() if x0 is None else b - self.A(x)
        nb = np.linalg.norm(b)
        self.denom = nb if nb > 0.0 else max(np.linalg.norm(self.r), np.finfo(float).tiny)
        self.history = [self._relative(np.linalg.norm(self.r), "true residual", 0)]
        self.converged = bool(self.history[0] <= self.rel_tol)
        # the smallest true residual so far, its iterate number and that
        # iterate; iterate 0 is the caller's x0, which the solve leaves alone
        self._best = (self.history[0], 0, x0)

    @property
    def iterations(self):
        return len(self.history) - 1

    def A(self, x):
        self.operator_applies += 1
        return self._A(x)

    def M(self, x):
        self.precond_applies += 1
        return self._M(x)

    def check(self, rnorm):
        """Record the recurrence residual norm of the next iterate.  True
        when that iterate needs its true residual: the value meets
        rel_tol, or the iteration cap is reached."""
        rel = self._relative(rnorm, "residual", len(self.history))
        self.history.append(rel)
        return rel <= self.rel_tol or self.iterations >= self.max_iters

    def replace(self, x, r):
        """Form the true residual b - A x of the newest iterate into r and
        record it in place of the recurrence value.  True when the solve
        stops: the true value meets rel_tol, or the iteration cap is
        reached."""
        bad = np.flatnonzero(~np.isfinite(x))
        if len(bad):
            raise FloatingPointError(f"non-finite iterate {self.iterations}: entry {bad[0]} is {x[bad[0]]}")
        np.subtract(self.b, self.A(x), out=r)
        self.history[-1] = self._relative(np.linalg.norm(r), "true residual", self.iterations)
        self.converged = bool(self.history[-1] <= self.rel_tol)
        stop = self.converged or self.iterations >= self.max_iters
        if self.history[-1] < self._best[0]:
            # a solve that goes on may update x in place
            self._best = (self.history[-1], self.iterations, x if stop else x.copy())
        return stop

    def _relative(self, rnorm, kind, iterate):
        # tested before any comparison with rel_tol: nan <= tol is False
        rel = rnorm / self.denom
        if not np.isfinite(rel):
            raise FloatingPointError(
                f"non-finite {kind} at iterate {iterate}: "
                "the operator or the preconditioner returned a non-finite vector")
        return rel

    def report(self, **extra):
        return SolveReport(self.iterations, self.converged, np.asarray(self.history),
                           operator_applies=self.operator_applies, precond_applies=self.precond_applies, **extra)

    def best(self, x, **histories):
        """The result of a residual-minimising solve (MINRES, FGMRES): x
        and its report, or, when the solve ends unconverged with a true
        residual above the smallest one it has formed, that residual's
        iterate and the report cut back to it (``histories``, one entry per
        iterate, are cut too).  For these methods a rise of the true
        residual means breakdown, as on a singular, inconsistent system."""
        rel, k, best = self._best
        if self.converged or self.history[-1] <= rel:
            return x, self.report(**histories)
        if k == 0:
            best = np.zeros_like(self.b) if best is None else np.array(best, dtype=np.float64)
        del self.history[k + 1:]
        return best, self.report(**{name: h[: k + 1] for name, h in histories.items()})


def pcg(A, M, b, cfg: SolverConfig | None = None, x0=None):
    """Preconditioned conjugate gradients for SPD A with SPD M ~ A^{-1}."""
    cfg = cfg or SolverConfig(method="cg")
    res = _Residuals(A, M, b, x0, cfg)
    A, M = res.A, res.M
    x, r = res.x0, res.r  # r is updated by recurrence, in place
    z = M(r)
    rz = r @ z
    p = z.copy()
    while not res.converged and res.iterations < cfg.max_iters:
        Ap = A(p)
        pAp = p @ Ap
        if pAp == np.inf:  # alpha would be 0, and the solve would stall silently
            raise FloatingPointError(f"non-finite curvature p'Ap at iterate {res.iterations + 1}: the product overflowed")
        if pAp <= 0.0:
            raise IndefiniteOperatorError(f"nonpositive curvature p'Ap = {pAp:g} at iteration {res.iterations}")
        alpha = rz / pAp
        x += alpha * p
        r -= alpha * Ap
        verify = res.check(np.linalg.norm(r))
        if verify and res.replace(x, r):
            break
        z = M(r)
        rz_new = r @ z
        # after a replacement r is no longer the residual the directions were
        # built on, so the search direction restarts from it
        p = z.copy() if verify else z + (rz_new / rz) * p
        rz = rz_new
    return x, res.report()


def minres(A, M, b, cfg: SolverConfig | None = None, x0=None):
    """Preconditioned MINRES for symmetric (possibly indefinite) A.

    M must be symmetric positive definite; the M-norm of the residual
    is minimised and its recurrence values are reported alongside the
    unpreconditioned residuals.  The solve also stops when the next
    Lanczos vector vanishes (the Krylov space is exhausted); the true
    residual of that iterate sets ``converged``.
    """
    cfg = cfg or SolverConfig(method="minres")
    res = _Residuals(A, M, b, x0, cfg)
    Aop, Mop = res.A, res.M
    x, r = res.x0, res.r  # r is updated by recurrence, in place
    y = Mop(r)
    beta1_sq = r @ y
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
    Aw = np.zeros_like(res.b)
    Aw2 = np.zeros_like(res.b)
    r1, r2 = None, r.copy()  # Lanczos vectors; r1 is first read at iteration 2
    while not res.converged and res.iterations < cfg.max_iters:
        v = y / beta
        Av = Aop(v)
        y = Av - (beta / oldb) * r1 if res.iterations >= 1 else Av.copy()
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
        Aw1 = Aw2
        Aw2 = Aw
        Aw = (Av - oldeps * Aw1 - delta * Aw2) / gamma
        x += phi * w
        r -= phi * Aw

        phibar_history.append(abs(phibar))
        # the next Lanczos vector vanished: the true residual decides convergence
        exhausted = beta == 0.0
        if (res.check(np.linalg.norm(r)) or exhausted) and (res.replace(x, r) or exhausted):
            break
    return res.best(x, precond_residual_history=np.asarray(phibar_history))


def fgmres(A, M, b, cfg: SolverConfig | None = None, x0=None):
    """Right-preconditioned flexible GMRES with restart.

    ``M`` may vary between applications (an inner iterative solve); the
    preconditioned directions are stored, so any fixed M reproduces
    ordinary right-preconditioned GMRES.  The iterate is formed only when
    a cycle ends: the Givens residual meets rel_tol, the cycle is full,
    the Krylov space is exhausted, or the iteration cap is reached.
    Stagnation over a full restart cycle (relative residual reduction
    below 1e-14) ends the solve with ``converged=False``.

    Each Arnoldi step needs z = M v and A z.  A preconditioner built on
    this very ``A`` (``M.A is A``, the same object) that offers
    ``apply_with_product`` returns both from one action, with A z read off
    its last sweep, so the step forms no product by A; z is bit-identical
    and A z agrees with the product to roundoff.  Any other pair (a
    callable operator, a different or equal-valued matrix, a wrapped M)
    forms A z by applying A.  r0 and every true residual always apply A.
    """
    cfg = cfg or SolverConfig(method="fgmres")
    res = _Residuals(A, M, b, x0, cfg)
    x, r = res.x0, res.r  # r is overwritten with the true residual at each cycle end
    if getattr(M, "A", None) is A and hasattr(M, "apply_with_product"):
        def step(v):
            res.precond_applies += 1
            return M.apply_with_product(v)
    else:
        def step(v):
            z = res.M(v)
            return z, res.A(z)
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
        j = 0
        while True:
            z, wv = step(V[j])
            Z.append(z)
            for i in range(j + 1):
                H[i, j] = V[i] @ wv
                wv -= H[i, j] * V[i]
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
            j += 1
            if res.check(abs(g[j])) or h_new == 0.0 or j == cfg.restart:
                break  # x is wanted, the Krylov space is exhausted, or the cycle is full
        if j:
            y = np.zeros(j)
            for i in range(j - 1, -1, -1):
                y[i] = (g[i] - H[i, i + 1 : j] @ y[i + 1 : j]) / H[i, i]
            x = x + sum(yi * zi for yi, zi in zip(y, Z))
            if res.replace(x, r):
                break
        if res.history[-1] > cycle_start_res * (1.0 - 1e-14):
            break  # stagnated
    return res.best(x)
