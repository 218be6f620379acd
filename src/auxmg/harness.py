"""Experiment driver: order x threshold x refinement x engine sweeps.

Poisson rows follow the zero-right-hand-side protocol: every solve
starts from a seeded random initial guess and iterates to a relative
residual reduction, so iteration counts measure the preconditioner and
nothing else.  Stokes rows solve the lid-driven cavity from x0 = 0, so
``seed`` reaches Poisson rows only.  Reports carry iteration counts,
operator complexities, level counts and wall times, and serialise to
CSV and markdown.
"""

from __future__ import annotations

import csv
import io
import os
import time
from dataclasses import asdict, dataclass, field, fields
from math import comb
from numbers import Real

import numpy as np

from .amg import CoarseLevelTooLargeError, VCyclePreconditioner, build_hierarchy
from .csr import NotPositiveDefiniteError, spmv, triple_product
from .krylov import IndefiniteOperatorError, SolverConfig, _is_int, fgmres
from .problems import poisson_setup
from .reference import MAX_ORDER
from .stokes import _METHODS, InnerSolveError, _solve_preconditioned, assemble_stokes, build_block_preconditioner
from .twolevel import (
    TwoLevelPreconditioner,
    build_augmented,
    contraction_factor_estimate,
    rate_identity_oracle,
    augmented_gs_step,
)
from .mesh import build_cube_mesh
from .fem import assemble_operator


# the largest assembly ExperimentConfig admits, in assembly_bytes: P2
# Poisson up to n = 63, P4 Poisson up to n = 27, P2/P1 Stokes up to n = 48
MAX_ASSEMBLY_BYTES = 4 * 2**30


def assembly_bytes(problem, k, n):
    """The traced bytes of the largest assembly at refinement n, over the
    6 n^3 tets: 3.5 x 8 B per element triplet of the P^k stiffness for
    Poisson, and of the velocity stiffness plus the three divergence
    blocks for Stokes.  For "prolongation", the P^k and P1 spaces and the
    transfer between them: 26 x 8 B per tet and local P^k DOF (186-205 B
    traced at n = 8 and 12, k = 1..4)."""
    local = comb(k + 3, 3)
    if problem == "prolongation":
        return 208 * 6 * int(n) ** 3 * local
    per_tet = local ** 2
    if problem == "stokes":
        per_tet += 3 * local * comb(k + 2, 3)
    return 28 * 6 * int(n) ** 3 * per_tet


def dof_count(problem, k, n):
    """The unknowns of a grid point: the (k n - 1)^3 interior P^k DOFs of
    the cube for Poisson; for Stokes three velocity components of those
    plus the ((k - 1) n + 1)^3 P^{k-1} pressure DOFs."""
    interior = (k * n - 1) ** 3
    return interior if problem == "poisson" else 3 * interior + ((k - 1) * n + 1) ** 3


def check_assembly_size(problem, k, n, what):
    """Raise a ValueError that starts with ``what`` when the assembly at
    refinement n would exceed ``MAX_ASSEMBLY_BYTES``."""
    need = assembly_bytes(problem, k, n)
    if need > MAX_ASSEMBLY_BYTES:
        raise ValueError(f"{what} n = {n}, whose {problem} k = {k} assembly needs an estimated {need:,} bytes, "
                         f"above MAX_ASSEMBLY_BYTES = {MAX_ASSEMBLY_BYTES:,}")


@dataclass
class ExperimentConfig:
    problem: str = "poisson"
    k: int = 2
    refinements: list = field(default_factory=lambda: [2, 3])
    theta_values: list = field(default_factory=lambda: [0.25])
    engine: str = "gamg"
    precond_kind: str = "Qt"  # stokes only
    rel_tol: float = 1e-6
    max_iters: int = 300
    seed: int = 0
    output_dir: str = "."

    def __post_init__(self):
        if self.problem not in ("poisson", "stokes"):
            raise ValueError(f"unknown problem {self.problem!r}")
        if self.engine not in ("amg", "gamg"):
            raise ValueError(f"unknown engine {self.engine!r}")
        if self.precond_kind not in ("Qt", "Qd"):
            raise ValueError(f"precond_kind must be 'Qt' or 'Qd', got {self.precond_kind!r}")
        k_min = 1 if self.problem == "poisson" else 2
        if not (_is_int(self.k) and k_min <= self.k <= MAX_ORDER):
            raise ValueError(f"k must be an int in {k_min}..{MAX_ORDER} for {self.problem}, got {self.k!r}")
        if not (isinstance(self.refinements, (list, tuple)) and self.refinements):
            raise ValueError(f"refinements must be a nonempty list, got {self.refinements!r}")
        for n in self.refinements:
            if not (_is_int(n) and n >= 1 and dof_count(self.problem, self.k, n) > 0):
                raise ValueError(f"refinements must hold ints >= 1, and >= 2 for poisson with k = 1, got {n!r}")
            check_assembly_size(self.problem, self.k, n, "refinements hold")
        if not (_is_int(self.seed) and self.seed >= 0):
            raise ValueError(f"seed must be a non-negative int, got {self.seed!r}")
        if not (isinstance(self.theta_values, (list, tuple)) and self.theta_values):
            raise ValueError(f"theta_values must be a nonempty list, got {self.theta_values!r}")
        for t in self.theta_values:
            if not (isinstance(t, Real) and 0.0 < t < 1.0):
                raise ValueError(f"theta_values must hold numbers in (0, 1), got {t!r}")
        SolverConfig(rel_tol=self.rel_tol, max_iters=self.max_iters)  # raises naming the field
        if not isinstance(self.output_dir, (str, os.PathLike)):
            raise ValueError(f"output_dir must be a path, got {self.output_dir!r}")


@dataclass
class ReportRow:
    problem: str
    k: int
    n_dofs: int
    theta: float
    engine: str
    iterations: int
    converged: bool
    c_op: float
    setup_time: float
    solve_time: float
    level_count: int
    error: str = ""


CSV_COLUMNS = [f.name for f in fields(ReportRow)]


def _poisson_setup(n, theta, cfg: ExperimentConfig, rng):
    """GAMG (two-level with AMG coarse solve) or plain AMG V-cycle, and
    FGMRES from a seeded random guess.

    For k = 1 the auxiliary space coincides with the original one, so
    GAMG degenerates to smoothing around an AMG solve of the same
    operator; ``build_prolongation`` gives the identity transfer.
    """
    problem = poisson_setup(n, cfg.k)
    A = problem.system.A
    if cfg.engine == "amg":
        M = VCyclePreconditioner(build_hierarchy(A, theta=theta))
    else:
        M = TwoLevelPreconditioner(A, problem.prolongation_int, coarse="amg", theta=theta, presmooth=True)
    x0 = rng.standard_normal(A.nrows)
    solver_cfg = SolverConfig(rel_tol=cfg.rel_tol, max_iters=cfg.max_iters)
    return A.nrows, M, lambda: fgmres(A, M, np.zeros(A.nrows), solver_cfg, x0=x0)[1]


def _stokes_setup(n, theta, cfg: ExperimentConfig, rng):
    """The cavity with its block preconditioner, and the default Krylov
    method of its block form from zero."""
    S = assemble_stokes(build_cube_mesh(n), cfg.k)
    precond = build_block_preconditioner(S, kind=cfg.precond_kind, engine=cfg.engine, theta=theta)
    solver_cfg = SolverConfig(method=_METHODS[cfg.precond_kind][0], rel_tol=cfg.rel_tol, max_iters=cfg.max_iters)
    return S.dim, precond.a_action, lambda: _solve_preconditioned(S, precond, solver_cfg)[2]


# numerical breakdowns a grid point may hit; any other exception is a bug
# and propagates
_RECORDED_FAILURES = (
    NotPositiveDefiniteError,
    IndefiniteOperatorError,
    InnerSolveError,
    np.linalg.LinAlgError,
    CoarseLevelTooLargeError,
)


def run_experiment(cfg: ExperimentConfig) -> list:
    """One ReportRow per (refinement, theta) grid point; expected
    numerical failures are recorded as rows with an error string and the
    run continues.

    A point's setup returns its DOF count, the cycle whose
    operator_complexity() and level_count() the row reports, and the
    solve, which returns the SolveReport; each of the two is timed.  A
    failure row carries the point's :func:`dof_count`.
    """
    rows = []
    setup = _poisson_setup if cfg.problem == "poisson" else _stokes_setup
    for point, (n, theta) in enumerate(
        (n, theta) for n in cfg.refinements for theta in cfg.theta_values
    ):
        rng = np.random.default_rng([cfg.seed, point])
        try:
            t0 = time.perf_counter()
            n_dofs, cycle, solve = setup(n, theta, cfg, rng)
            t1 = time.perf_counter()
            report = solve()
            t2 = time.perf_counter()
            rows.append(ReportRow(cfg.problem, cfg.k, n_dofs, theta, cfg.engine, report.iterations,
                                  report.converged, cycle.operator_complexity(), t1 - t0, t2 - t1,
                                  cycle.level_count()))
        except _RECORDED_FAILURES as exc:  # keep sweeping; the row records the failure
            rows.append(ReportRow(cfg.problem, cfg.k, dof_count(cfg.problem, cfg.k, n), theta, cfg.engine,
                                  0, False, 0.0, 0.0, 0.0, 0, error=str(exc)))
    return rows


def emit_report(rows: list, fmt: str) -> str:
    """The ReportRows as CSV (fixed column order) or a markdown table per
    (k, engine).

    Wall-time columns are real measurements and therefore not covered by
    the fixed-seed determinism contract.
    """
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for row in rows:
            d = asdict(row)
            writer.writerow([repr(d[c]) if isinstance(d[c], float) else d[c] for c in CSV_COLUMNS])
        return buf.getvalue()
    if fmt == "markdown":
        return _emit_markdown(rows)
    raise ValueError(f"unknown format {fmt!r}")


def _emit_markdown(rows: list) -> str:
    groups: dict = {}
    for row in rows:
        groups.setdefault((row.problem, row.k, row.engine), []).append(row)
    out = []
    for (problem, k, engine), group in groups.items():
        thetas = sorted({r.theta for r in group})
        out.append(f"### {problem} k={k} engine={engine}")
        out.append("| DOF | " + " | ".join(f"theta={t:g}" for t in thetas) + " |")
        out.append("|---:|" + "---:|" * len(thetas))
        by_dof: dict = {}
        for r in group:
            by_dof.setdefault(r.n_dofs, {})[r.theta] = r
        for dof in sorted(by_dof):
            cells = []
            for t in thetas:
                r = by_dof[dof].get(t)
                if r is None:
                    cells.append("-")
                elif r.error:
                    cells.append("err")
                else:
                    cells.append(f"{r.iterations}" if r.converged else f">{r.iterations}")
            out.append(f"| {dof} | " + " | ".join(cells) + " |")
        out.append("")
    return "\n".join(out)


# -- oracle verification ------------------------------------------------------


def _record(records, oracle, instance, lhs, rhs, tol, ok=True):
    """One oracle record; it passes when |lhs - rhs| <= tol and ``ok``."""
    diff = abs(lhs - rhs)
    records.append({
        "oracle": oracle, "instance": instance,
        "lhs": float(lhs), "rhs": float(rhs), "diff": float(diff),
        "tolerance": tol, "pass": bool(diff <= tol and ok),
    })


def verification_report(seed: int = 0) -> dict:
    """Run the algebraic oracle suite and return JSON-ready records.

    Covers: Galerkin coarse-operator consistency, the augmented-system
    null space, the block Gauss-Seidel equivalence of the two-level
    iteration, the convergence-rate identity, the coarse-projection
    energy bound, and the contraction-factor estimator against the
    dense rate oracle.
    """
    rng = np.random.default_rng(seed)
    records: list = []

    for k in (2, 3):
        for n in (1, 2):
            problem = poisson_setup(n, k)
            A_full = assemble_operator(problem.fine_space, "stiffness")
            direct = assemble_operator(problem.transfer.coarse_space, "stiffness")
            P_full = problem.transfer.prolongation
            gal = triple_product(P_full.transpose(), A_full, P_full)
            diff = np.max(np.abs(gal.to_dense() - direct.to_dense()))
            scale = np.max(np.abs(direct.to_dense()))
            _record(records, "galerkin_consistency", f"k={k} n={n}", diff / scale, 0.0, 1e-12)

            A, P = problem.system.A, problem.prolongation_int
            S = build_augmented(A, P)
            if S.n_coarse:
                norm = np.max(np.abs(S.matrix))
                worst = 0.0
                for _ in range(5):
                    c = rng.standard_normal(S.n_coarse)
                    v = np.concatenate([c, -spmv(P, c)])
                    worst = max(worst, np.max(np.abs(S.matrix @ v)) / (norm * max(1.0, np.max(np.abs(c)))))
                _record(records, "augmented_null_space", f"k={k} n={n}", worst, 0.0, 1e-12)

            M = TwoLevelPreconditioner(A, P, coarse="exact", presmooth=False)
            f = rng.standard_normal(A.nrows)
            u = rng.standard_normal(A.nrows)
            f_aug = S.W.T @ f
            v = np.concatenate([np.zeros(S.n_coarse), u])
            worst = 0.0
            for _ in range(10):
                u = u + M.apply(f - spmv(A, u))
                v = augmented_gs_step(S, v, f_aug)
                worst = max(worst, np.max(np.abs(S.W @ v - u)))
            _record(records, "block_gs_equivalence", f"k={k} n={n}", worst, 0.0, 1e-12)

            lhs, rhs = rate_identity_oracle(S)
            _record(records, "rate_identity", f"k={k} n={n}", lhs, rhs, 1e-8, ok=lhs < 1.0)

    for k, n, pseed in ((2, 2, 1), (3, 2, 2)):
        problem = poisson_setup(n, k, perturb_seed=pseed)
        A, P = problem.system.A, problem.prolongation_int
        S = build_augmented(A, P)
        lhs, rhs = rate_identity_oracle(S)
        _record(records, "rate_identity", f"k={k} n={n} perturbed seed={pseed}", lhs, rhs, 1e-8,
                ok=lhs < 1.0)

        A_H = S.matrix[: S.n_coarse, : S.n_coarse]
        worst = -np.inf
        for _ in range(5):
            vv = rng.standard_normal(A.nrows)
            rav = spmv(P.transpose(), spmv(A, vv))
            margin = vv @ spmv(A, vv) - rav @ np.linalg.solve(A_H, rav)
            worst = max(worst, -margin)
        _record(records, "coarse_energy_bound", f"k={k} n={n} perturbed", max(worst, 0.0), 0.0, 1e-10)

    problem = poisson_setup(2, 2)
    A, P = problem.system.A, problem.prolongation_int
    M = TwoLevelPreconditioner(A, P, coarse="exact", presmooth=False)
    S = build_augmented(A, P)
    lhs, _ = rate_identity_oracle(S)
    est = contraction_factor_estimate(M, A, iters=500, seed=seed)
    _record(records, "contraction_vs_rate_identity", "k=2 n=2", est.value, float(np.sqrt(lhs)), 1e-4,
            ok=est.converged)

    return {
        "seed": seed,
        "records": records,
        "all_pass": all(r["pass"] for r in records),
    }
