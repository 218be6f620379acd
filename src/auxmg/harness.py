"""Experiment driver: order x threshold x refinement x engine sweeps.

Runs follow the zero-right-hand-side protocol: every solve starts from
a seeded random initial guess and iterates to a relative residual
reduction, so iteration counts measure the preconditioner and nothing
else.  Reports carry iteration counts, operator complexities, level
counts and wall times, and serialise to CSV and markdown.
"""

from __future__ import annotations

import csv
import io
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from .amg import CoarseLevelTooLargeError, VCyclePreconditioner, build_hierarchy
from .csr import CsrMatrix, NotPositiveDefiniteError, spmv
from .krylov import IndefiniteOperatorError, SolverConfig, fgmres
from .problems import poisson_setup
from .stokes import InnerSolveError, _solve_preconditioned, assemble_stokes, build_block_preconditioner
from .twolevel import (
    TwoLevelPreconditioner,
    build_augmented,
    contraction_factor_estimate,
    rate_identity_oracle,
    augmented_gs_step,
    augmented_rhs,
    flatten_augmented,
)
from .transfer import galerkin_coarse
from .mesh import build_cube_mesh
from .fem import assemble_operator


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
        if not self.refinements:
            raise ValueError("refinements must be nonempty")
        if not self.theta_values:
            raise ValueError("theta_values must be nonempty")
        for t in self.theta_values:
            if not 0.0 < t < 1.0:
                raise ValueError(f"theta {t} outside (0,1)")


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


@dataclass
class ExperimentReport:
    rows: list


CSV_COLUMNS = [
    "problem", "k", "n_dofs", "theta", "engine", "iterations",
    "converged", "c_op", "setup_time", "solve_time", "level_count", "error",
]
_TIME_COLUMNS = ("setup_time", "solve_time")


def build_poisson_preconditioner(problem, engine, theta):
    """GAMG (two-level with AMG coarse solve) or plain AMG V-cycle.

    For k = 1 the auxiliary space coincides with the original one, so
    GAMG degenerates to smoothing around an AMG solve of the same
    operator (identity transfer).
    """
    A = problem.system.A
    if engine == "amg":
        M = VCyclePreconditioner(build_hierarchy(A, theta=theta))
    else:
        P = problem.prolongation_int if problem.prolongation_int is not None else CsrMatrix.identity(A.nrows)
        M = TwoLevelPreconditioner(A, P, coarse="amg", theta=theta, presmooth=True)
    return M, M.operator_complexity(), M.level_count()


def _poisson_row(k, n, theta, engine, cfg: ExperimentConfig, rng) -> ReportRow:
    t0 = time.perf_counter()
    problem = poisson_setup(n, k)
    M, c_op, levels = build_poisson_preconditioner(problem, engine, theta)
    setup = time.perf_counter() - t0
    A = problem.system.A
    x0 = rng.standard_normal(A.nrows)
    t0 = time.perf_counter()
    _, report = fgmres(A, M, np.zeros(A.nrows),
                       SolverConfig(rel_tol=cfg.rel_tol, max_iters=cfg.max_iters), x0=x0)
    solve = time.perf_counter() - t0
    return ReportRow(cfg.problem, k, A.nrows, theta, engine, report.iterations,
                     report.converged, c_op, setup, solve, levels)


def _stokes_row(k, n, theta, engine, cfg: ExperimentConfig, rng) -> ReportRow:
    t0 = time.perf_counter()
    S = assemble_stokes(build_cube_mesh(n), k)
    precond = build_block_preconditioner(S, kind=cfg.precond_kind, engine=engine, theta=theta)
    setup = time.perf_counter() - t0
    c_op, levels = precond.a_action.operator_complexity(), precond.a_action.level_count()
    method = "fgmres" if cfg.precond_kind == "Qt" else "minres"
    t0 = time.perf_counter()
    _, _, report = _solve_preconditioned(
        S, precond, SolverConfig(method=method, rel_tol=cfg.rel_tol, max_iters=cfg.max_iters)
    )
    solve = time.perf_counter() - t0
    return ReportRow(cfg.problem, k, S.dim, theta, engine, report.iterations,
                     report.converged, c_op, setup, solve, levels)


# numerical breakdowns a grid point may hit; any other exception is a bug
# and propagates
_RECORDED_FAILURES = (
    NotPositiveDefiniteError,
    IndefiniteOperatorError,
    InnerSolveError,
    np.linalg.LinAlgError,
    CoarseLevelTooLargeError,
)


def run_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    """One row per (refinement, theta) grid point; expected numerical
    failures are recorded as rows with an error string and the run
    continues."""
    rows = []
    runner = _poisson_row if cfg.problem == "poisson" else _stokes_row
    for point, (n, theta) in enumerate(
        (n, theta) for n in cfg.refinements for theta in cfg.theta_values
    ):
        rng = np.random.default_rng([cfg.seed, point])
        try:
            rows.append(runner(cfg.k, n, theta, cfg.engine, cfg, rng))
        except _RECORDED_FAILURES as exc:  # keep sweeping; the row records the failure
            rows.append(ReportRow(cfg.problem, cfg.k, 0, theta, cfg.engine,
                                  0, False, 0.0, 0.0, 0.0, 0, error=str(exc)))
    return ExperimentReport(rows)


def emit_report(report: ExperimentReport, fmt: str, include_times=True) -> str:
    """CSV (fixed column order) or a markdown table per (k, engine).

    Wall-time columns are real measurements and therefore not covered by
    the fixed-seed determinism contract; ``include_times=False`` zeroes
    them for byte-stable comparisons.
    """
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for row in report.rows:
            d = asdict(row)
            if not include_times:
                for c in _TIME_COLUMNS:
                    d[c] = 0.0
            writer.writerow([repr(d[c]) if isinstance(d[c], float) else d[c] for c in CSV_COLUMNS])
        return buf.getvalue()
    if fmt == "markdown":
        return _emit_markdown(report)
    raise ValueError(f"unknown format {fmt!r}")


def _emit_markdown(report: ExperimentReport) -> str:
    groups: dict = {}
    for row in report.rows:
        groups.setdefault((row.problem, row.k, row.engine), []).append(row)
    out = []
    for (problem, k, engine), rows in groups.items():
        thetas = sorted({r.theta for r in rows})
        out.append(f"### {problem} k={k} engine={engine}")
        out.append("| DOF | " + " | ".join(f"theta={t:g}" for t in thetas) + " |")
        out.append("|---:|" + "---:|" * len(thetas))
        by_dof: dict = {}
        for r in rows:
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


def _record(records, oracle, instance, lhs, rhs, tol):
    diff = abs(lhs - rhs)
    records.append({
        "oracle": oracle, "instance": instance,
        "lhs": float(lhs), "rhs": float(rhs), "diff": float(diff),
        "tolerance": tol, "pass": bool(diff <= tol),
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
            direct = assemble_operator(problem.coarse_space, "stiffness")
            gal = galerkin_coarse(A_full, problem.transfer)
            diff = np.max(np.abs(gal.to_dense() - direct.to_dense()))
            scale = np.max(np.abs(direct.to_dense()))
            _record(records, "galerkin_consistency", f"k={k} n={n}", diff / scale, 0.0, 1e-12)

            A, P = problem.system.A, problem.prolongation_int
            S = build_augmented(A, P)
            if S.n_coarse:
                norm = np.max(np.abs(S.to_dense()))
                worst = 0.0
                for _ in range(5):
                    c = rng.standard_normal(S.n_coarse)
                    v = np.concatenate([c, -spmv(S.P, c)])
                    worst = max(worst, np.max(np.abs(S.matvec(v))) / (norm * max(1.0, np.max(np.abs(c)))))
                _record(records, "augmented_null_space", f"k={k} n={n}", worst, 0.0, 1e-12)

            M = TwoLevelPreconditioner(A, P, coarse="exact", presmooth=False, post="forward")
            f = rng.standard_normal(A.nrows)
            u = rng.standard_normal(A.nrows)
            f_aug = augmented_rhs(S, f)
            v = np.concatenate([np.zeros(S.n_coarse), u])
            worst = 0.0
            for _ in range(10):
                u = u + M.apply(f - spmv(A, u))
                v = augmented_gs_step(S, v, f_aug)
                worst = max(worst, np.max(np.abs(flatten_augmented(S, v) - u)))
            _record(records, "block_gs_equivalence", f"k={k} n={n}", worst, 0.0, 1e-12)

            lhs, rhs = rate_identity_oracle(S)
            _record(records, "rate_identity", f"k={k} n={n}", lhs, rhs, 1e-8)
            records[-1]["pass"] = records[-1]["pass"] and lhs < 1.0

    for k, n, pseed in ((2, 2, 1), (3, 2, 2)):
        problem = poisson_setup(n, k, perturb_seed=pseed)
        A, P = problem.system.A, problem.prolongation_int
        S = build_augmented(A, P)
        lhs, rhs = rate_identity_oracle(S)
        _record(records, "rate_identity", f"k={k} n={n} perturbed seed={pseed}", lhs, rhs, 1e-8)

        A_H = S.A_H.to_dense()
        worst = -np.inf
        for _ in range(5):
            vv = rng.standard_normal(A.nrows)
            rav = spmv(P.transpose(), spmv(A, vv))
            margin = vv @ spmv(A, vv) - rav @ np.linalg.solve(A_H, rav)
            worst = max(worst, -margin)
        _record(records, "coarse_energy_bound", f"k={k} n={n} perturbed", max(worst, 0.0), 0.0, 1e-10)

    problem = poisson_setup(2, 2)
    A, P = problem.system.A, problem.prolongation_int
    M = TwoLevelPreconditioner(A, P, coarse="exact", presmooth=False, post="forward")
    S = build_augmented(A, P)
    lhs, _ = rate_identity_oracle(S)
    est = contraction_factor_estimate(M, A, iters=500, seed=seed)
    _record(records, "contraction_vs_rate_identity", "k=2 n=2", est.value, float(np.sqrt(lhs)), 1e-4)

    return {
        "seed": seed,
        "records": records,
        "all_pass": all(r["pass"] for r in records),
    }
