"""Repetition loop of one workload and the metrics it reports.

The run starts with a cold setup: its clock starts before the library
is imported, so it carries the import and the exact reference tables.
Warm repetitions (setup and solve) follow, with ``gc.collect()`` before
each, until ``seconds`` have passed and enough of them were made.  In a
traced run warm repetitions alternate untraced and traced, so the two
can be compared for the tracing overhead.
"""

from __future__ import annotations

import gc
import math
import resource
import time
from dataclasses import dataclass, field

from bench_trace import Tracer, median
from bench_workloads import Workload, check_claims, probe, run_rep, setup

MIN_WARM = 3          # warm repetitions of an untraced run
MIN_WARM_TRACED = 2   # traced and untraced warm repetitions each, traced run
MAX_LEVELS = 12       # per-level AMG metrics L0..L11
COLD_SECONDS = 4.0    # cold setups are repeated until they add up to about this
COLD_MAX = 5


@dataclass
class Measurement:
    cold_setups: list               # seconds, one per fresh interpreter
    warm: list                      # [(Rep, traced)]
    peak_rss_mb: float
    c_op: float
    claims: dict = field(default_factory=dict)
    claims_ok: bool = True
    attempted: int = 0
    failed: int = 0
    tracer: Tracer | None = None
    hierarchy_levels: list = field(default_factory=list)
    spmv_bytes: int = 0

    def reps(self, traced):
        return [r for r, t in self.warm if t == traced]


def measure(w: Workload, seed: int, seconds: float, trace: bool, t_start: float,
            cold_sample=None) -> Measurement:
    """``t_start`` is the ``time.perf_counter()`` at which the cold setup's
    clock started.  ``cold_sample()``, when given, runs one cold setup in a fresh
    interpreter and returns its seconds.  Together with this process's own
    cold setup it makes at least two, and enough to add up to about
    COLD_SECONDS; the extra ones are spread evenly over the warm
    repetitions, so that they see the machine at several times."""
    tr = Tracer(trace)
    tr.group = "cold"
    prob = setup(w, tr)
    cold_setups = [time.perf_counter() - t_start]
    extra_cold = 0 if cold_sample is None else \
        min(COLD_MAX, max(2, math.ceil(COLD_SECONDS / cold_setups[0]))) - 1
    need = MIN_WARM_TRACED if trace else MIN_WARM
    warm = []
    t_warm = time.perf_counter()
    while True:
        n_traced = sum(t for _, t in warm)
        n_plain = len(warm) - n_traced
        enough = n_plain >= need and (not trace or n_traced >= need)
        if enough and time.perf_counter() - t_warm >= seconds:
            break
        traced = trace and len(warm) % 2 == 1
        prob = x0 = None  # drop the previous problem before building the next
        gc.collect()
        tr.group, tr.enabled = f"rep{len(warm)}", traced
        rep, prob, x0 = run_rep(w, seed, len(warm), tr)
        warm.append((rep, traced))
        if len(warm) == 1:
            # the high-water mark of a process that set up and solved once;
            # later repetitions only add allocator noise
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        while (len(cold_setups) - 1 < extra_cold and
               time.perf_counter() - t_warm >= len(cold_setups) * seconds / extra_cold):
            cold_setups.append(cold_sample())

    reps = [r for r, _ in warm]
    m = Measurement(cold_setups, warm, peak_rss_mb, prob.c_op,
                    attempted=len(reps), failed=sum(not r.passed for r in reps))
    m.hierarchy_levels = [(lvl.A.nrows, lvl.A.nnz) for lvl in prob.hierarchy.levels]
    if w.problem == "poisson" and w.engine == "amg":
        passed, m.claims = check_claims(w, prob, warm[-1][0], x0)
        m.attempted += 1
        m.failed += not passed
        m.claims_ok = all(gamg < amg for gamg, amg in m.claims.values())
    if trace:
        tr.group, tr.enabled = "probe", True
        m.spmv_bytes = probe(w, prob, tr)
        m.tracer = tr
    return m


def end_to_end(m: Measurement) -> dict:
    plain = m.reps(traced=False)
    return {
        "time_to_solution_s": median([r.total_s for r in plain]),
        "setup_s": median([r.setup_s for r in plain]),
        "solve_s": median([r.solve_s for r in plain]),
        "cold_setup_s": median(m.cold_setups),
        # over a fixed set of x0, so that it repeats exactly for a seed
        "iterations": median([r.iterations for r in plain[:MIN_WARM]]),
        "c_op": m.c_op,
        "peak_rss_mb": m.peak_rss_mb,
        "solved_frac": 1.0 - m.failed / m.attempted,
    }


def per_layer(m: Measurement) -> dict:
    groups = m.tracer.per_group()
    traced = [f"rep{i}" for i, (_, t) in enumerate(m.warm) if t]
    samples = [groups.get(g, {}) for g in traced] + [groups.get("probe", {})]

    def layer(name, stat="total"):
        vals = [g[name][stat] for g in samples if name in g]
        return median(vals) if vals else 0.0

    def per_call(name):
        return median(groups["probe"][name]["calls"])

    if len(m.hierarchy_levels) > MAX_LEVELS:
        raise RuntimeError(f"hierarchy has {len(m.hierarchy_levels)} levels, "
                           f"more than the {MAX_LEVELS} the per-level metrics name")
    n_lvl = [n for n, _ in m.hierarchy_levels]
    spmv_s, tri_s = per_call("csr.spmv"), per_call("csr.tri_solve")
    out = {
        "mesh.build_s": layer("mesh.build"),
        "fem.space_s": layer("fem.space"),
        "fem.assemble_s": layer("fem.assemble"),
        "fem.eliminate_s": layer("fem.eliminate"),
        "transfer.prolong_s": layer("transfer.prolong"),
        "reference.tables_cold_s": groups["cold"]["reference.tables"]["total"],
        "amg.setup_s": layer("amg.setup"),
        "amg.strength_s": layer("amg.strength"),
        "amg.coarsen_s": layer("amg.coarsen"),
        "amg.interp_s": layer("amg.interp"),
        "amg.rap_s": layer("amg.rap"),
        "amg.levels": len(n_lvl),
        # geometric mean of n_{l+1} / n_l over the hierarchy
        "amg.coarsen_ratio": (n_lvl[-1] / n_lvl[0]) ** (1.0 / (len(n_lvl) - 1)) if len(n_lvl) > 1 else 1.0,
        "amg.vcycle_s": layer("amg.vcycle"),
        "amg.vcycle_calls": layer("amg.vcycle", "count"),
        "twolevel.setup_s": layer("twolevel.setup"),
        "twolevel.apply_s": layer("twolevel.apply"),
        "twolevel.apply_calls": layer("twolevel.apply", "count"),
        "twolevel.coarse_solve_s": layer("twolevel.coarse_solve"),
        "twolevel.smooth_s": layer("twolevel.apply", "self"),
        "csr.spmv_s": spmv_s,
        "csr.spmv_gbps_computed": m.spmv_bytes / spmv_s / 1e9,
        "csr.tri_solve_s": tri_s,
        "csr.tri_solve_per_spmv": tri_s / spmv_s,
        "csr.rap_s": per_call("csr.rap"),
        "krylov.a_applies": layer("krylov.a_apply", "count"),
        "krylov.m_applies": layer("krylov.m_apply", "count"),
        "krylov.a_s": layer("krylov.a_apply"),
        "krylov.self_s": layer("krylov.solve", "self"),
        "krylov.conv_factor": median([r.conv_factor for r in m.reps(traced=True)]),
        "stokes.assemble_s": layer("stokes.assemble"),
        "stokes.precond_setup_s": layer("stokes.precond_setup"),
        "stokes.velocity_apply_s": layer("stokes.velocity_apply"),
        # block-preconditioner time outside the velocity block: the
        # pressure-mass PCG solve and the mean projection
        "stokes.schur_s": layer("stokes.block_apply", "self"),
        "trace.overhead_frac": median([r.total_s for r in m.reps(traced=True)])
        / median([r.total_s for r in m.reps(traced=False)]) - 1.0,
    }
    for i in range(MAX_LEVELS):
        n, nnz = m.hierarchy_levels[i] if i < len(m.hierarchy_levels) else (0, 0)
        out[f"amg.n_per_level.L{i}"] = n
        out[f"amg.nnz_per_level.L{i}"] = nnz
    return out
