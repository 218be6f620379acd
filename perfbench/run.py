"""Time-to-solution benchmark of auxmg, end to end and layer by layer.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

With one workload the run happens in this process, which is a fresh
interpreter, so its first setup measures the cold start.  It
prints one line per metric and, as the last line, a JSON object with
the keys correct, attempted, failed and metrics: the end-to-end metrics
of BENCHMARK.json with ``--trace 0``, its per-layer metrics with
``--trace 1`` (spans are also written to perfbench/out/).  With
``--workload all`` (the default) every workload runs in its own child
process and the last line maps each workload to its metrics.

The library is imported from src/ next to this directory.  BLAS and
OpenMP are pinned to one thread.  The exit code is nonzero when a solve
fails its correctness gate or a paper claim checked on the P4 matrix
breaks.
"""

import time

T_START = time.perf_counter()  # before numpy and auxmg are imported: the cold clock

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measured time per workload (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--cold-sample", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def load_benchmark():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def result_line(bench, metrics, trace, correct, attempted, failed):
    """The JSON result; every metric name and unit comes from BENCHMARK.json."""
    declared = bench["per_layer" if trace else "end_to_end"]
    if sorted(metrics) != sorted(d["name"] for d in declared):
        raise RuntimeError(f"measured metrics {sorted(metrics)} do not match BENCHMARK.json")
    return {
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {d["name"]: {"value": float(metrics[d["name"]]), "unit": d["unit"]} for d in declared},
    }


def import_library():
    sys.path.insert(0, str(ROOT / "src"))
    import auxmg

    if not Path(auxmg.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"auxmg was imported from {auxmg.__file__}, not from {ROOT / 'src'}")


def cold_sample(workload):
    """One cold setup in a fresh interpreter (``--cold-sample``); returns its seconds."""
    proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                           "--cold-sample"], stdout=subprocess.PIPE, text=True, check=True, timeout=170)
    return float(proc.stdout.strip().splitlines()[-1])


def run_cold_sample(args):
    import_library()
    from bench_trace import Tracer
    from bench_workloads import WORKLOADS, setup

    setup(WORKLOADS[args.workload], Tracer(False))
    print(time.perf_counter() - T_START)
    return 0


def run_one(args, bench):
    import_library()
    from bench_measure import end_to_end, measure, per_layer
    from bench_trace import tail_percentile
    from bench_workloads import WORKLOADS

    w = WORKLOADS[args.workload]
    m = measure(w, args.seed, args.seconds, bool(args.trace), T_START,
                cold_sample=None if args.trace else lambda: cold_sample(w.name))
    metrics = per_layer(m) if args.trace else end_to_end(m)

    plain = m.reps(traced=False)
    print(f"# {w.name} seed={args.seed} trace={args.trace} "
          + " ".join(f"{k}={v}" for k, v in THREAD_ENV.items()))
    print(f"# cold setups: {len(m.cold_setups)}; "
          f"warm repetitions: {len(plain)} untraced, {len(m.reps(traced=True))} traced; "
          f"solves attempted {m.attempted}, failed {m.failed} (failed_frac {m.failed / m.attempted:g})")
    for claim, (gamg, amg) in m.claims.items():
        print(f"# claim {claim}(gamg)={gamg:.6g} < {claim}(amg)={amg:.6g}: "
              + ("PASS" if gamg < amg else "FAIL"))
    units = {d["name"]: d["unit"] for d in bench["end_to_end"] + bench["per_layer"]}
    series = {"setup_s": [r.setup_s for r in plain], "solve_s": [r.solve_s for r in plain],
              "time_to_solution_s": [r.total_s for r in plain]}
    for name, value in metrics.items():
        note = ""
        if name in series and not args.trace:
            tail = tail_percentile(series[name])
            note = f"  (median of {len(series[name])}" + (
                f", p{tail[0]}={tail[1]:.6g})" if tail else "; no percentile has 10 samples beyond it)")
        print(f"{name:28s} {value:14.6g} {units[name]}{note}")
    if args.trace:
        out = HERE / "out"
        out.mkdir(exist_ok=True)
        path = out / f"trace-{w.name}-seed{args.seed}.json"
        m.tracer.dump(path, w.name)
        print(f"# spans: {len(m.tracer.spans)} written to {path.relative_to(ROOT)}")
    correct = m.failed == 0 and m.claims_ok
    print(json.dumps(result_line(bench, metrics, args.trace, correct, m.attempted, m.failed)))
    return 0 if correct else 1


def run_all(args, bench):
    """Each workload in its own interpreter: a cold start and a peak RSS per workload."""
    results, ok = {}, True
    for wl in bench["workloads"]:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", wl["name"],
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        lines = proc.stdout.strip().splitlines()
        try:
            res = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            res = None
        if proc.returncode or res is None or not res["correct"]:
            print(f"# {wl['name']}: FAILED (exit code {proc.returncode})")
            ok = False
        results[wl["name"]] = res
    done = [r for r in results.values() if r is not None]
    print(json.dumps({
        "correct": ok,
        "attempted": sum(r["attempted"] for r in done),
        "failed": sum(r["failed"] for r in done),
        "workloads": {name: r["metrics"] for name, r in results.items() if r is not None},
    }))
    return 0 if ok else 1


def main(argv=None):
    args = parse_args(argv)
    bench = load_benchmark()
    if args.seconds is None:
        args.seconds = bench["run_seconds"]
    names = [wl["name"] for wl in bench["workloads"]]
    if args.workload == "all":
        return run_all(args, bench)
    if args.workload not in names:
        raise SystemExit(f"unknown workload {args.workload!r}; choose from {names} or all")
    return run_cold_sample(args) if args.cold_sample else run_one(args, bench)


if __name__ == "__main__":
    sys.exit(main())
