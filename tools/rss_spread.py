"""Peak-RSS spread of one benchmark workload in two checkouts.

    python3 tools/rss_spread.py PARENT_DIR CHANGE_DIR --workload W --procs N

Peak RSS of a setup-and-solve process depends on how glibc's heap lies
after the cold setup, so one process per tree says little.  This runs N
fresh processes per checkout, alternating parent and change, each with
one BLAS thread.  A process imports auxmg from its checkout's src/ and
the benchmark from its perfbench/ (unchanged), does one cold
``bench_workloads.setup``, drops it, calls ``gc.collect()``, runs one warm
``run_rep(w, seed=1, rep=0)`` and reads ``ru_maxrss``.  The script prints
each side's median, how many of its processes read above the parent's
median by more than the ``peak_rss_mb`` bound of ``BENCHMARK.json``, and
its sorted peaks, in MB.

Both checkouts must hold the same benchmark, byte for byte: the script
stops with an error naming the first ``BENCHMARK.json`` or
``perfbench/*.py`` file that differs between them, or that one lacks.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"


def peak_rss_bound(path: Path = BENCHMARK) -> float:
    """The relative ``peak_rss_mb`` bound the benchmark declares."""
    metrics = json.loads(path.read_text())["end_to_end"]
    return next(m["bound"] for m in metrics if m["name"] == "peak_rss_mb")


def first_difference(parent: Path, change: Path) -> str | None:
    """The first benchmark file, ``BENCHMARK.json`` and then the
    ``perfbench/*.py`` files by name, whose bytes differ between the two
    checkouts; a file one of them lacks differs.  None when all agree."""
    names = ["BENCHMARK.json"] + sorted(
        {p.relative_to(d).as_posix() for d in (parent, change) for p in (d / "perfbench").glob("*.py")}
    )
    for name in names:
        a, b = (d / name for d in (parent, change))
        if (a.read_bytes() if a.is_file() else None) != (b.read_bytes() if b.is_file() else None):
            return name
    return None


def report(peaks: dict[str, list[float]], bound: float) -> list[str]:
    """One line per side: its median, how many of its peaks lie above the
    parent's median by more than ``bound`` (relative), and its peaks."""
    limit = statistics.median(peaks["parent"]) * (1.0 + bound)
    return [f"{side:6s} median {statistics.median(values):7.1f} MB  "
            f"{sum(v > limit for v in values):3d} above {limit:.1f} MB  sorted "
            + " ".join(f"{v:.1f}" for v in values)
            for side, values in peaks.items()]


def child(checkout: Path, workload: str) -> float:
    """One measurement in this process; returns the peak RSS in MB."""
    import gc
    import resource

    sys.path[:0] = [str(checkout / "src"), str(checkout / "perfbench")]
    import auxmg
    from bench_trace import Tracer
    from bench_workloads import WORKLOADS, run_rep, setup

    if not Path(auxmg.__file__).resolve().is_relative_to(checkout / "src"):
        raise SystemExit(f"auxmg was imported from {auxmg.__file__}, not from {checkout / 'src'}")
    w = WORKLOADS[workload]
    prob = setup(w, Tracer(False))
    del prob
    gc.collect()
    rep, _, _ = run_rep(w, 1, 0, Tracer(False))
    if not rep.passed:
        raise SystemExit(f"{workload} failed its correctness gate in {checkout}")
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(checkout: Path, workload: str) -> float:
    """Peak RSS in MB of one fresh process on ``checkout``."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--child", str(checkout), "--workload", workload],
        env={**os.environ, **THREAD_ENV}, stdout=subprocess.PIPE, text=True, check=True, timeout=600,
    )
    return float(proc.stdout.strip().splitlines()[-1])


def spread(parent: Path, change: Path, workload: str, procs: int) -> dict[str, list[float]]:
    """Sorted peaks of ``procs`` processes per side, the sides alternated."""
    out = {"parent": [], "change": []}
    for _ in range(procs):
        for side, checkout in (("parent", parent), ("change", change)):
            out[side].append(measure(checkout, workload))
    return {side: sorted(values) for side, values in out.items()}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("dirs", nargs="*", type=Path, metavar="DIR", help="PARENT_DIR CHANGE_DIR")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--procs", type=int, default=16)
    ap.add_argument("--child", type=Path, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.child is not None:
        print(child(args.child.resolve(), args.workload))
        return 0
    if len(args.dirs) != 2:
        ap.error("give PARENT_DIR and CHANGE_DIR")
    if args.procs < 1:
        ap.error("--procs must be at least 1")
    parent, change = (d.resolve() for d in args.dirs)
    differs = first_difference(parent, change)
    if differs is not None:
        ap.error(f"{differs} differs between {parent} and {change}; each side would run its own benchmark")
    print("\n".join(report(spread(parent, change, args.workload, args.procs), peak_rss_bound())))
    return 0


if __name__ == "__main__":
    sys.exit(main())
