"""Command-line benchmark and verification harness.

    auxmg solve  --config cfg.json [--problem poisson|stokes --k N
                 --refine N --theta X --engine amg|gamg --precond Qt|Qd
                 --tol X --seed N --out DIR]
    auxmg verify [--seed N] [--out FILE]
    auxmg export --what matrix|prolongation --k N --refine N --out FILE

``solve`` writes report.csv and report.md into the output directory;
``verify`` writes verify.json; ``export`` writes Matrix Market files.
Flags override config-file fields.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .fem import assemble_operator, build_space
from .harness import ExperimentConfig, check_assembly_size, emit_report, run_experiment, verification_report
from .csr import write_matrix_market
from .mesh import build_cube_mesh
from .transfer import build_prolongation


def _build_parser():
    parser = argparse.ArgumentParser(prog="auxmg", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("solve", help="run a benchmark sweep", argument_default=argparse.SUPPRESS)
    ps.add_argument("--config", type=Path, help="JSON experiment config")
    ps.add_argument("--problem", choices=["poisson", "stokes"])
    ps.add_argument("--k", type=int)
    ps.add_argument("--refine", dest="refinements", type=int, action="append",
                    help="mesh subdivisions per axis (repeatable)")
    ps.add_argument("--theta", dest="theta_values", type=float, action="append",
                    help="strength threshold (repeatable)")
    ps.add_argument("--engine", choices=["amg", "gamg"])
    ps.add_argument("--precond", dest="precond_kind", choices=["Qt", "Qd"])
    ps.add_argument("--tol", dest="rel_tol", type=float)
    ps.add_argument("--seed", type=int)
    ps.add_argument("--out", dest="output_dir")

    pv = sub.add_parser("verify", help="run the algebraic oracle suite")
    pv.add_argument("--seed", type=int, default=0)
    pv.add_argument("--out", type=Path, default=Path("verify.json"))

    pe = sub.add_parser("export", help="write assembled operators as Matrix Market")
    pe.add_argument("--what", choices=["matrix", "prolongation"], required=True)
    pe.add_argument("--k", type=int, default=2)
    pe.add_argument("--refine", type=int, default=2)
    pe.add_argument("--out", type=Path, required=True)
    return parser


def _config_from_args(args) -> ExperimentConfig:
    """The config file's fields, overridden by the flags given (each
    flag's dest is the field it sets)."""
    flags = dict(vars(args))
    del flags["command"]
    values = {}
    if "config" in flags:
        with open(flags.pop("config")) as fh:
            values = json.load(fh)
    return ExperimentConfig(**{**values, **flags})


def cmd_solve(args) -> int:
    cfg = _config_from_args(args)
    rows = run_experiment(cfg)
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "report.csv").write_text(emit_report(rows, "csv"))
    md = emit_report(rows, "markdown")
    (out / "report.md").write_text(md)
    print(md)
    failures = [r for r in rows if r.error]
    for r in failures:
        print(f"FAILED point k={r.k} theta={r.theta}: {r.error}", file=sys.stderr)
    return 1 if failures else 0


def cmd_verify(args) -> int:
    result = verification_report(seed=args.seed)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(result, indent=2) + "\n")
    for rec in result["records"]:
        status = "PASS" if rec["pass"] else "FAIL"
        print(f"[{status}] {rec['oracle']:<28} {rec['instance']:<28} |diff| = {rec['diff']:.3e}")
    print(("all oracles passed" if result["all_pass"] else "ORACLE FAILURES"), f"-> {args.out}")
    return 0 if result["all_pass"] else 1


def cmd_export(args) -> int:
    if args.what == "matrix":
        check_assembly_size("poisson", args.k, args.refine, "--refine gives")
    space = build_space(build_cube_mesh(args.refine), args.k)
    if args.what == "matrix":
        matrix = assemble_operator(space, "stiffness")
    else:
        matrix = build_prolongation(space, build_space(space.mesh, 1)).prolongation
    write_matrix_market(matrix, args.out)
    print(f"wrote {args.out}")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "solve":
        return cmd_solve(args)
    if args.command == "verify":
        return cmd_verify(args)
    return cmd_export(args)


if __name__ == "__main__":
    sys.exit(main())
