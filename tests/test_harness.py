import csv
import hashlib
import io
import json
from dataclasses import asdict, replace

import numpy as np
import pytest

from auxmg import cli
from auxmg.csr import read_matrix_market
from auxmg.harness import (
    CSV_COLUMNS,
    ExperimentConfig,
    ReportRow,
    dof_count,
    emit_report,
    run_experiment,
    verification_report,
)


def parse_report_csv(text: str) -> list:
    """The rows that ``emit_report(rows, "csv")`` wrote as ``text``."""
    reader = csv.reader(io.StringIO(text))
    assert next(reader) == CSV_COLUMNS
    rows = []
    for rec in reader:
        d = dict(zip(CSV_COLUMNS, rec))
        rows.append(ReportRow(
            problem=d["problem"], k=int(d["k"]), n_dofs=int(d["n_dofs"]),
            theta=float(d["theta"]), engine=d["engine"],
            iterations=int(d["iterations"]), converged=d["converged"] == "True",
            c_op=float(d["c_op"]), setup_time=float(d["setup_time"]),
            solve_time=float(d["solve_time"]), level_count=int(d["level_count"]),
            error=d["error"],
        ))
    return rows


def _untimed(rows: list) -> list:
    """The rows with their wall times zeroed, for byte-stable reports."""
    return [replace(r, setup_time=0.0, solve_time=0.0) for r in rows]


class TestConfig:
    def test_defaults_valid(self):
        cfg = ExperimentConfig()
        assert cfg.problem == "poisson"

    def test_empty_theta_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig(theta_values=[])

    def test_theta_range_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig(theta_values=[1.5])

    def test_empty_refinements_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig(refinements=[])

    @pytest.mark.parametrize("field, value", [
        ("rel_tol", float("nan")), ("rel_tol", "1e-6"), ("max_iters", -3), ("max_iters", 2.5),
        ("rel_tol", True), ("max_iters", True), ("output_dir", 3), ("output_dir", None),
    ])
    def test_solver_fields_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            ExperimentConfig(**{field: value})

    def test_cli_rejects_nan_tol_before_setup(self, tmp_path, monkeypatch):
        from auxmg import harness

        def never(*a, **k):
            raise AssertionError("poisson_setup called for an invalid config")

        monkeypatch.setattr(harness, "poisson_setup", never)
        with pytest.raises(ValueError, match="rel_tol"):
            cli.main(["solve", "--refine", "1", "--tol", "nan", "--out", str(tmp_path)])

    @pytest.mark.parametrize("field, value", [("output_dir", 3), ("max_iters", True)])
    def test_cli_rejects_a_wrongly_typed_config_field_before_setup(self, tmp_path, monkeypatch, field, value):
        from auxmg import harness

        def never(*a, **k):
            raise AssertionError("poisson_setup called for an invalid config")

        monkeypatch.setattr(harness, "poisson_setup", never)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"k": 1, "refinements": [2], field: value}))
        with pytest.raises(ValueError, match=f"^{field} "):
            cli.main(["solve", "--config", str(cfg)])

    @pytest.mark.parametrize("fields, name", [
        ({"precond_kind": "Qx"}, "precond_kind"),
        ({"problem": "stokes", "precond_kind": "qd"}, "precond_kind"),
        ({"k": 7}, "k"), ({"k": 0}, "k"), ({"k": 2.0}, "k"),
        ({"problem": "stokes", "k": 1}, "k"), ({"problem": "stokes", "k": 5}, "k"),
        ({"problem": "heat"}, "unknown problem"), ({"engine": "gmg"}, "unknown engine"),
    ])
    def test_bad_kind_or_order_rejected(self, fields, name):
        with pytest.raises(ValueError, match=f"^{name} "):
            ExperimentConfig(**fields)

    @pytest.mark.parametrize("fields, name", [
        ({"refinements": [2.5]}, "refinements"), ({"refinements": [0]}, "refinements"),
        ({"refinements": [-1]}, "refinements"), ({"refinements": [2, 0]}, "refinements"),
        ({"refinements": [True]}, "refinements"), ({"refinements": ["2"]}, "refinements"),
        ({"k": 1, "refinements": [1]}, "refinements"), ({"k": 1, "refinements": [2, 1]}, "refinements"),
        ({"k": True}, "k"), ({"seed": -1}, "seed"), ({"seed": 1.5}, "seed"), ({"seed": True}, "seed"),
        ({"refinements": 3}, "refinements"), ({"theta_values": 0.5}, "theta_values"),
        ({"theta_values": ["a"]}, "theta_values"),
    ])
    def test_bad_refinement_or_seed_rejected(self, fields, name):
        with pytest.raises(ValueError, match=f"^{name} "):
            ExperimentConfig(**fields)

    @pytest.mark.parametrize("fields", [
        {"k": 1, "refinements": [2]}, {"k": 2, "refinements": [1]},
        {"problem": "stokes", "k": 2, "refinements": [1]}, {"refinements": [np.int64(2)], "seed": np.int64(3)},
    ])
    def test_smallest_grids_accepted(self, fields):
        assert ExperimentConfig(**fields).refinements == fields["refinements"]

    def test_cli_rejects_empty_p1_interior_before_setup(self, tmp_path, monkeypatch):
        from auxmg import harness

        def never(*a, **k):
            raise AssertionError("poisson_setup called for an invalid config")

        monkeypatch.setattr(harness, "poisson_setup", never)
        with pytest.raises(ValueError, match="refinements"):
            cli.main(["solve", "--k", "1", "--refine", "1", "--out", str(tmp_path)])

    def test_assembly_estimate_counts_the_element_triplets(self):
        from auxmg import harness
        from auxmg.fem import build_space
        from auxmg.mesh import build_cube_mesh

        for n in (1, 2):
            mesh = build_cube_mesh(n)
            width = {k: build_space(mesh, k).element_dofs.shape[1] for k in (1, 2, 3, 4)}
            for k in (1, 2, 3, 4):
                assert harness.assembly_bytes("poisson", k, n) == 28 * mesh.num_tets * width[k] ** 2
            for k in (2, 3, 4):
                stokes = width[k] ** 2 + 3 * width[k] * width[k - 1]
                assert harness.assembly_bytes("stokes", k, n) == 28 * mesh.num_tets * stokes

    @pytest.mark.parametrize("problem, k, largest", [("poisson", 2, 63), ("poisson", 4, 27), ("stokes", 2, 48)])
    def test_size_cap_admits_the_stated_refinements(self, problem, k, largest):
        from auxmg import harness

        assert harness.assembly_bytes(problem, k, largest) <= harness.MAX_ASSEMBLY_BYTES
        assert harness.assembly_bytes(problem, k, largest + 1) > harness.MAX_ASSEMBLY_BYTES
        ExperimentConfig(problem=problem, k=k, refinements=[largest])
        with pytest.raises(ValueError, match=f"^refinements hold n = {largest + 1}, "):
            ExperimentConfig(problem=problem, k=k, refinements=[largest + 1])

    def test_cli_rejects_a_refinement_above_the_size_cap_before_setup(self, tmp_path, monkeypatch):
        from auxmg import harness

        def never(*a, **k):
            raise AssertionError("poisson_setup called for an invalid config")

        monkeypatch.setattr(harness, "poisson_setup", never)
        monkeypatch.setattr(harness, "MAX_ASSEMBLY_BYTES", harness.assembly_bytes("poisson", 2, 2))
        ExperimentConfig(k=2, refinements=[2])
        message = ("^refinements hold n = 3, whose poisson k = 2 assembly needs an estimated 453,600 bytes, "
                   "above MAX_ASSEMBLY_BYTES = 134,400$")
        with pytest.raises(ValueError, match=message):
            cli.main(["solve", "--k", "2", "--refine", "2", "--refine", "3", "--out", str(tmp_path)])

    @pytest.mark.parametrize("problem, k", [("poisson", 1), ("poisson", 4), ("stokes", 2), ("stokes", 4)])
    def test_order_range_ends_accepted(self, problem, k):
        assert ExperimentConfig(problem=problem, k=k).k == k

    def test_cli_rejects_bad_precond_kind_before_setup(self, tmp_path, monkeypatch):
        from auxmg import harness

        def never(*a, **k):
            raise AssertionError("assemble_stokes called for an invalid config")

        monkeypatch.setattr(harness, "assemble_stokes", never)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"problem": "stokes", "refinements": [2], "precond_kind": "Qx"}))
        with pytest.raises(ValueError, match="precond_kind"):
            cli.main(["solve", "--config", str(path), "--out", str(tmp_path)])

    def test_json_round_trip(self, tmp_path):
        # a config file holding every field reads back, through the CLI's
        # --config path, as the same config
        cfg = ExperimentConfig(problem="stokes", k=3, refinements=[2], theta_values=[0.4])
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(asdict(cfg)))
        args = cli._build_parser().parse_args(["solve", "--config", str(path)])
        assert cli._config_from_args(args) == cfg

    def test_flags_override_config_fields(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"k": 1, "refinements": [2], "engine": "amg", "seed": 3}))
        args = cli._build_parser().parse_args([
            "solve", "--config", str(path), "--k", "3", "--refine", "1", "--refine", "2",
            "--theta", "0.5", "--precond", "Qd", "--tol", "1e-8", "--out", "dir",
        ])
        assert cli._config_from_args(args) == ExperimentConfig(
            k=3, refinements=[1, 2], theta_values=[0.5], engine="amg", precond_kind="Qd",
            rel_tol=1e-8, seed=3, output_dir="dir")


class TestRunExperiment:
    def test_single_point_poisson(self):
        cfg = ExperimentConfig(problem="poisson", k=1, refinements=[2],
                               theta_values=[0.25], engine="amg")
        rows = run_experiment(cfg)
        assert len(rows) == 1
        row = rows[0]
        assert row.converged and row.error == ""
        assert row.n_dofs == 1  # (n-1)^3 interior vertices

    def test_gamg_poisson_row(self):
        cfg = ExperimentConfig(problem="poisson", k=2, refinements=[2],
                               theta_values=[0.25], engine="gamg")
        row = run_experiment(cfg)[0]
        assert row.converged
        assert row.c_op > 1.0
        assert row.level_count >= 2

    def test_deterministic_given_seed(self):
        cfg = ExperimentConfig(problem="poisson", k=2, refinements=[2, 3],
                               theta_values=[0.25, 0.5], engine="gamg", seed=7)
        a = emit_report(_untimed(run_experiment(cfg)), "csv")
        b = emit_report(_untimed(run_experiment(cfg)), "csv")
        assert a == b  # byte-identical modulo wall-time columns

    def test_gamg_c_op_internally_consistent(self):
        # reported value must equal 1 + C_op(coarse hierarchy) * nnz(A_H)/nnz(A_h)
        from auxmg.amg import operator_complexity
        from auxmg.problems import poisson_setup
        from auxmg.twolevel import TwoLevelPreconditioner

        prob = poisson_setup(3, 3)
        M = TwoLevelPreconditioner(prob.system.A, prob.prolongation_int, coarse="amg", theta=0.25)
        A_H = M.hierarchy.levels[0].A
        recomputed = 1.0 + operator_complexity(M.hierarchy) * A_H.nnz / prob.system.A.nnz
        assert M.operator_complexity() == pytest.approx(recomputed, rel=1e-12)

    def test_failure_recorded_not_raised(self, monkeypatch):
        from auxmg import harness
        from auxmg.csr import NotPositiveDefiniteError

        def boom(*a, **k):
            raise NotPositiveDefiniteError(3)

        monkeypatch.setattr(harness, "poisson_setup", boom)
        cfg = ExperimentConfig(problem="poisson", k=2, refinements=[2], theta_values=[0.25])
        rows = run_experiment(cfg)
        assert len(rows) == 1
        assert rows[0].error == "matrix is not positive definite (pivot 3)"
        assert not rows[0].converged

    def test_programming_error_propagates(self, monkeypatch):
        from auxmg import harness

        def bug(*a, **k):
            raise TypeError("synthetic bug")

        monkeypatch.setattr(harness, "poisson_setup", bug)
        cfg = ExperimentConfig(problem="poisson", k=2, refinements=[2], theta_values=[0.25])
        with pytest.raises(TypeError, match="synthetic bug"):
            run_experiment(cfg)

    @pytest.mark.parametrize("problem, k, refinements", [
        ("poisson", 1, [2, 3]), ("poisson", 3, [1, 2]), ("stokes", 2, [1, 2]), ("stokes", 3, [1, 2]),
    ])
    def test_dof_count_is_the_built_dimension(self, problem, k, refinements):
        rows = run_experiment(ExperimentConfig(problem=problem, k=k, refinements=refinements, theta_values=[0.25]))
        assert not any(r.error for r in rows)
        assert [r.n_dofs for r in rows] == [dof_count(problem, k, n) for n in refinements]


    def test_stokes_row_builds_one_preconditioner(self, monkeypatch):
        from auxmg import harness, stokes

        built = []
        original = stokes.build_block_preconditioner

        def counting(*a, **k):
            built.append(1)
            return original(*a, **k)

        monkeypatch.setattr(harness, "build_block_preconditioner", counting)
        monkeypatch.setattr(stokes, "build_block_preconditioner", counting)
        cfg = ExperimentConfig(problem="stokes", k=2, refinements=[2], theta_values=[0.8],
                               precond_kind="Qd")
        row = run_experiment(cfg)[0]
        assert row.error == "" and row.converged
        assert built == [1]
        _, _, ref = stokes.solve_cavity(stokes.assemble_stokes(harness.build_cube_mesh(2), 2),
                                        precond_kind="Qd", theta=0.8,
                                        cfg=harness.SolverConfig(method="minres", rel_tol=1e-6,
                                                                 max_iters=300))
        assert row.iterations == ref.iterations


# SHA-256 prefixes of emit_report(_untimed(run_experiment(cfg)), "csv")
# over refinements [2, 3], theta [0.25, 0.8], seed 4
REPORT_PINS = {
    ("poisson", 2, "gamg", "Qt"): "3f4105cebfe7be1f",
    ("poisson", 1, "amg", "Qt"): "a832c66bb3479061",
    ("poisson", 1, "gamg", "Qt"): "f47215b23757a800",
    ("stokes", 2, "gamg", "Qd"): "90cf758bc22c5138",
    ("stokes", 2, "amg", "Qt"): "8c8d0e2f30c2274f",
}


@pytest.mark.parametrize("problem, k, engine, kind", list(REPORT_PINS))
def test_report_pinned(problem, k, engine, kind):
    cfg = ExperimentConfig(problem=problem, k=k, refinements=[2, 3], theta_values=[0.25, 0.8],
                           engine=engine, precond_kind=kind, seed=4)
    text = emit_report(_untimed(run_experiment(cfg)), "csv")
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == REPORT_PINS[problem, k, engine, kind]


class TestEmitters:
    def _sample(self):
        return [
            ReportRow("poisson", 2, 343, 0.25, "gamg", 8, True, 1.02, 0.5, 0.25, 3),
            ReportRow("poisson", 2, 343, 0.5, "gamg", 9, True, 1.02, 0.5, 0.21, 3),
            ReportRow("poisson", 2, 2197, 0.25, "gamg", 9, True, 1.01, 1.5, 0.75, 3),
        ]

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError, match="^unknown format 'html'$"):
            emit_report(self._sample(), "html")

    def test_empty_report_is_header_only(self):
        text = emit_report([], "csv")
        assert text.strip().split("\n") == [",".join(CSV_COLUMNS)]

    def test_single_row_csv(self):
        text = emit_report(self._sample()[:1], "csv")
        assert len(text.strip().split("\n")) == 2

    def test_csv_round_trip(self):
        rows = self._sample()
        assert parse_report_csv(emit_report(rows, "csv")) == rows

    def test_markdown_grouping(self):
        md = emit_report(self._sample(), "markdown")
        assert "### poisson k=2 engine=gamg" in md
        assert "theta=0.25" in md and "theta=0.5" in md
        assert "| 343 | 8 | 9 |" in md
        assert "| 2197 | 9 | - |" in md


class TestPaperGrid:
    def test_full_default_grid_completes(self):
        # the full sweep (orders 1-4, four thresholds, both engines,
        # two refinements) must finish comfortably inside ten minutes
        # with every point converged
        import time

        t0 = time.perf_counter()
        rows = []
        for k in (1, 2, 3, 4):
            for engine in ("amg", "gamg"):
                cfg = ExperimentConfig(problem="poisson", k=k, refinements=[2, 3],
                                       theta_values=[0.2, 0.4, 0.6, 0.8],
                                       engine=engine, rel_tol=1e-6, seed=0)
                rows.extend(run_experiment(cfg))
        elapsed = time.perf_counter() - t0
        assert elapsed < 600.0
        assert len(rows) == 64
        assert all(r.converged and not r.error for r in rows)


class TestVerificationReport:
    def test_all_oracles_pass(self):
        result = verification_report(seed=0)
        assert result["all_pass"], [r for r in result["records"] if not r["pass"]]
        oracles = {r["oracle"] for r in result["records"]}
        assert {"galerkin_consistency", "augmented_null_space", "block_gs_equivalence",
                "rate_identity", "coarse_energy_bound", "contraction_vs_rate_identity"} <= oracles
        json.dumps(result)  # must be serialisable as-is

    def test_unconverged_contraction_estimate_fails(self, monkeypatch):
        from auxmg import harness

        estimate = harness.contraction_factor_estimate

        def unconverged(*args, **kwargs):
            return estimate(*args, **kwargs)._replace(converged=False)

        monkeypatch.setattr(harness, "contraction_factor_estimate", unconverged)
        result = verification_report(seed=0)
        (rec,) = [r for r in result["records"] if r["oracle"] == "contraction_vs_rate_identity"]
        assert rec["diff"] <= rec["tolerance"] and not rec["pass"]
        assert not result["all_pass"]

    def test_rate_identity_needs_a_contraction(self, monkeypatch):
        # lhs == rhs, but |E|^2 = 1.5 is no contraction, perturbed or not
        from auxmg import harness

        monkeypatch.setattr(harness, "rate_identity_oracle", lambda S: (1.5, 1.5))
        records = [r for r in verification_report(seed=0)["records"] if r["oracle"] == "rate_identity"]
        assert len(records) == 6 and sum("perturbed" in r["instance"] for r in records) == 2
        assert all(r["diff"] == 0.0 and not r["pass"] for r in records)


class TestCli:
    def test_solve_writes_reports(self, tmp_path, capsys):
        rc = cli.main([
            "solve", "--problem", "poisson", "--k", "1", "--refine", "2",
            "--theta", "0.25", "--engine", "amg", "--tol", "1e-6",
            "--seed", "1", "--out", str(tmp_path),
        ])
        assert rc == 0
        assert (tmp_path / "report.csv").exists()
        assert (tmp_path / "report.md").exists()
        rows = parse_report_csv((tmp_path / "report.csv").read_text())
        assert rows[0].converged

    def test_failed_points_keep_their_dof_counts(self, tmp_path, capsys, monkeypatch):
        from auxmg import harness
        from auxmg.csr import NotPositiveDefiniteError

        real = harness.poisson_setup

        def fails_above_n2(n, k, **kw):
            if n > 2:
                raise NotPositiveDefiniteError(0)
            return real(n, k, **kw)

        monkeypatch.setattr(harness, "poisson_setup", fails_above_n2)
        rc = cli.main(["solve", "--k", "2", "--refine", "2", "--refine", "3", "--refine", "4",
                       "--engine", "amg", "--out", str(tmp_path)])
        assert rc == 1
        rows = parse_report_csv((tmp_path / "report.csv").read_text())
        assert [(r.n_dofs, bool(r.error)) for r in rows] == [(27, False), (125, True), (343, True)]
        md = (tmp_path / "report.md").read_text()
        assert "| 125 | err |" in md and "| 343 | err |" in md
        err = capsys.readouterr().err
        assert "FAILED point k=2 n_dofs=125 theta=0.25: " in err
        assert "FAILED point k=2 n_dofs=343 theta=0.25: " in err

    def test_solve_config_file_with_override(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "problem": "poisson", "k": 1, "refinements": [2],
            "theta_values": [0.25], "engine": "amg", "seed": 3,
        }))
        rc = cli.main(["solve", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert rc == 0
        rows = parse_report_csv((tmp_path / "out" / "report.csv").read_text())
        assert rows[0].engine == "amg"

    def test_export_matrix(self, tmp_path):
        out = tmp_path / "stiff.mtx"
        rc = cli.main(["export", "--what", "matrix", "--k", "1", "--refine", "1", "--out", str(out)])
        assert rc == 0
        A = read_matrix_market(out)
        assert A.shape == (8, 8)
        assert A.is_symmetric()

    def test_export_matrix_above_the_size_cap_fails_before_the_mesh(self, tmp_path, monkeypatch):
        from auxmg import harness

        def never(*a, **k):
            raise AssertionError("build_cube_mesh called for a matrix above the size cap")

        monkeypatch.setattr(cli, "build_cube_mesh", never)
        monkeypatch.setattr(harness, "MAX_ASSEMBLY_BYTES", harness.assembly_bytes("poisson", 2, 2))
        out = tmp_path / "stiff.mtx"
        message = ("^--refine gives n = 3, whose poisson k = 2 assembly needs an estimated 453,600 bytes, "
                   "above MAX_ASSEMBLY_BYTES = 134,400$")
        with pytest.raises(ValueError, match=message):
            cli.main(["export", "--what", "matrix", "--k", "2", "--refine", "3", "--out", str(out)])
        assert not out.exists()

    def test_export_prolongation(self, tmp_path):
        out = tmp_path / "prol.mtx"
        rc = cli.main(["export", "--what", "prolongation", "--k", "2", "--refine", "1", "--out", str(out)])
        assert rc == 0
        P = read_matrix_market(out)
        assert P.shape == (27, 8)

    def test_export_prolongation_above_the_size_cap_fails_before_the_mesh(self, tmp_path, monkeypatch):
        from auxmg import harness

        def never(*a, **k):
            raise AssertionError("build_cube_mesh called for a prolongation above the size cap")

        monkeypatch.setattr(cli, "build_cube_mesh", never)
        need = harness.assembly_bytes("prolongation", 4, 100)
        assert need == 208 * 6 * 100**3 * 35 > harness.MAX_ASSEMBLY_BYTES
        out = tmp_path / "prol.mtx"
        message = (f"^--refine gives n = 100, whose prolongation k = 4 assembly needs an estimated {need:,} "
                   f"bytes, above MAX_ASSEMBLY_BYTES = {harness.MAX_ASSEMBLY_BYTES:,}$")
        with pytest.raises(ValueError, match=message):
            cli.main(["export", "--what", "prolongation", "--k", "4", "--refine", "100", "--out", str(out)])
        assert not out.exists()

    def test_export_p1_prolongation_is_identity(self, tmp_path):
        out = tmp_path / "prol.mtx"
        rc = cli.main(["export", "--what", "prolongation", "--k", "1", "--refine", "1", "--out", str(out)])
        assert rc == 0
        assert np.array_equal(read_matrix_market(out).to_dense(), np.eye(8))

    def test_verify_writes_json(self, tmp_path, capsys):
        out = tmp_path / "verify.json"
        rc = cli.main(["verify", "--seed", "0", "--out", str(out)])
        assert rc == 0
        data = json.loads(out.read_text())
        assert data["all_pass"]
        captured = capsys.readouterr()
        assert "[PASS]" in captured.out

    def test_verify_output_pinned(self, tmp_path):
        # SHA-256 prefix of the verify.json bytes at seed 0: every oracle
        # record, instance and difference, bit for bit
        out = tmp_path / "verify.json"
        cli.main(["verify", "--seed", "0", "--out", str(out)])
        assert hashlib.sha256(out.read_bytes()).hexdigest()[:16] == "4193d6bd4a8b4501"
