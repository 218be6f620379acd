import hashlib
from unittest import mock

import numpy as np
import pytest
import scipy.sparse

from auxmg import mesh as mesh_module
from auxmg import reference, stokes
from auxmg.csr import CsrMatrix, spmv
from auxmg.krylov import SolverConfig
from auxmg.mesh import build_cube_mesh, perturb_interior
from auxmg.stokes import (
    BlockPreconditioner,
    InnerSolveError,
    StokesSystem,
    assemble_stokes,
    build_block_preconditioner,
    project_pressure_mean,
    solve_cavity,
    write_vtk,
)
from auxmg.fem import assemble_divergence, build_space


def velocity_block(S):
    """The 3x3 block-diagonal vector Laplacian, A_scalar on each component."""
    return CsrMatrix.from_scipy(scipy.sparse.block_diag([S.A_scalar.to_scipy()] * 3).tocsr())


def dense_saddle(S):
    F = np.zeros((S.dim, S.dim))
    nu = S.n_velocity
    F[:nu, :nu] = velocity_block(S).to_dense()
    F[:nu, nu:] = S.B.to_dense().T
    F[nu:, :nu] = S.B.to_dense()
    return F


def pinned_dense_solve(S):
    """Dense oracle: pin pressure DOF 0 to fix the constant mode."""
    F = dense_saddle(S)
    b = S.rhs()
    nu = S.n_velocity
    F[nu, :] = 0.0
    F[:, nu] = 0.0
    F[nu, nu] = 1.0
    b = b.copy()
    b[nu] = 0.0
    x = np.linalg.solve(F, b)
    u, p = S.split(x)
    return u, project_pressure_mean(p, S.M_p)


class TestAssembly:
    def test_dof_counts(self):
        S = assemble_stokes(build_cube_mesh(1), 2)
        assert S.velocity_space.n_dofs * 3 == 81
        assert S.n_pressure == 8
        assert S.n_velocity == 3  # one interior scalar DOF

    def test_numpy_integer_order_assembles(self):
        mesh = build_cube_mesh(2)
        got, want = assemble_stokes(mesh, np.int64(2)), assemble_stokes(mesh, 2)
        assert type(got.velocity_space.order) is int and type(got.pressure_space.order) is int
        assert np.array_equal(got.B.to_dense(), want.B.to_dense())

    def test_rejects_unstable_pair(self):
        with pytest.raises(ValueError):
            assemble_stokes(build_cube_mesh(1), 1)

    @pytest.mark.parametrize("k, orders", [(2, [2, 1]), (3, [3, 2, 1])])
    def test_qd_gamg_setup_forms_geometry_once(self, k, orders):
        # the stiffness, mass and divergence read the geometry the mesh
        # formed when it was built, and at k = 2 the P1 pressure space is
        # the auxiliary space
        mesh = build_cube_mesh(2)
        with mock.patch.object(mesh_module, "_element_geometry", wraps=mesh_module._element_geometry) as geometry, \
                mock.patch.object(stokes, "build_space", wraps=stokes.build_space) as space:
            S = assemble_stokes(mesh, k)
            build_block_preconditioner(S, kind="Qd", engine="gamg")
        assert geometry.call_count == 0
        assert [c.args[1] for c in space.call_args_list] == orders

    @pytest.mark.parametrize("lid", [(1.0, 0.0), (np.nan, 0.0, 0.0), (0.0, np.inf, 0.0), (1, 0, 0, 0),
                                     [[1.0, 0.0, 0.0]], "abc", None])
    def test_bad_lid_is_named_before_any_work(self, lid):
        with mock.patch.object(stokes, "build_space", side_effect=RuntimeError("build_space ran")):
            with pytest.raises(ValueError, match="lid_velocity"):
                assemble_stokes(build_cube_mesh(1), 2, lid_velocity=lid)

    def test_lid_takes_any_three_numbers(self):
        want = assemble_stokes(build_cube_mesh(1), 2, lid_velocity=(1.0, 0.0, 0.0)).rhs()
        for lid in [(1, 0, 0), np.array([1.0, 0.0, 0.0]), [np.float32(1), 0, 0]]:
            assert np.array_equal(assemble_stokes(build_cube_mesh(1), 2, lid_velocity=lid).rhs(), want)

    def test_zero_lid_means_zero_rhs(self):
        S = assemble_stokes(build_cube_mesh(1), 2, lid_velocity=(0.0, 0.0, 0.0))
        assert np.array_equal(S.rhs(), np.zeros(S.dim))
        u, p, rep = solve_cavity(S)
        assert rep.converged and rep.iterations == 0
        assert np.array_equal(u, np.zeros_like(u))

    def test_saddle_operator_symmetric(self):
        S = assemble_stokes(build_cube_mesh(1), 2)
        F = dense_saddle(S)
        assert np.max(np.abs(F - F.T)) <= 1e-12 * max(1.0, np.max(np.abs(F)))
        assert np.max(np.abs(F[S.n_velocity :, S.n_velocity :])) == 0.0

    def test_operator_on_components_matches_block_diagonal_matrix(self):
        # apply_operator runs A_scalar on the (n, 3) view of u; the rows of
        # the block-diagonal A are A_scalar's rows, so every bit agrees
        S = assemble_stokes(build_cube_mesh(2), 2)
        x = np.random.default_rng(4).standard_normal(S.dim)
        u, p = S.split(x)
        A = velocity_block(S)
        top = spmv(A, u) + spmv(S.B.transpose(), p)
        assert np.array_equal(S.apply_operator(x), np.concatenate([top, spmv(S.B, u)]))
        n = S.n_interior
        assert A.shape == (3 * n, 3 * n)
        assert np.array_equal(A.submatrix(np.arange(n, 2 * n), np.arange(n, 2 * n)).to_dense(),
                              S.A_scalar.to_dense())

    def test_blocks_spd(self):
        S = assemble_stokes(build_cube_mesh(1), 2)
        A = velocity_block(S)
        assert A.is_symmetric() and S.M_p.is_symmetric()
        assert np.linalg.eigvalsh(A.to_dense()).min() > 0
        assert np.linalg.eigvalsh(S.M_p.to_dense()).min() > 0

    def test_constant_fields_divergence_free(self):
        # -div of a constant interpolant vanishes row by row
        mesh = build_cube_mesh(2)
        vel, pres = build_space(mesh, 2), build_space(mesh, 1)
        blocks = assemble_divergence(vel, pres)
        for c, blk in enumerate(blocks):
            img = spmv(blk, np.full(vel.n_dofs, 2.5))
            assert np.max(np.abs(img)) <= 1e-13

    @pytest.mark.parametrize("k", [2, 3])
    def test_divergence_blocks_match_per_component_coo(self, k):
        # the shared-pattern build gives, array for array, the blocks of
        # one from_coo per component over repeated/tiled triplets
        mesh = build_cube_mesh(3)
        vel, pres = build_space(mesh, k), build_space(mesh, k - 1)
        grads, vol = mesh.gradients, mesh.volumes
        N = reference.divergence_reference(k, k - 1)
        n_p_loc, n_v_loc = N.shape[1], N.shape[2]
        prow = np.repeat(pres.element_dofs, n_v_loc, axis=1).ravel()
        vcol = np.tile(vel.element_dofs, (1, n_p_loc)).ravel()
        blocks = assemble_divergence(vel, pres)
        assert len(blocks) == 3
        for c, blk in enumerate(blocks):
            local = -np.einsum("t,tm,mqi->tqi", vol, grads[:, :, c], N)
            want = CsrMatrix.from_coo(pres.n_dofs, vel.n_dofs, prow, vcol, local.ravel())
            assert blk.shape == want.shape
            assert np.array_equal(blk.row_ptr, want.row_ptr)
            assert np.array_equal(blk.col_idx, want.col_idx)
            assert np.array_equal(blk.values.view(np.uint64), want.values.view(np.uint64))

    def test_constant_pressure_annihilated(self):
        # B^T 1 = 0: interior velocity basis has no boundary flux
        S = assemble_stokes(build_cube_mesh(2), 2)
        img = spmv(S.B.transpose(), np.ones(S.n_pressure))
        assert np.max(np.abs(img)) <= 1e-12

    def test_lid_rim_is_watertight(self):
        S = assemble_stokes(build_cube_mesh(2), 2, lid_velocity=(1.0, 0.0, 0.0))
        g = S.lid_values
        coords = S.velocity_space.dof_coords
        on_top = np.abs(coords[:, 2] - 1.0) <= 1e-9
        on_rim = on_top & (
            (np.abs(coords[:, 0]) <= 1e-9) | (np.abs(coords[:, 0] - 1.0) <= 1e-9)
            | (np.abs(coords[:, 1]) <= 1e-9) | (np.abs(coords[:, 1] - 1.0) <= 1e-9)
        )
        assert np.all(g[on_rim] == 0.0)
        assert np.all(g[on_top & ~on_rim, 0] == 1.0)
        assert np.all(g[~on_top] == 0.0)


class TestPressureProjection:
    def test_idempotent(self):
        S = assemble_stokes(build_cube_mesh(1), 2)
        rng = np.random.default_rng(0)
        p = rng.standard_normal(S.n_pressure)
        q = project_pressure_mean(p, S.M_p)
        assert np.max(np.abs(project_pressure_mean(q, S.M_p) - q)) <= 1e-14

    def test_constant_maps_to_zero(self):
        S = assemble_stokes(build_cube_mesh(1), 2)
        q = project_pressure_mean(np.full(S.n_pressure, 3.7), S.M_p)
        assert np.max(np.abs(q)) <= 1e-14

    def test_identity_weight_is_arithmetic_mean(self):
        q = project_pressure_mean(np.array([1.0, 2.0, 3.0]), CsrMatrix.identity(3))
        assert np.allclose(q, [-1.0, 0.0, 1.0], atol=1e-15)

    @pytest.mark.parametrize("p", [np.zeros(3), np.zeros((4, 1)), 1.0])
    def test_wrong_length_named(self, p):
        with pytest.raises(ValueError, match=r"^p must hold the 4 pressure values of M_p, got shape "):
            project_pressure_mean(p, CsrMatrix.identity(4))


class _ExactBlocks:
    """Preconditioner rig with dense exact inverses (oracle side)."""

    def __init__(self, S):
        self.Ainv = np.linalg.inv(S.A_scalar.to_dense())

    def __call__(self, r):
        return self.Ainv @ r


class TestBlockPreconditioner:
    def test_zero_residual(self):
        S = assemble_stokes(build_cube_mesh(1), 2)
        P = build_block_preconditioner(S, kind="Qt")
        z_u, z_p = P.apply(np.zeros(S.n_velocity), np.zeros(S.n_pressure))
        assert np.array_equal(z_u, np.zeros_like(z_u))
        assert np.array_equal(z_p, np.zeros_like(z_p))

    def test_decoupled_blocks_agree_up_to_pressure_sign(self):
        # with B = 0 and exact blocks Qt and Qd decouple identically,
        # except for Qt's negated Schur block
        S = assemble_stokes(build_cube_mesh(1), 2)
        S.B = CsrMatrix.from_coo(S.n_pressure, S.n_velocity, [], [], [])
        rng = np.random.default_rng(1)
        r = (rng.standard_normal(S.n_velocity), rng.standard_normal(S.n_pressure))
        exact = _ExactBlocks(S)
        qt = BlockPreconditioner("Qt", exact, S, schur_tol=1e-12, schur_max_iters=200)
        qd = BlockPreconditioner("Qd", exact, S, schur_tol=1e-12, schur_max_iters=200)
        zu_t, zp_t = qt.apply(*r)
        zu_d, zp_d = qd.apply(*r)
        assert np.max(np.abs(zu_t - zu_d)) <= 1e-12
        assert np.max(np.abs(zp_t + zp_d)) <= 1e-12

    def test_qt_matches_dense_triangular_factor(self):
        S = assemble_stokes(build_cube_mesh(1), 2)
        nu, npres = S.n_velocity, S.n_pressure
        rng = np.random.default_rng(2)
        x = rng.standard_normal(S.dim)
        r = S.apply_operator(x)
        qt = BlockPreconditioner("Qt", _ExactBlocks(S), S, schur_tol=1e-14, schur_max_iters=500)
        z_u, z_p = qt.apply(r[:nu], r[nu:])
        T = np.zeros((S.dim, S.dim))
        T[:nu, :nu] = velocity_block(S).to_dense()
        T[:nu, nu:] = S.B.to_dense().T
        T[nu:, nu:] = -S.M_p.to_dense()
        z_ref = np.linalg.solve(T, r)
        assert np.max(np.abs(np.concatenate([z_u, z_p]) - z_ref)) <= 1e-10 * max(1.0, np.max(np.abs(z_ref)))

    def test_block_sizes_checked(self):
        S = assemble_stokes(build_cube_mesh(1), 2)
        P = build_block_preconditioner(S, kind="Qd")
        with pytest.raises(ValueError, match="block sizes"):
            P.apply(np.zeros(S.n_velocity + 1), np.zeros(S.n_pressure))

    def test_unknown_engine_rejected(self):
        S = assemble_stokes(build_cube_mesh(1), 2)
        with pytest.raises(ValueError, match="^unknown engine 'gmg'$"):
            build_block_preconditioner(S, engine="gmg")

    @pytest.mark.parametrize("kind", ["Qx", "qt"])
    def test_unknown_kind_rejected_before_setup(self, monkeypatch, kind):
        S = assemble_stokes(build_cube_mesh(1), 2)

        def no_setup(*args, **kw):
            raise AssertionError("the velocity cycle built for an unknown kind")

        monkeypatch.setattr(stokes, "TwoLevelPreconditioner", no_setup)
        with pytest.raises(ValueError, match=f"^kind must be 'Qt' or 'Qd', got '{kind}'$"):
            build_block_preconditioner(S, kind=kind)

    def test_inner_solve_failure_carries_report(self):
        S = assemble_stokes(build_cube_mesh(1), 2)
        P = build_block_preconditioner(S, kind="Qt")
        P.schur_tol = 1e-30
        P.schur_max_iters = 1
        with pytest.raises(InnerSolveError) as exc:
            P.apply(np.zeros(S.n_velocity), np.ones(S.n_pressure))
        assert exc.value.report.iterations == 1

    def test_qd_action_spd(self):
        S = assemble_stokes(build_cube_mesh(1), 2)
        qd = build_block_preconditioner(S, kind="Qd", engine="gamg")
        n = S.dim
        M = np.column_stack([qd(e) for e in np.eye(n)])
        # symmetric up to the inner-CG tolerance, positive on the
        # complement of the projected-out pressure constant
        assert np.max(np.abs(M - M.T)) <= 1e-8 * np.max(np.abs(M))
        w = np.linalg.eigvalsh(0.5 * (M + M.T))
        assert w[1] > 0  # one zero eigenvalue from the mean projection


class TestCavitySolve:
    def test_qt_gamg_converges_and_controls_divergence(self):
        S = assemble_stokes(build_cube_mesh(2), 2)
        u, p, rep = solve_cavity(S, precond_kind="Qt", coarse_engine="gamg")
        assert rep.converged
        # total discrete divergence (interior part + lid lift) at the
        # residual level
        interior = S.velocity_space.interior_indices()
        u_int = np.concatenate([u[interior, c] for c in range(3)])
        div_total = spmv(S.B, u_int) - S.rhs_p
        assert np.linalg.norm(div_total) <= 1e-7 * max(1.0, np.linalg.norm(S.rhs()))

    def test_matches_dense_pinned_oracle(self):
        # n=1 is inf-sup degenerate (more pressure than velocity DOFs),
        # so n=2 is the smallest well-posed cavity
        S = assemble_stokes(build_cube_mesh(2), 2)
        u, p, rep = solve_cavity(S, precond_kind="Qt", coarse_engine="gamg",
                                 cfg=SolverConfig(method="fgmres", rel_tol=1e-10, max_iters=200))
        assert rep.converged
        u_ref, p_ref = pinned_dense_solve(S)
        interior = S.velocity_space.interior_indices()
        u_int = np.concatenate([u[interior, c] for c in range(3)])
        x = np.concatenate([u_int, p])
        x_ref = np.concatenate([u_ref, p_ref])
        assert np.linalg.norm(x - x_ref) <= 1e-6 * np.linalg.norm(x_ref)

    def test_minres_qd_matches_fgmres_qt(self):
        S = assemble_stokes(build_cube_mesh(2), 2)
        u_t, p_t, rep_t = solve_cavity(S, precond_kind="Qt", coarse_engine="gamg")
        u_d, p_d, rep_d = solve_cavity(S, precond_kind="Qd", coarse_engine="gamg")
        assert rep_t.converged and rep_d.converged
        x_t = np.concatenate([u_t.ravel(), p_t])
        x_d = np.concatenate([u_d.ravel(), p_d])
        assert np.linalg.norm(x_t - x_d) <= 1e-6 * np.linalg.norm(x_t)

    def test_amg_engine_also_converges(self):
        S = assemble_stokes(build_cube_mesh(2), 2)
        u, p, rep = solve_cavity(S, precond_kind="Qt", coarse_engine="amg")
        assert rep.converged

    def test_cg_rejected_on_the_indefinite_system(self):
        S = assemble_stokes(build_cube_mesh(1), 2)
        with pytest.raises(ValueError, match="'cg'"):
            solve_cavity(S, cfg=SolverConfig(method="cg"))

    @pytest.mark.parametrize("kind, method", [("Qt", "minres"), ("Qt", "cg"), ("Qd", "cg")])
    def test_method_the_form_does_not_admit_fails_before_setup(self, kind, method, monkeypatch):
        def no_setup(*args, **kwargs):
            raise AssertionError("the preconditioner was built before the method was checked")

        monkeypatch.setattr(stokes, "build_block_preconditioner", no_setup)
        S = assemble_stokes(build_cube_mesh(1), 2)
        with pytest.raises(ValueError, match=f"^method '{method}' does not suit the {kind} form"):
            solve_cavity(S, precond_kind=kind, cfg=SolverConfig(method=method))

    @pytest.mark.parametrize("x0", [np.zeros(3), [0.0] * 4, np.zeros((1, 4))])
    def test_wrong_length_guess_named_before_setup(self, x0, monkeypatch):
        def no_setup(*args, **kwargs):
            raise AssertionError("the preconditioner was built before x0 was checked")

        monkeypatch.setattr(stokes, "build_block_preconditioner", no_setup)
        S = assemble_stokes(build_cube_mesh(1), 2)
        with pytest.raises(ValueError, match=rf"^x0 must hold the system's {S.dim} unknowns, got shape "):
            solve_cavity(S, "Qd", x0=x0)

    def test_ready_qt_preconditioner_rejects_minres(self):
        S = assemble_stokes(build_cube_mesh(2), 2)
        M = build_block_preconditioner(S, kind="Qt")
        with pytest.raises(ValueError, match="'minres' does not suit the Qt form, which admits fgmres only"):
            stokes._solve_preconditioned(S, M, SolverConfig(method="minres"))

    def test_qd_admits_fgmres(self):
        S = assemble_stokes(build_cube_mesh(2), 2)
        _, _, rep = solve_cavity(S, precond_kind="Qd", cfg=SolverConfig(method="fgmres", rel_tol=1e-8))
        assert rep.converged


class TestInfSup:
    def test_schur_complement_does_not_collapse(self):
        smallest = []
        for n in (2, 3):
            S = assemble_stokes(build_cube_mesh(n), 2)
            Ainv = np.linalg.inv(velocity_block(S).to_dense())
            Schur = S.B.to_dense() @ Ainv @ S.B.to_dense().T
            w = np.linalg.eigvalsh(Schur)
            assert w[0] >= -1e-10  # PSD with the constant-pressure kernel
            smallest.append(w[1])
        assert min(smallest) > 1e-6


class TestVtk:
    def test_writer_layout(self, tmp_path):
        mesh = build_cube_mesh(1)
        S = assemble_stokes(mesh, 2)
        u, p, _ = solve_cavity(S)
        vtx_vel = u[: mesh.num_vertices]
        path = tmp_path / "out.vtk"
        write_vtk(path, mesh, {"velocity": vtx_vel, "pressure": np.zeros(mesh.num_vertices)})
        text = path.read_text()
        assert "POINTS 8 double" in text
        assert "CELL_TYPES 6" in text
        assert "VECTORS velocity double" in text
        assert "SCALARS pressure double 1" in text

    @pytest.mark.parametrize("with_fields, digest", [
        (True, "5d0b3b739dde4b47fd4ad562f559a5ac3f55faf3a4f90d1837a5736afb5ba8c9"),
        (False, "515e921b1a8e185b1a6f9202ae6a09b70e2205d97f670ce4b67e12ebad447091"),
    ], ids=["fields", "no_fields"])
    def test_bytes_pinned(self, tmp_path, with_fields, digest):
        # the exact bytes on a perturbed mesh, with a vector and a scalar
        # field and with none
        mesh = perturb_interior(build_cube_mesh(3), seed=1)
        x = mesh.vertices
        fields = {"velocity": x[:, ::-1] - 0.5, "pressure": x[:, 0] * x[:, 1] - x[:, 2] / 3.0}
        path = tmp_path / "pinned.vtk"
        write_vtk(path, mesh, fields if with_fields else None)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize("field", [np.zeros(3), np.zeros((8, 2))], ids=["short", "two_columns"])
    def test_malformed_point_field_rejected(self, tmp_path, field):
        path = tmp_path / "bad.vtk"
        with pytest.raises(ValueError, match=rf"'f' has shape \({field.shape[0]},"):
            write_vtk(path, build_cube_mesh(1), {"f": field})
        assert not path.exists()
