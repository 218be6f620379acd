import numpy as np
import pytest

from auxmg import reference
from auxmg.csr import CsrMatrix, spmv, triple_product
from auxmg.fem import assemble_operator, build_space, eliminate_dirichlet
from auxmg.mesh import build_cube_mesh, perturb_interior, refine_uniform
from auxmg.transfer import build_prolongation


def make_pair(n, k, seed=None):
    mesh = build_cube_mesh(n)
    if seed is not None:
        mesh = perturb_interior(mesh, seed=seed)
    return build_space(mesh, k), build_space(mesh, 1)


def assert_tets_agree(P, fine):
    """Every tet gives each of its lattice nodes the tet's barycentric
    weights, P[element_dofs[t, j], tets[t]] == lattice[j] / k, so a node's
    row does not depend on the containing tet it was read from."""
    lattice = np.array(reference.lattice_points(fine.order))
    got = P.to_dense()[fine.element_dofs[:, :, None], fine.mesh.tets[:, None, :]]
    assert np.array_equal(got, np.broadcast_to(lattice / fine.order, got.shape))


class TestProlongationEntries:
    def test_vertex_rows_are_indicators(self):
        fine, coarse = make_pair(1, 2)
        P = build_prolongation(fine, coarse).prolongation
        assert_tets_agree(P, fine)
        P = P.to_dense()
        for v in range(coarse.n_dofs):
            row = P[v]  # fine vertex DOF ids equal coarse vertex ids
            assert row[v] == 1.0
            assert np.count_nonzero(row) == 1

    def test_edge_midpoint_rows(self):
        fine, coarse = make_pair(1, 2)
        P = build_prolongation(fine, coarse).prolongation
        dense = P.to_dense()
        for i in range(coarse.n_dofs, fine.n_dofs):
            nz = dense[i][dense[i] != 0]
            assert sorted(nz) == [0.5, 0.5]

    def test_k4_lattice_row(self):
        fine, coarse = make_pair(1, 4)
        dense = build_prolongation(fine, coarse).prolongation.to_dense()
        # some row must carry barycentric weights (1/2, 1/4, 1/4)
        found = False
        for row in dense:
            nz = sorted(row[row != 0])
            if nz == [0.25, 0.25, 0.5]:
                found = True
        assert found

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_rows_sum_to_one(self, k):
        fine, coarse = make_pair(2, k, seed=11)
        P = build_prolongation(fine, coarse).prolongation
        assert_tets_agree(P, fine)
        sums = spmv(P, np.ones(coarse.n_dofs))
        assert np.max(np.abs(sums - 1.0)) <= 1e-14

    def test_at_most_four_entries_per_row(self):
        fine, coarse = make_pair(2, 4)
        P = build_prolongation(fine, coarse).prolongation
        assert np.max(np.diff(P.row_ptr)) <= 4

    def test_restriction_is_transpose(self):
        fine, coarse = make_pair(1, 2)
        T = build_prolongation(fine, coarse)
        assert np.array_equal(T.prolongation.transpose().to_dense(), T.prolongation.to_dense().T)

    def test_rejects_wrong_orders(self):
        fine, _ = make_pair(1, 2)
        with pytest.raises(ValueError):
            build_prolongation(fine, fine)

    @pytest.mark.parametrize("mesh", [
        build_cube_mesh(3), perturb_interior(build_cube_mesh(4), seed=2), refine_uniform(build_cube_mesh(2)),
    ], ids=["cube3", "perturbed4", "refined2"])
    def test_p1_to_p1_is_identity(self, mesh):
        space = build_space(mesh, 1)
        T = build_prolongation(space, build_space(mesh, 1))
        assert_tets_agree(T.prolongation, space)
        n_int = len(space.interior_indices())
        for P, n in ((T.prolongation, space.n_dofs), (T.eliminated(), n_int)):
            identity = CsrMatrix.identity(n)
            for name in ("row_ptr", "col_idx", "values"):
                got, want = getattr(P, name), getattr(identity, name)
                assert got.dtype == want.dtype and np.array_equal(got, want), name

    def test_rejects_mismatched_meshes(self):
        fine, _ = make_pair(1, 2)
        other_coarse = build_space(build_cube_mesh(2), 1)
        with pytest.raises(ValueError):
            build_prolongation(fine, other_coarse)

    def test_linear_function_reproduced(self):
        # coefficients of a linear function transfer exactly (P1 in Pk)
        fine, coarse = make_pair(2, 3, seed=12)
        T = build_prolongation(fine, coarse)
        f = lambda x: 0.3 * x[:, 0] - 1.7 * x[:, 1] + 0.9 * x[:, 2] + 0.25
        coarse_coeffs = f(coarse.dof_coords)
        fine_coeffs = f(fine.dof_coords)
        assert np.max(np.abs(spmv(T.prolongation, coarse_coeffs) - fine_coeffs)) <= 1e-13


class TestGalerkinCoarse:
    @pytest.mark.parametrize("k,n", [(2, 1), (3, 1), (2, 2)])
    def test_matches_direct_p1_assembly(self, k, n):
        fine, coarse = make_pair(n, k)
        A_h = assemble_operator(fine, "stiffness")
        P = build_prolongation(fine, coarse).prolongation
        A_H = triple_product(P.transpose(), A_h, P).to_dense()
        direct = assemble_operator(coarse, "stiffness").to_dense()
        scale = np.max(np.abs(direct))
        assert np.max(np.abs(A_H - direct)) <= 1e-12 * scale

    def test_identity_transfer_degenerate(self):
        fine, _ = make_pair(1, 2)
        A_h = assemble_operator(fine, "stiffness")
        I = CsrMatrix.identity(fine.n_dofs)
        A_H = triple_product(I, A_h, I)
        assert np.max(np.abs(A_H.to_dense() - A_h.to_dense())) <= 1e-13

    def test_coarse_row_sums_vanish(self):
        fine, coarse = make_pair(2, 3)
        A_h = assemble_operator(fine, "stiffness")
        P = build_prolongation(fine, coarse).prolongation
        A_H = triple_product(P.transpose(), A_h, P)
        assert np.max(np.abs(spmv(A_H, np.ones(coarse.n_dofs)))) <= 1e-12

    def test_dimension_mismatch(self):
        fine, coarse = make_pair(1, 2)
        A_h = assemble_operator(fine, "stiffness")
        I = CsrMatrix.identity(5)
        with pytest.raises(ValueError):
            triple_product(I, A_h, I)

    @pytest.mark.parametrize("k,n", [(2, 2), (3, 2)])
    def test_eliminated_galerkin_matches_direct(self, k, n):
        # interior hats vanish on the boundary, so elimination commutes
        # with the coarse-operator construction
        fine, coarse = make_pair(n, k, seed=13)
        A_h = assemble_operator(fine, "stiffness")
        fine_sys = eliminate_dirichlet(A_h, np.zeros(fine.n_dofs), fine)
        P_int = build_prolongation(fine, coarse).eliminated()
        A_H_gal = triple_product(P_int.transpose(), fine_sys.A, P_int).to_dense()
        coarse_full = assemble_operator(coarse, "stiffness")
        coarse_sys = eliminate_dirichlet(coarse_full, np.zeros(coarse.n_dofs), coarse)
        direct = coarse_sys.A.to_dense()
        assert np.max(np.abs(A_H_gal - direct)) <= 1e-12 * max(1.0, np.max(np.abs(direct)))


class TestEnergyBound:
    @pytest.mark.parametrize("k,n", [(2, 2), (3, 2)])
    def test_coarse_projection_energy_bounded(self, k, n):
        # ||P_H v||_A^2 = (A_H^{-1} R A v) . (R A v) <= v . A v
        fine, coarse = make_pair(n, k, seed=14)
        A_h = assemble_operator(fine, "stiffness")
        fine_sys = eliminate_dirichlet(A_h, np.zeros(fine.n_dofs), fine)
        P = build_prolongation(fine, coarse).eliminated()
        A = fine_sys.A
        A_H = triple_product(P.transpose(), A, P).to_dense()
        rng = np.random.default_rng(99)
        for _ in range(5):
            v = rng.standard_normal(A.nrows)
            rav = spmv(P.transpose(), spmv(A, v))
            lhs = rav @ np.linalg.solve(A_H, rav)
            rhs = v @ spmv(A, v)
            assert lhs <= rhs * (1 + 1e-12)
