import numpy as np
import pytest

from auxmg.csr import CsrMatrix, spmv
from auxmg.fem import assemble_operator, build_space, eliminate_dirichlet
from auxmg.mesh import build_cube_mesh, perturb_interior
from auxmg.transfer import build_prolongation, galerkin_coarse


def make_pair(n, k, seed=None):
    mesh = build_cube_mesh(n)
    if seed is not None:
        mesh = perturb_interior(mesh, seed=seed)
    return build_space(mesh, k), build_space(mesh, 1)


class TestProlongationEntries:
    def test_vertex_rows_are_indicators(self):
        fine, coarse = make_pair(1, 2)
        P = build_prolongation(fine, coarse, check=True).prolongation.to_dense()
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
        P = build_prolongation(fine, coarse, check=True).prolongation
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
        fine, coarse = make_pair(1, 2)
        with pytest.raises(ValueError):
            build_prolongation(coarse, coarse)
        with pytest.raises(ValueError):
            build_prolongation(fine, fine)

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
        T = build_prolongation(fine, coarse)
        A_H = galerkin_coarse(A_h, T).to_dense()
        direct = assemble_operator(coarse, "stiffness").to_dense()
        scale = np.max(np.abs(direct))
        assert np.max(np.abs(A_H - direct)) <= 1e-12 * scale

    def test_identity_transfer_degenerate(self):
        fine, _ = make_pair(1, 2)
        A_h = assemble_operator(fine, "stiffness")
        A_H = galerkin_coarse(A_h, CsrMatrix.identity(fine.n_dofs))
        assert np.max(np.abs(A_H.to_dense() - A_h.to_dense())) <= 1e-13

    def test_coarse_row_sums_vanish(self):
        fine, coarse = make_pair(2, 3)
        A_h = assemble_operator(fine, "stiffness")
        A_H = galerkin_coarse(A_h, build_prolongation(fine, coarse))
        assert np.max(np.abs(spmv(A_H, np.ones(coarse.n_dofs)))) <= 1e-12

    def test_dimension_mismatch(self):
        fine, coarse = make_pair(1, 2)
        A_h = assemble_operator(fine, "stiffness")
        with pytest.raises(ValueError):
            galerkin_coarse(A_h, CsrMatrix.identity(5))

    @pytest.mark.parametrize("k,n", [(2, 2), (3, 2)])
    def test_eliminated_galerkin_matches_direct(self, k, n):
        # interior hats vanish on the boundary, so elimination commutes
        # with the coarse-operator construction
        fine, coarse = make_pair(n, k, seed=13)
        A_h = assemble_operator(fine, "stiffness")
        fine_sys = eliminate_dirichlet(A_h, np.zeros(fine.n_dofs), fine)
        P_int = build_prolongation(fine, coarse).eliminated()
        A_H_gal = galerkin_coarse(fine_sys.A, P_int).to_dense()
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
        A_H = galerkin_coarse(A, P).to_dense()
        rng = np.random.default_rng(99)
        for _ in range(5):
            v = rng.standard_normal(A.nrows)
            rav = spmv(P.transpose(), spmv(A, v))
            lhs = rav @ np.linalg.solve(A_H, rav)
            rhs = v @ spmv(A, v)
            assert lhs <= rhs * (1 + 1e-12)
