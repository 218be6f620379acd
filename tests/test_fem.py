import tracemalloc
from fractions import Fraction
from math import factorial, prod

import numpy as np
import pytest

from auxmg import reference
from auxmg.csr import spmv
from auxmg.fem import FeSpace, assemble_load, assemble_operator, build_space, eliminate_dirichlet
from auxmg.mesh import TetMesh, build_cube_mesh, perturb_interior
from tests.test_csr import dense_sym_eigen
from tests.test_mesh import REFERENCE_TET


def integrate_barycentric_monomial(exponents, volume) -> float:
    """Exact integral of a barycentric monomial over a tet of given volume."""
    a, b, c, d = (int(e) for e in exponents)
    frac = Fraction(
        6 * factorial(a) * factorial(b) * factorial(c) * factorial(d),
        factorial(a + b + c + d + 3),
    )
    return float(volume) * float(frac)


def eval_basis_exact(k, bary):
    """All P^k basis functions at one exact barycentric point, from the
    integer table the reference integrals are built from."""
    exponents, numerators, denominator = reference._basis_table(k, None)
    bary = [Fraction(b) for b in bary]
    monomials = [prod(b ** int(e) for b, e in zip(bary, beta)) for beta in exponents]
    return [Fraction(sum(n * x for n, x in zip(row, monomials)), denominator) for row in numerators]


class TestReference:
    def test_monomial_constant(self):
        assert integrate_barycentric_monomial((0, 0, 0, 0), 1 / 6) == pytest.approx(1 / 6)

    def test_monomial_linear(self):
        assert integrate_barycentric_monomial((1, 0, 0, 0), 1 / 6) == pytest.approx(1 / 24)

    def test_monomial_bilinear(self):
        assert integrate_barycentric_monomial((1, 1, 0, 0), 1 / 6) == pytest.approx(1 / 120)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_kronecker_at_lattice_points(self, k):
        # exact rational check of the Lagrange property
        for j, alpha in enumerate(reference.lattice_points(k)):
            vals = eval_basis_exact(k, tuple(Fraction(a, k) for a in alpha))
            for i, v in enumerate(vals):
                assert v == (Fraction(1) if i == j else Fraction(0))

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_basis_values_at_quadrature_points(self, k):
        # the Grundmann-Moller points are rationals with denominators <= 12
        eps = np.finfo(float).eps
        values = reference.basis_values_at(k)
        for point, row in zip(reference.tet_quadrature()[0], values):
            exact = eval_basis_exact(k, [Fraction(float(x)).limit_denominator(12) for x in point])
            assert np.max(np.abs(row - [float(v) for v in exact])) <= 4 * eps
        assert np.max(np.abs(values.sum(axis=1) - 1.0)) <= 4 * eps

    def test_quadrature_exact_to_degree_9(self):
        pts, wts = reference.tet_quadrature()
        rng = np.random.default_rng(0)
        for _ in range(50):
            e = rng.integers(0, 4, size=4)
            if e.sum() > 9:
                continue
            exact = integrate_barycentric_monomial(tuple(e), 1.0)
            approx = float(np.sum(wts * np.prod(pts ** e, axis=1)))
            assert abs(approx - exact) <= 1e-13 * max(1.0, abs(exact))


class TestDofEnumeration:
    def test_cube_k2_counts(self):
        space = build_space(build_cube_mesh(1), 2)
        assert space.n_dofs == 27  # (k n + 1)^3 on Kuhn meshes

    def test_cube_k4_counts(self):
        space = build_space(build_cube_mesh(1), 4)
        assert space.n_dofs == 125
        assert len(space.interior_indices()) == 27

    def test_vertex_in_no_tet_keeps_zero_coordinates(self):
        mesh = build_cube_mesh(1)
        mesh = TetMesh(np.vstack([mesh.vertices, [[5.0, 5.0, 5.0]]]), mesh.tets)
        space = build_space(mesh, 2)
        assert space.dof_coords.shape == (space.n_dofs, 3)
        assert np.array_equal(space.dof_coords[8], np.zeros(3))

    def test_k1_dofs_are_vertices(self):
        mesh = build_cube_mesh(2)
        space = build_space(mesh, 1)
        assert space.n_dofs == mesh.num_vertices
        assert np.array_equal(space.element_dofs, mesh.tets)
        assert np.array_equal(space.dof_coords, mesh.vertices)

    @pytest.mark.parametrize("k,n", [(2, 2), (3, 1), (4, 1)])
    def test_lattice_counts(self, k, n):
        space = build_space(build_cube_mesh(n), k)
        assert space.n_dofs == (k * n + 1) ** 3
        assert len(space.interior_indices()) == (k * n - 1) ** 3

    def test_rejects_unsupported_order(self):
        with pytest.raises(ValueError):
            build_space(build_cube_mesh(1), 5)

    def test_element_dofs_length(self):
        space = build_space(build_cube_mesh(1), 3)
        assert space.element_dofs.shape[1] == 20  # C(k+3,3)

    def test_shared_face_dofs_agree(self):
        # two tets sharing a face must see the same global ids at shared nodes
        space = build_space(build_cube_mesh(2), 3)
        coords = space.dof_coords
        # conformity expressed through coordinates: each global DOF has one location
        seen = {}
        lattice = np.asarray(reference.lattice_points(3), float) / 3
        for t in range(space.mesh.num_tets):
            local = lattice @ space.mesh.vertices[space.mesh.tets[t]]
            for li, gid in enumerate(space.element_dofs[t]):
                key = int(gid)
                if key in seen:
                    assert np.max(np.abs(seen[key] - local[li])) <= 1e-12
                else:
                    seen[key] = local[li]
        assert len(seen) == space.n_dofs
        assert np.max(np.abs(coords - np.array([seen[i] for i in range(space.n_dofs)]))) <= 1e-12


class TestAssembly:
    def test_stiffness_reference_tet_entries(self):
        space = build_space(REFERENCE_TET, 1)
        A = assemble_operator(space, "stiffness").to_dense()
        assert A[0, 0] == pytest.approx(0.5, abs=1e-15)
        assert A[1, 1] == pytest.approx(1 / 6, abs=1e-15)
        assert A[0, 1] == pytest.approx(-1 / 6, abs=1e-15)
        assert A[1, 2] == pytest.approx(0.0, abs=1e-15)

    def test_mass_reference_tet_entries(self):
        space = build_space(REFERENCE_TET, 1)
        M = assemble_operator(space, "mass").to_dense()
        assert M[0, 0] == pytest.approx(1 / 60, abs=1e-16)
        assert M[0, 1] == pytest.approx(1 / 120, abs=1e-16)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_stiffness_row_sums_vanish(self, k):
        space = build_space(perturb_interior(build_cube_mesh(2), seed=4), k)
        A = assemble_operator(space, "stiffness")
        row_sums = spmv(A, np.ones(space.n_dofs))
        assert np.max(np.abs(row_sums)) <= 1e-12

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_mass_total(self, k):
        # integral of 1 over the unit cube through the mass matrix
        space = build_space(build_cube_mesh(2), k)
        M = assemble_operator(space, "mass")
        ones = np.ones(space.n_dofs)
        assert ones @ spmv(M, ones) == pytest.approx(1.0, abs=1e-12)

    def test_element_dofs_out_of_range_rejected(self):
        space = build_space(REFERENCE_TET, 1)
        space.n_dofs = 3
        with pytest.raises(ValueError, match="out of range for 3 DOFs"):
            assemble_operator(space, "stiffness")
        space = build_space(REFERENCE_TET, 1)
        space.element_dofs = space.element_dofs - 1
        with pytest.raises(ValueError, match="out of range"):
            assemble_operator(space, "mass")

    def test_transient_memory_per_triplet(self):
        # the build's peak is the sort key, an int32 sort permutation and
        # two copies of the values while they are gathered (the element
        # matrices are freed then), but no row or column copies of the
        # triplets
        space = build_space(build_cube_mesh(4), 4)
        assemble_operator(space, "stiffness")  # caches the reference table
        nt, n_loc = space.element_dofs.shape
        tracemalloc.start()
        try:
            assemble_operator(space, "stiffness")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4.0 * 8 * nt * n_loc**2

    def test_symmetry(self):
        space = build_space(perturb_interior(build_cube_mesh(2), seed=8), 3)
        assert assemble_operator(space, "stiffness").is_symmetric()
        assert assemble_operator(space, "mass").is_symmetric()

    def test_load_zero(self):
        space = build_space(build_cube_mesh(1), 1)
        assert np.array_equal(assemble_load(space, lambda x: np.zeros(len(x))), np.zeros(8))

    def test_load_partition_of_unity(self):
        space = build_space(build_cube_mesh(2), 1)
        load = assemble_load(space, lambda x: np.ones(len(x)))
        assert load.sum() == pytest.approx(1.0, abs=1e-12)

    def test_load_reference_tet(self):
        space = build_space(REFERENCE_TET, 1)
        load = assemble_load(space, lambda x: np.ones(len(x)))
        assert np.allclose(load, 1 / 24, atol=1e-14)


class TestElimination:
    def test_all_interior_is_identity_operation(self):
        space = build_space(build_cube_mesh(1), 2)
        A = assemble_operator(space, "mass")
        rhs = np.arange(space.n_dofs, dtype=float)
        free = FeSpace(
            space.mesh, space.order, space.n_dofs, space.element_dofs,
            space.dof_coords, np.zeros(space.n_dofs, dtype=bool),
        )
        sys = eliminate_dirichlet(A, rhs, free)
        assert np.array_equal(sys.A.to_dense(), A.to_dense())
        assert np.array_equal(sys.rhs, rhs)

    def test_cube_k2_interior_size(self):
        space = build_space(build_cube_mesh(1), 2)
        A = assemble_operator(space, "stiffness")
        sys = eliminate_dirichlet(A, np.zeros(space.n_dofs), space)
        assert sys.A.shape == (1, 1)

    def test_zero_lift_is_plain_restriction(self):
        space = build_space(build_cube_mesh(2), 2)
        A = assemble_operator(space, "stiffness")
        rhs = np.arange(space.n_dofs, dtype=float)
        sys = eliminate_dirichlet(A, rhs, space)
        assert np.array_equal(sys.rhs, rhs[space.interior_indices()])

    def test_index_maps(self):
        space = build_space(build_cube_mesh(2), 2)
        A = assemble_operator(space, "stiffness")
        sys = eliminate_dirichlet(A, np.zeros(space.n_dofs), space)
        assert np.array_equal(sys.interior_to_full, np.flatnonzero(~space.is_boundary))

    def test_size_mismatch(self):
        space = build_space(build_cube_mesh(1), 2)
        A = assemble_operator(space, "stiffness")
        with pytest.raises(ValueError):
            eliminate_dirichlet(A, np.zeros(5), space)

    @pytest.mark.parametrize("k", [1, 2])
    def test_eliminated_stiffness_spd(self, k):
        space = build_space(perturb_interior(build_cube_mesh(2), seed=6), k)
        A = assemble_operator(space, "stiffness")
        sys = eliminate_dirichlet(A, np.zeros(space.n_dofs), space)
        w, _ = dense_sym_eigen(sys.A.to_dense())
        assert w[0] > 0
