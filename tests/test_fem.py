import dataclasses
import gc
import tracemalloc
from fractions import Fraction
from math import factorial, prod
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from auxmg import fem, problems, reference
from auxmg.csr import CsrMatrix, spmv
from auxmg.fem import assemble_load, assemble_operator, build_space, eliminate_dirichlet, l2_error
from auxmg.mesh import TetMesh, build_cube_mesh, perturb_interior, sub_simplices
from auxmg.transfer import build_prolongation
from tests.test_csr import dense_sym_eigen
from tests.test_mesh import REFERENCE_TET
from tests.test_transfer import sub_meshes


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


def per_slot_element_dofs(mesh, k):
    """``element_dofs`` as numbered from each lattice slot's own
    enumeration of the sub-simplices its local vertex tuple spans."""
    lattice = np.array(reference.lattice_points(k))
    support = lattice > 0
    size = support.sum(axis=1)
    nt, nv = mesh.num_tets, mesh.num_vertices
    per_edge, per_face = k - 1, (k - 1) * (k - 2) // 2
    dofs = np.empty((nt, len(lattice)), dtype=np.int64)
    vert = np.flatnonzero(size == 1)
    dofs[:, vert] = mesh.tets[:, np.argmax(support[vert], axis=1)]
    # an edge slot counts down the exponent on the edge's lower vertex
    edge = np.flatnonzero(size == 2)
    pairs = np.nonzero(support[edge])[1].reshape(-1, 2)
    edges, edge_ids = sub_simplices(mesh.tets, pairs)
    exps = lattice[edge[:, None], pairs]
    lower_first = mesh.tets[:, pairs[:, 0]] < mesh.tets[:, pairs[:, 1]]
    dofs[:, edge] = nv + edge_ids * per_edge + (k - 1) - np.where(lower_first, exps[:, 0], exps[:, 1])
    base_face = nv + len(edges) * per_edge
    # a face slot ranks its exponents on the sorted vertices, descending
    face = np.flatnonzero(size == 3)
    multis = [(a, b, k - a - b) for a in range(k - 1, 0, -1) for b in range(k - a - 1, 0, -1)]
    triples = np.nonzero(support[face])[1].reshape(-1, 3)
    faces, face_ids = sub_simplices(mesh.tets, triples)
    by_vertex = np.argsort(mesh.tets[:, triples], axis=2)
    exps = np.take_along_axis(lattice[face[:, None], triples][None], by_vertex, axis=2)
    slot = np.array([multis.index(tuple(e)) for e in exps.reshape(-1, 3).tolist()], dtype=np.int64)
    dofs[:, face] = base_face + face_ids * per_face + slot.reshape(nt, -1)
    base_tet = base_face + len(faces) * per_face
    inner = np.flatnonzero(size == 4)
    dofs[:, inner] = base_tet + np.arange(nt * len(inner)).reshape(nt, -1)
    return dofs


class TestDofEnumeration:
    @settings(max_examples=100, deadline=None)
    @given(sub_meshes(), st.integers(1, 4))
    def test_mesh_numbering_gives_the_per_slot_dofs(self, mesh, k):
        used, tets = np.unique(mesh.tets, return_inverse=True)  # a vertex in no tet has no DOF
        mesh = TetMesh(mesh.vertices[used], tets.reshape(-1, 4))
        assert np.array_equal(build_space(mesh, k).element_dofs, per_slot_element_dofs(mesh, k))

    def test_reads_the_mesh_numbering(self, monkeypatch):
        mesh = perturb_interior(build_cube_mesh(2), seed=1)
        want = [build_space(mesh, k).element_dofs for k in (1, 2, 3, 4)]

        def unique(*args, **kwargs):
            raise AssertionError("enumerated sub-simplices")

        monkeypatch.setattr(np, "unique", unique)
        for k in (1, 2, 3, 4):
            assert np.array_equal(build_space(mesh, k).element_dofs, want[k - 1])

    def test_cube_k2_counts(self):
        space = build_space(build_cube_mesh(1), 2)
        assert space.n_dofs == 27  # (k n + 1)^3 on Kuhn meshes

    def test_cube_k4_counts(self):
        space = build_space(build_cube_mesh(1), 4)
        assert space.n_dofs == 125
        assert len(space.interior_indices()) == 27

    def test_vertex_in_no_tet_rejected_by_name(self):
        # such a vertex would get a DOF with no coordinates, no transfer
        # row and an all-zero stiffness row
        mesh = build_cube_mesh(1)
        mesh = TetMesh(np.vstack([mesh.vertices, [[5.0, 5.0, 5.0]]]), mesh.tets)
        for k in (1, 2, 3, 4):
            with pytest.raises(ValueError, match="^vertex 8 lies in no tet$"):
                build_space(mesh, k)

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


def _zero(x):
    return np.zeros(len(x))


class TestBadInput:
    @pytest.mark.parametrize("k", [2.0, True, 0, 5, "2"])
    def test_order_not_an_integer_in_range(self, k):
        # 2.0 and True compare equal to supported orders
        with pytest.raises(ValueError, match=f"^unsupported polynomial order {k}$"):
            build_space(build_cube_mesh(1), k)

    def test_numpy_integer_order_accepted(self):
        assert build_space(build_cube_mesh(1), np.int64(2)).n_dofs == 27

    def test_numpy_integer_order_stored_as_an_int(self):
        # a numpy order made n_dofs a numpy scalar, which the CSR build of
        # assembly could not take
        mesh = build_cube_mesh(2)
        space = build_space(mesh, np.int64(2))
        assert type(space.order) is int and type(space.n_dofs) is int
        got, want = (assemble_operator(s, "stiffness") for s in (space, build_space(mesh, 2)))
        assert np.array_equal(got.to_dense(), want.to_dense())

    def test_unknown_form_named_before_the_keys(self):
        space = build_space(build_cube_mesh(1), 2)
        with mock.patch.object(fem, "_element_keys", side_effect=RuntimeError("keys formed")):
            with pytest.raises(ValueError, match="unknown form 'foo'"):
                assemble_operator(space, "foo")

    @pytest.mark.parametrize("length", [5, 9])
    def test_l2_error_names_the_coefficient_length(self, length):
        space = build_space(build_cube_mesh(1), 1)
        with pytest.raises(ValueError, match=r"shape \(%d,\), expected \(8,\)" % length):
            l2_error(space, np.zeros(length), _zero)

    @pytest.mark.parametrize("values", [lambda x: np.zeros(len(x) - 1), lambda x: np.zeros((len(x), 2))],
                             ids=["short", "two_per_point"])
    def test_wrong_value_count_named(self, values):
        space = build_space(build_cube_mesh(1), 1)
        m = space.mesh.num_tets * len(reference.tet_quadrature()[1])
        with pytest.raises(ValueError, match=f"^f returned .* values, expected {m}, one per point"):
            assemble_load(space, values)
        with pytest.raises(ValueError, match=f"^exact returned .* values, expected {m}, one per point"):
            l2_error(space, np.zeros(space.n_dofs), values)

    def test_non_finite_values_named(self):
        space = build_space(build_cube_mesh(1), 1)
        nan_right = lambda x: np.where(x[:, 0] > 0.5, np.nan, 1.0)  # noqa: E731
        with pytest.raises(ValueError, match=r"^f is not finite at \[0\.[5-9].*\]: nan"):
            assemble_load(space, nan_right)
        with pytest.raises(ValueError, match="^exact is not finite"):
            l2_error(space, np.zeros(space.n_dofs), nan_right)


class TestPoissonSetup:
    def test_full_operator_freed_before_the_transfer(self):
        # the full-DOF stiffness (30.7 MB at P4 n=8) must not live through
        # build_prolongation; CsrMatrix takes no weakref, so look for its id
        full, live = [], []

        def assemble(space, form):
            A = assemble_operator(space, form)
            full.append(id(A))
            return A

        def prolongation(fine, coarse):
            live.extend(o for o in gc.get_objects() if isinstance(o, CsrMatrix) and id(o) in full)
            return build_prolongation(fine, coarse)

        with mock.patch.object(problems, "assemble_operator", side_effect=assemble), \
                mock.patch.object(problems, "build_prolongation", side_effect=prolongation):
            problems.poisson_setup(2, 2)
        assert len(full) == 1 and live == []

    def test_numpy_integer_order_sets_up(self):
        got, want = problems.poisson_setup(2, np.int64(2)), problems.poisson_setup(2, 2)
        assert type(got.fine_space.order) is int
        assert np.array_equal(got.system.A.to_dense(), want.system.A.to_dense())


class TestElimination:
    def test_all_interior_is_identity_operation(self):
        space = build_space(build_cube_mesh(1), 2)
        A = assemble_operator(space, "mass")
        rhs = np.arange(space.n_dofs, dtype=float)
        free = dataclasses.replace(space, is_boundary=np.zeros(space.n_dofs, dtype=bool))
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
