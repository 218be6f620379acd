from collections import namedtuple

import numpy as np
import pytest
from hypothesis import given, settings

from auxmg import mesh as mesh_module
from auxmg.mesh import TetMesh, build_cube_mesh, perturb_interior, read_mesh, refine_uniform, write_mesh
from tests.test_transfer import sub_meshes

REFERENCE_TET = TetMesh(
    np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]),
    np.array([[0, 1, 2, 3]]),
)


class TestCubeMesh:
    def test_unit_counts(self):
        mesh = build_cube_mesh(1)
        assert mesh.num_vertices == 8
        assert mesh.num_tets == 6
        assert len(mesh.boundary_faces) == 12

    def test_counts_formula(self):
        mesh = build_cube_mesh(2)
        assert mesh.num_vertices == 27
        assert mesh.num_tets == 48

    def test_total_volume(self):
        mesh = build_cube_mesh(1)
        assert abs(mesh.volumes.sum() - 1.0) <= 1e-14

    def test_positive_volumes(self):
        mesh = build_cube_mesh(3)
        assert np.all(mesh.volumes > 0)

    def test_rejects_zero_subdivisions(self):
        with pytest.raises(ValueError):
            build_cube_mesh(0)

    @pytest.mark.parametrize("n", [2.0, 2.5, float("nan"), True, "2", -1])
    def test_bad_n_rejected_by_name(self, n):
        # a float reached numpy's arange, and True built a 1-cube
        with pytest.raises(ValueError, match=r"^n must be an int of at least 1 subdivision per axis, got "):
            build_cube_mesh(n)

    @pytest.mark.parametrize("n", [np.int8(5), np.uint8(5), np.int64(5)])
    def test_numpy_integer_n_builds_the_int_mesh(self, n):
        # (n + 1) ** 3 vertex ids would wrap in int8 and uint8
        want = build_cube_mesh(5)
        got = build_cube_mesh(n)
        assert np.array_equal(got.vertices, want.vertices) and np.array_equal(got.tets, want.tets)

    def test_conformity(self):
        # every face appears once (boundary) or twice (interior)
        mesh = build_cube_mesh(2)
        faces = np.sort(mesh.tets[:, [[1, 2, 3], [0, 2, 3], [0, 1, 3], [0, 1, 2]]].reshape(-1, 3), axis=1)
        _, counts = np.unique(faces, axis=0, return_counts=True)
        assert set(counts.tolist()) <= {1, 2}
        assert (counts == 1).sum() == len(mesh.boundary_faces)


class TestRefinement:
    def test_reference_tet(self):
        fine = refine_uniform(REFERENCE_TET)
        assert fine.num_tets == 8
        assert fine.num_vertices == 10

    def test_cube(self):
        fine = refine_uniform(build_cube_mesh(1))
        assert fine.num_tets == 48

    def test_volume_conserved(self):
        mesh = build_cube_mesh(1)
        fine = refine_uniform(mesh)
        assert abs(fine.volumes.sum() - mesh.volumes.sum()) <= 1e-14
        # and per parent tet
        child_vol = fine.volumes.reshape(-1, 8).sum(axis=1)
        assert np.max(np.abs(child_vol - mesh.volumes)) <= 1e-14

    def test_vertex_count_is_vertices_plus_edges(self):
        mesh = build_cube_mesh(2)
        fine = refine_uniform(mesh)
        assert fine.num_vertices == mesh.num_vertices + len(mesh.edges)

    def test_conforming_after_refinement(self):
        fine = refine_uniform(build_cube_mesh(2))  # constructor checks conformity
        assert len(fine.boundary_faces) == 4 * len(build_cube_mesh(2).boundary_faces)


class TestPerturbation:
    def test_boundary_fixed(self):
        mesh = build_cube_mesh(3)
        pert = perturb_interior(mesh, seed=1)
        bnd = mesh.boundary_vertex_mask()
        assert np.array_equal(pert.vertices[bnd], mesh.vertices[bnd])
        assert not np.array_equal(pert.vertices[~bnd], mesh.vertices[~bnd])

    def test_still_valid(self):
        pert = perturb_interior(build_cube_mesh(3), seed=2)
        assert np.all(pert.volumes > 0)
        assert abs(pert.volumes.sum() - 1.0) <= 1e-12

    def test_deterministic(self):
        a = perturb_interior(build_cube_mesh(2), seed=5)
        b = perturb_interior(build_cube_mesh(2), seed=5)
        assert np.array_equal(a.vertices, b.vertices)

    def test_vertex_in_no_tet_stays_put(self):
        # it has no edge, so no length to scale a move by; the other
        # vertices move as they would without it
        cube = build_cube_mesh(2)
        extra = TetMesh(np.vstack([cube.vertices, [[5.0, 5.0, 5.0]]]), cube.tets)
        pert = perturb_interior(extra, seed=5)
        assert np.array_equal(pert.vertices[27], [5.0, 5.0, 5.0])
        assert np.array_equal(pert.vertices[:27], perturb_interior(cube, seed=5).vertices)

    def test_reversing_displacement_rejected_by_name(self):
        # this move inverts 3 tets; re-oriented, they would tangle the mesh
        # to a total volume of 1.0109812896116335
        with pytest.raises(ValueError, match=r"^magnitude 1.0 reverses tet 28$"):
            perturb_interior(build_cube_mesh(3), magnitude=1.0, seed=0)

    @pytest.mark.parametrize("magnitude", [float("inf"), float("nan"), "x", True])
    def test_bad_magnitude_rejected_by_name(self, magnitude):
        with pytest.raises(ValueError, match=r"^magnitude must be a finite real number, got "):
            perturb_interior(build_cube_mesh(2), magnitude=magnitude)

    @pytest.mark.parametrize("seed", [-1, 1.5, False])
    def test_bad_seed_rejected_by_name(self, seed):
        with pytest.raises(ValueError, match=r"^seed must be a non-negative int, got "):
            perturb_interior(build_cube_mesh(2), seed=seed)


# the local vertex pairs of the edge ids' columns, and the triples of the
# face ids' columns: face j omits local vertex j
LOCAL_EDGES = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
LOCAL_FACES = [(1, 2, 3), (0, 2, 3), (0, 1, 3), (0, 1, 2)]


class TestNumbering:
    @settings(max_examples=100, deadline=None)
    @given(sub_meshes())
    def test_ids_name_each_tets_sorted_tuples(self, mesh):
        for uniq, ids, local in ((mesh.edges, mesh.edge_ids, LOCAL_EDGES),
                                 (mesh.faces, mesh.face_ids, LOCAL_FACES)):
            assert np.array_equal(uniq[ids], np.sort(mesh.tets[:, local], axis=2))
            rows = [tuple(r) for r in uniq.tolist()]
            assert rows == sorted(set(rows))  # unique, in lexicographic order
            assert np.array_equal(np.unique(ids), np.arange(len(uniq)))  # every tuple is some tet's
            assert not (uniq.flags.writeable or ids.flags.writeable)

    def test_refine_and_perturb_enumerate_nothing(self, monkeypatch):
        mesh = build_cube_mesh(2)
        want = [refine_uniform(mesh), perturb_interior(mesh, seed=3)]

        def unique(*args, **kwargs):
            raise AssertionError("enumerated sub-simplices")

        # building the returned mesh numbers its own edges and faces, so a
        # stand-in takes the constructor's place; perturbation reads its tets
        monkeypatch.setattr(np, "unique", unique)
        monkeypatch.setattr(mesh_module, "TetMesh", namedtuple("Built", "vertices tets"))
        got = [refine_uniform(mesh), perturb_interior(mesh, seed=3)]
        for (vertices, tets), new in zip(got, want):
            assert np.array_equal(vertices, new.vertices)
            assert np.array_equal(np.sort(tets, axis=1), np.sort(new.tets, axis=1))


class TestMeshIO:
    def test_round_trip(self, tmp_path):
        mesh = perturb_interior(build_cube_mesh(2), seed=3)
        base = tmp_path / "m"
        write_mesh(mesh, base)
        back = read_mesh(base)
        assert np.array_equal(back.vertices, mesh.vertices)
        assert np.array_equal(back.tets, mesh.tets)

    def test_extreme_coordinates_round_trip(self, tmp_path):
        # -0.0, a subnormal and values that need all 17 digits read back exactly
        mesh = REFERENCE_TET
        vertices = mesh.vertices + np.array([[-0.0, 5e-324, 1 / 3]])
        vertices[0, 0] = -0.0
        mesh = TetMesh(vertices, mesh.tets)
        write_mesh(mesh, tmp_path / "t")
        back = read_mesh(tmp_path / "t")
        assert np.array_equal(back.vertices, mesh.vertices)
        assert np.array_equal(np.signbit(back.vertices), np.signbit(mesh.vertices))


class TestMalformedMeshFiles:
    @pytest.fixture
    def base(self, tmp_path):
        base = tmp_path / "m"
        write_mesh(build_cube_mesh(1), base)
        return base

    @staticmethod
    def edit(path, row, text):
        """Replace line ``row`` (0 is the header) of ``path`` by ``text``;
        None drops the line."""
        lines = path.read_text().splitlines()
        if text is None:
            del lines[row]
        else:
            lines[row] = text
        path.write_text("\n".join(lines) + "\n")

    def test_truncated_node_file(self, base):
        self.edit(base.with_suffix(".node"), -1, None)
        with pytest.raises(ValueError, match=r"m\.node declares 8 rows"):
            read_mesh(base)

    def test_repeated_node_index(self, base):
        self.edit(base.with_suffix(".node"), 2, "0 0.5 0.5 0.5")
        with pytest.raises(ValueError, match=r"m\.node: the index column is not a permutation"):
            read_mesh(base)

    def test_short_node_row(self, base):
        self.edit(base.with_suffix(".node"), 3, "2 0.5 0.5")
        with pytest.raises(ValueError, match=r"m\.node: bad header or rows: the number of columns changed"):
            read_mesh(base)

    def test_empty_ele_file(self, base):
        base.with_suffix(".ele").write_text("")
        with pytest.raises(ValueError, match=r"m\.ele: bad header or rows"):
            read_mesh(base)

    @pytest.mark.parametrize("vertex", [99, -1])
    def test_vertex_index_out_of_range(self, base, vertex):
        self.edit(base.with_suffix(".ele"), 4, f"3 0 1 2 {vertex}")
        with pytest.raises(ValueError, match=f"tet 3 has a vertex index outside 0..7: \\[0, 1, 2, {vertex}\\]"):
            read_mesh(base)

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_coordinate(self, base, value):
        self.edit(base.with_suffix(".node"), 3, f"2 0 {value} 0")
        with pytest.raises(ValueError, match=rf"^vertex 2 has a non-finite coordinate: \[0.0, {value}, 0.0\]$"):
            read_mesh(base)

    def test_rows_in_any_order(self, base):
        mesh = read_mesh(base)
        for ext in (".node", ".ele"):
            path = base.with_suffix(ext)
            lines = path.read_text().splitlines()
            path.write_text("\n".join(lines[:1] + lines[:0:-1]) + "\n")
        back = read_mesh(base)
        assert np.array_equal(back.vertices, mesh.vertices)
        assert np.array_equal(back.tets, mesh.tets)


class TestOrientation:
    def test_flipped_input_is_fixed(self):
        mesh = TetMesh(REFERENCE_TET.vertices, np.array([[0, 1, 3, 2]]))
        assert mesh.volumes[0] > 0

    def test_vertex_index_out_of_range_rejected_by_name(self):
        # a negative index would otherwise wrap to the last vertex
        with pytest.raises(ValueError, match="tet 0 has a vertex index outside 0..7"):
            TetMesh(build_cube_mesh(1).vertices, [[0, 1, 2, -1]])

    def test_non_finite_vertex_rejected_by_name(self):
        vertices = build_cube_mesh(1).vertices.copy()
        vertices[5, 2] = np.nan
        with pytest.raises(ValueError, match=r"^vertex 5 has a non-finite coordinate"):
            TetMesh(vertices, build_cube_mesh(1).tets)

    def test_degenerate_tet_rejected_by_name(self):
        flat = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 1.0, 0.0]])
        with pytest.raises(ValueError, match="tet 0"):
            TetMesh(flat, np.array([[0, 1, 2, 3]]))


def det_count(monkeypatch):
    """The number of matrices that reach ``np.linalg.det`` from now on, as a
    one-element list."""
    count, det = [0], np.linalg.det

    def counted(a):
        count[0] += len(a)
        return det(a)

    monkeypatch.setattr(np.linalg, "det", counted)
    return count


class TestOneDeterminant:
    # the Kuhn cube's 6 paths are half even and half odd permutations, so
    # half its tets arrive reversed and are measured twice
    def test_cube_measures_each_tet_once_and_each_reversed_tet_again(self, monkeypatch):
        count = det_count(monkeypatch)
        build_cube_mesh(2)
        assert count[0] == 48 + 24

    def test_perturbation_measures_each_tet_once(self, monkeypatch):
        cube = build_cube_mesh(2)
        count = det_count(monkeypatch)
        perturb_interior(cube)
        assert count[0] == 48

    def test_a_reoriented_tet_reads_as_if_given_oriented(self):
        # every row reversed: each is swapped back, and its gradients and
        # volume are bit for bit those of the oriented row
        cube = build_cube_mesh(2)
        reversed_ = TetMesh(cube.vertices, cube.tets[:, [0, 1, 3, 2]])
        assert np.array_equal(reversed_.tets, cube.tets)
        assert np.array_equal(reversed_.gradients, cube.gradients)
        assert np.array_equal(reversed_.volumes, cube.volumes)


class TestMalformedInput:
    @pytest.mark.parametrize("columns", [3, 5])
    def test_tets_not_four_columns(self, columns):
        cube = build_cube_mesh(1)
        tets = np.hstack([cube.tets, cube.tets])[:, :columns]
        with pytest.raises(ValueError, match=rf"^tets must be an \(nt, 4\) array, got shape \(6, {columns}\)$"):
            TetMesh(cube.vertices, tets)
        with pytest.raises(ValueError, match=r"^tets must be an \(nt, 4\) array, got shape \(24,\)$"):
            TetMesh(cube.vertices, cube.tets.ravel())

    def test_vertices_not_three_columns(self):
        cube = build_cube_mesh(1)
        with pytest.raises(ValueError, match=r"^vertices must be an \(nv, 3\) array, got shape \(8, 2\)$"):
            TetMesh(cube.vertices[:, :2], cube.tets)

    def test_non_integer_index_rejected_by_name(self):
        # 1.5 would otherwise be truncated to 1, and the repeated vertex
        # reported as a flat tet
        with pytest.raises(ValueError, match=r"^tet 0 has a non-integer vertex index: \[0.0, 1.5, 1.0, 3.0\]$"):
            TetMesh(REFERENCE_TET.vertices, [[0, 1.5, 1, 3]])
        with pytest.raises(ValueError, match=r"^tet 0 has a non-integer vertex index: \[0.0, 1.0, 2.0, nan\]$"):
            TetMesh(REFERENCE_TET.vertices, [[0, 1, 2, np.nan]])

    def test_whole_float_indices_accepted(self):
        mesh = TetMesh(REFERENCE_TET.vertices, [[0.0, 1.0, 2.0, 3.0]])
        assert mesh.tets.dtype == np.int64 and np.array_equal(mesh.tets, REFERENCE_TET.tets)

    def test_no_tets_rejected(self):
        with pytest.raises(ValueError, match="^the mesh has no tets$"):
            TetMesh(REFERENCE_TET.vertices, np.empty((0, 4), dtype=np.int64))
