"""Pins of the problem build: DOF numbering, coordinates, boundary mask,
stiffness matrix, transfer and reference tables, as SHA-256 digests of
their exact bytes, plus properties of COO assembly and the transfer.

The digests were taken from the per-tet loop implementation; the array
code that replaced it must reproduce every bit.
"""

import hashlib
from collections import defaultdict
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from auxmg import reference
from auxmg.csr import CsrMatrix, spmv
from auxmg.fem import assemble_operator, build_space
from auxmg.mesh import build_cube_mesh, perturb_interior, refine_uniform
from auxmg.transfer import build_prolongation
from tests.test_transfer import assert_tets_agree


def digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()[:16]


def csr_digest(A: CsrMatrix):
    # the pins were taken with int64 indices; the stored dtype may be int32
    return digest(np.array(A.shape), A.row_ptr.astype(np.int64), A.col_idx.astype(np.int64), A.values)


MESHES = {
    "cube3": lambda: build_cube_mesh(3),
    "perturbed3": lambda: perturb_interior(build_cube_mesh(3), seed=1),
}

SPACE_PINS = {
    ("cube3", 1): {
        "element_dofs": "1145b7e416920bbe",
        "dof_coords": "d84f7ca9eed6eed3",
        "is_boundary": "38421aa095bebcfe",
        "A": "6eb4ebaccfac1296",
    },
    ("cube3", 2): {
        "element_dofs": "faa4bc35109e14a9",
        "dof_coords": "5e8218fee3e1451a",
        "is_boundary": "8b8eb482112a10c6",
        "A": "f0463d597bd7a627",
        "P": "b8c05fccf2bc0b15",
    },
    ("cube3", 3): {
        "element_dofs": "75a50929fce9f0a5",
        "dof_coords": "3249a47a2038865a",
        "is_boundary": "ea86eda614abdb61",
        "A": "ddf5d3d9081f069a",
        "P": "235d988e68d8100d",
    },
    ("cube3", 4): {
        "element_dofs": "f2ef439d1b48989b",
        "dof_coords": "9128740b2b3c1095",
        "is_boundary": "d6d3bf8118f672a6",
        "A": "50dab03014dce5ab",
        "P": "b935e1532d9cbce9",
    },
    ("perturbed3", 1): {
        "element_dofs": "1145b7e416920bbe",
        "dof_coords": "10c3aa393f5f88f2",
        "is_boundary": "38421aa095bebcfe",
        "A": "651c03773145a0e1",
    },
    ("perturbed3", 2): {
        "element_dofs": "faa4bc35109e14a9",
        "dof_coords": "f815be2342c56de7",
        "is_boundary": "8b8eb482112a10c6",
        "A": "f6d9fb8da9ec71f1",
        "P": "b8c05fccf2bc0b15",
    },
    ("perturbed3", 3): {
        "element_dofs": "75a50929fce9f0a5",
        "dof_coords": "972c4f047c4ec1cd",
        "is_boundary": "ea86eda614abdb61",
        "A": "ee9233796cdbed55",
        "P": "235d988e68d8100d",
    },
    ("perturbed3", 4): {
        "element_dofs": "f2ef439d1b48989b",
        "dof_coords": "c1e21f1e5b8b77c6",
        "is_boundary": "d6d3bf8118f672a6",
        "A": "f15e456368533934",
        "P": "b935e1532d9cbce9",
    },
}

MESH_PINS = {
    "cube3": "50274596e56fc8fb",
    "refined_cube2": "b782ac5e563a5e1a",
    "refined_perturbed2": "30b7af9901f2f2a4",
}

TABLE_PINS = {
    ("mass", 1): "56cdb810c155591c",
    ("mass", 2): "6451d13ef59130d5",
    ("mass", 3): "677e34272d856ffc",
    ("mass", 4): "0e9e5f9bd3e69413",
    ("stiffness", 1): "011157e217a2305b",
    ("stiffness", 2): "b78ed620de9d7daf",
    ("stiffness", 3): "98e3826dadb8c887",
    ("stiffness", 4): "2713ce41b586f0dc",
    ("divergence", 1, 1): "ac78b4a9f3da8648",
    ("divergence", 2, 1): "d0d0525620c92c24",
    ("divergence", 2, 2): "d17d14e41a76e790",
    ("divergence", 3, 1): "9c3ba457d906a8b6",
    ("divergence", 3, 2): "f03809431f181665",
    ("divergence", 3, 3): "3cc7f621b7feabe3",
    ("divergence", 4, 1): "725b515a1e55799c",
    ("divergence", 4, 2): "b9cc50d965d5f69c",
    ("divergence", 4, 3): "4cc4ce7021ff1eec",
    ("divergence", 4, 4): "7fae48343677620d",
}


def space_digests(mesh, k):
    space = build_space(mesh, k)
    out = {
        "element_dofs": digest(space.element_dofs),
        "dof_coords": digest(space.dof_coords),
        "is_boundary": digest(space.is_boundary),
        "A": csr_digest(assemble_operator(space, "stiffness")),
    }
    if k >= 2:
        P = build_prolongation(space, build_space(mesh, 1)).prolongation
        assert_tets_agree(P, space)
        out["P"] = csr_digest(P)
    return out


@pytest.mark.parametrize("case", sorted(SPACE_PINS), ids=str)
def test_space_operator_and_transfer_bits(case):
    mesh_name, k = case
    assert space_digests(MESHES[mesh_name](), k) == SPACE_PINS[case]


def _mesh(name):
    if name == "cube3":
        return build_cube_mesh(3)
    if name == "refined_cube2":
        return refine_uniform(build_cube_mesh(2))
    return refine_uniform(perturb_interior(build_cube_mesh(2), seed=1))


@pytest.mark.parametrize("name", sorted(MESH_PINS))
def test_mesh_bits(name):
    mesh = _mesh(name)
    assert digest(mesh.vertices, mesh.tets) == MESH_PINS[name]


def _table(key):
    if key[0] == "mass":
        return reference.mass_reference(key[1])
    if key[0] == "stiffness":
        return reference.stiffness_reference(key[1])
    return reference.divergence_reference(key[1], key[2])


@pytest.mark.parametrize("key", list(TABLE_PINS), ids=str)
def test_reference_table_bits(key):
    assert digest(_table(key)) == TABLE_PINS[key]


# -- COO assembly -------------------------------------------------------------


def coo_reference(nrows, ncols, rows, cols, vals):
    """CSR arrays of the sum of each (row, col) group in insertion order."""
    groups = defaultdict(list)
    for r, c, v in zip(rows, cols, vals):
        groups[(r, c)].append(v)
    keys = sorted(groups)
    row_ptr = np.zeros(nrows + 1, dtype=np.int64)
    for r, _ in keys:
        row_ptr[r + 1] += 1
    # the summation primitive is numpy's, so the comparison is exact
    sums = [np.add.reduceat(np.array(groups[key]), [0])[0] for key in keys]
    return np.cumsum(row_ptr), np.array([c for _, c in keys], dtype=np.int64), np.array(sums)


@st.composite
def triplets(draw):
    nrows = draw(st.integers(0, 6))
    ncols = draw(st.integers(0, 6))
    if nrows == 0 or ncols == 0:
        return nrows, ncols, [], [], []
    m = draw(st.integers(0, 40))
    rows = draw(st.lists(st.integers(0, nrows - 1), min_size=m, max_size=m))
    cols = draw(st.lists(st.integers(0, ncols - 1), min_size=m, max_size=m))
    vals = draw(st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=m, max_size=m))
    return nrows, ncols, rows, cols, vals


INT64_MAX = 2**63 - 1


def assert_matches_reference(A, nrows, ncols, rows, cols, vals):
    row_ptr, col_idx, values = coo_reference(nrows, ncols, rows, cols, vals)
    assert np.array_equal(A.row_ptr, row_ptr)
    assert np.array_equal(A.col_idx, col_idx)
    assert np.array_equal(A.values, values)


@st.composite
def triplets_any_shape(draw):
    """Few rows and either few or very many columns, so the key bits plus
    the position bits fall on both sides of 63; triplets repeat a few
    positions so groups form at any width."""
    nrows = draw(st.integers(1, 4))
    ncols = draw(st.one_of(st.integers(1, 6), st.integers(INT64_MAX // nrows // 64, INT64_MAX // nrows)))
    spots = draw(st.lists(st.tuples(st.integers(0, nrows - 1), st.integers(0, ncols - 1)), min_size=1, max_size=6))
    picks = draw(st.lists(st.sampled_from(spots), max_size=40))
    vals = draw(st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=len(picks), max_size=len(picks)))
    return nrows, ncols, [r for r, _ in picks], [c for _, c in picks], vals


class TestFromCoo:
    @settings(max_examples=200, deadline=None)
    @given(triplets())
    def test_matches_insertion_order_group_sums(self, case):
        nrows, ncols, rows, cols, vals = case
        A = CsrMatrix.from_coo(nrows, ncols, rows, cols, vals)
        row_ptr, col_idx, values = coo_reference(nrows, ncols, rows, cols, vals)
        assert A.shape == (nrows, ncols)
        assert np.array_equal(A.row_ptr, row_ptr)
        assert np.array_equal(A.col_idx, col_idx)
        assert np.array_equal(A.values, values)
        CsrMatrix(*A.shape, A.row_ptr, A.col_idx, A.values)

    @settings(max_examples=300, deadline=None)
    @given(triplets_any_shape())
    def test_packed_and_stable_sorts_match_group_sums(self, case):
        assert_matches_reference(CsrMatrix.from_coo(*case), *case)

    @pytest.mark.parametrize("m, packed", [(8, True), (9, False)])
    def test_sort_branch_at_63_bits(self, m, packed):
        # keys below 2 * 2**59 take 60 bits, m positions take 3 (m = 8) or
        # 4 (m = 9): 63 bits are packed into one sort, 64 fall back to the
        # stable argsort
        nrows, ncols = 2, 2**59
        rng = np.random.default_rng(m)
        rows = rng.integers(0, nrows, m)
        cols = rng.choice([0, 7, ncols - 1], m)
        vals = rng.standard_normal(m)
        with mock.patch.object(np, "argsort", wraps=np.argsort) as argsort:
            A = CsrMatrix.from_coo(nrows, ncols, rows, cols, vals)
        assert argsort.called != packed
        assert_matches_reference(A, nrows, ncols, rows, cols, vals)

    def test_empty_and_zero_columns(self):
        for nrows, ncols in [(0, 0), (3, 0), (0, 4), (3, 4)]:
            A = CsrMatrix.from_coo(nrows, ncols, [], [], [])
            assert A.shape == (nrows, ncols) and A.nnz == 0
            assert np.array_equal(A.row_ptr, np.zeros(nrows + 1))

    def test_rejects_bad_triplets(self):
        with pytest.raises(ValueError, match=r"\(4000000000, 4000000000\)"):
            CsrMatrix.from_coo(4_000_000_000, 4_000_000_000, [0], [0], [1.0])
        with pytest.raises(ValueError, match="out of range"):
            CsrMatrix.from_coo(2, 2, [0, 2], [0, 0], [1.0, 1.0])
        with pytest.raises(ValueError, match="out of range"):
            CsrMatrix.from_coo(2, 0, [0], [0], [1.0])
        with pytest.raises(ValueError, match="lengths differ"):
            CsrMatrix.from_coo(2, 2, [0, 1], [0], [1.0, 1.0])

    def test_many_duplicates_keep_insertion_order(self):
        # long groups take numpy's blocked summation, so a different order
        # changes the bits
        vals = np.random.default_rng(3).standard_normal(200) * 10.0 ** np.arange(-100, 100)
        rows = np.zeros(200, dtype=np.int64)
        A = CsrMatrix.from_coo(1, 1, rows, rows, vals)
        assert A.values[0] == np.add.reduceat(vals, [0])[0]


# -- transfer -----------------------------------------------------------------


@settings(max_examples=15, deadline=None)
@given(
    n=st.integers(1, 2),
    k=st.integers(2, 4),
    seed=st.integers(0, 2**16),
    magnitude=st.floats(0.0, 0.3),
)
def test_prolongation_rows_sum_to_one_on_perturbed_meshes(n, k, seed, magnitude):
    mesh = perturb_interior(build_cube_mesh(n), magnitude=magnitude, seed=seed)
    fine, coarse = build_space(mesh, k), build_space(mesh, 1)
    P = build_prolongation(fine, coarse).prolongation
    assert_tets_agree(P, fine)
    assert np.max(np.abs(spmv(P, np.ones(coarse.n_dofs)) - 1.0)) <= 1e-14
    assert np.all(np.diff(P.row_ptr) >= 1) and np.all(np.diff(P.row_ptr) <= 4)
