"""Tetrahedral meshes of box domains.

Meshes are conforming collections of positively oriented tetrahedra.
Structured meshes come from the Kuhn (Freudenthal) subdivision of a
cube grid; genuinely unstructured test meshes are produced by randomly
perturbing interior vertices.
"""

from __future__ import annotations

import itertools

import numpy as np

# the six permutations of (x, y, z) axis steps along the cube diagonal
_KUHN_PATHS = np.array(list(itertools.permutations((0, 1, 2))))


class TetMesh:
    """Conforming tetrahedral mesh.

    Attributes
    ----------
    vertices : (nv, 3) float array
    tets : (nt, 4) int array, positively oriented
    boundary_faces : (nb, 3) int array of vertex triples
    boundary_owner : (nb,) int array, owning tet of each boundary face
    boundary_opposite : (nb,) int array, the local index (0..3) in the
        owning tet of the vertex each boundary face omits
    edges, faces : (ne, 2), (nf, 3) int arrays, read-only, the unique
        sorted vertex pairs and triples in lexicographic order
    edge_ids, face_ids : (nt, 6), (nt, 4) int arrays, read-only; column j
        is each tet's edge ``_TET_EDGES[j]``, and its face that omits vertex j
    gradients : (nt, 4, 3) float array, read-only barycentric gradients
    volumes : (nt,) float array, read-only tet volumes

    Input that is not one of these shapes, holds no tet, or has an index
    that is not a whole number in range raises a ValueError naming it.
    """

    def __init__(self, vertices, tets):
        self.vertices = np.ascontiguousarray(vertices, dtype=np.float64)
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 3:
            raise ValueError(f"vertices must be an (nv, 3) array, got shape {self.vertices.shape}")
        finite = np.isfinite(self.vertices).all(axis=1)
        if not finite.all():
            bad = int(np.argmin(finite))
            raise ValueError(f"vertex {bad} has a non-finite coordinate: {self.vertices[bad].tolist()}")
        tets = np.asarray(tets)
        if tets.ndim != 2 or tets.shape[1] != 4:
            raise ValueError(f"tets must be an (nt, 4) array, got shape {tets.shape}")
        if len(tets) == 0:
            raise ValueError("the mesh has no tets")
        if tets.dtype.kind not in "iu":
            # whole-valued floats are indices; anything else would be truncated
            whole = (np.isfinite(tets) & (tets == np.floor(tets)) if tets.dtype.kind == "f"
                     else np.zeros(tets.shape, dtype=bool)).all(axis=1)
            if not whole.all():
                bad = int(np.argmin(whole))
                raise ValueError(f"tet {bad} has a non-integer vertex index: {tets[bad].tolist()}")
        tets = np.ascontiguousarray(tets, dtype=np.int64)
        nv = len(self.vertices)
        if tets.min() < 0 or tets.max() >= nv:
            bad = int(np.argmax(np.any((tets < 0) | (tets >= nv), axis=1)))
            raise ValueError(f"tet {bad} has a vertex index outside 0..{nv - 1}: {tets[bad].tolist()}")
        self.tets, self.gradients, self.volumes = _element_geometry(self.vertices, tets)
        self.edges, self.edge_ids = sub_simplices(self.tets, _TET_EDGES)
        self.faces, self.face_ids = sub_simplices(self.tets, _TET_FACES)
        counts = np.bincount(self.face_ids.ravel(), minlength=len(self.faces))
        if np.any(counts > 2):
            raise ValueError("non-conforming mesh: a face is shared by more than 2 tets")
        # a face of one tet only lies on the boundary; face j omits the tet's vertex j
        self.boundary_owner, self.boundary_opposite = np.nonzero(counts[self.face_ids] == 1)
        self.boundary_faces = self.faces[self.face_ids[self.boundary_owner, self.boundary_opposite]]

    @property
    def num_vertices(self):
        return self.vertices.shape[0]

    @property
    def num_tets(self):
        return self.tets.shape[0]

    def boundary_vertex_mask(self):
        mask = np.zeros(self.num_vertices, dtype=bool)
        mask[self.boundary_faces.ravel()] = True
        return mask

    def __repr__(self):
        return f"TetMesh({self.num_vertices} vertices, {self.num_tets} tets)"


_TET_EDGES = np.array([(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
_TET_FACES = np.array([(1, 2, 3), (0, 2, 3), (0, 1, 3), (0, 1, 2)])
# the 8 children of red refinement over (v0..v3, m01, m02, m03, m12, m13, m23)
_RED_CHILDREN = np.array([
    (0, 4, 5, 6),
    (4, 1, 7, 8),
    (5, 7, 2, 9),
    (6, 8, 9, 3),
    (4, 5, 6, 8),
    (4, 5, 7, 8),
    (5, 6, 8, 9),
    (5, 7, 8, 9),
])


def sub_simplices(tets, local):
    """Sub-simplices of every tet spanned by the ``local`` vertex tuples.

    Returns the unique sorted global vertex tuples, in lexicographic
    order, and the (nt, len(local)) ids into them, both read-only.
    """
    keys = np.sort(tets[:, local], axis=2).reshape(-1, np.shape(local)[1])
    # fold one column at a time into the rank of the tuple prefix, so the
    # scalar key stays below (number of keys) * (number of vertices)
    ids = np.zeros(len(keys), dtype=np.int64)
    radix = int(tets.max(initial=-1)) + 1
    for column in keys.T:
        _, ids = np.unique(ids * radix + column, return_inverse=True)
    uniq = np.empty((int(ids.max(initial=-1)) + 1, keys.shape[1]), dtype=keys.dtype)
    uniq[ids] = keys
    uniq.flags.writeable = ids.flags.writeable = False
    return uniq, ids.reshape(len(tets), len(local))


def _element_geometry(vertices, tets):
    """The tets positively oriented, with their read-only barycentric
    gradients (nt, 4, 3) and volumes (nt,).  A reversed tet swaps its last
    two vertices, and so its last two edge columns, and is measured again;
    a ValueError names the first tet whose volume is not positive."""
    v = vertices[tets]
    J = (v[:, 1:] - v[:, :1]).transpose(0, 2, 1)  # columns are edge vectors
    vol = np.linalg.det(J) / 6.0
    flip = vol < 0
    if np.any(flip):
        tets = tets.copy()
        tets[flip, 2:] = tets[flip, 3:1:-1]
        J[flip] = J[flip][:, :, [0, 2, 1]]
        vol[flip] = np.linalg.det(J[flip]) / 6.0
    if np.any(vol <= 0):
        bad = int(np.argmin(vol))
        raise ValueError(f"tet {bad} has nonpositive volume {vol[bad]:g}")
    Jinv = np.linalg.inv(J)
    grads = np.concatenate([-Jinv.sum(axis=1, keepdims=True), Jinv], axis=1)
    grads.flags.writeable = vol.flags.writeable = False
    return tets, grads, vol


def build_cube_mesh(n: int) -> TetMesh:
    """Kuhn subdivision of the unit cube into 6 n^3 tets.

    The (n+1)^3 grid vertices are numbered lexicographically in
    (i, j, k); every subcube splits into the 6 tetrahedra spanned by the
    monotone lattice paths from its lowest to its highest corner, which
    makes neighbouring cubes conform.
    """
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 1:
        raise ValueError(f"n must be an int of at least 1 subdivision per axis, got {n!r}")
    side = int(n) + 1  # np.int8(5) ** 3 would wrap
    g = np.arange(side)
    X, Y, Z = np.meshgrid(g, g, g, indexing="ij")
    vertices = np.stack([X, Y, Z], axis=-1).reshape(-1, 3) / float(n)
    # (6, 4) vertex-id offsets of each path's corners from its cube's lowest one
    steps = np.array([side * side, side, 1])[_KUHN_PATHS]
    corners = np.cumsum(np.hstack([np.zeros((6, 1), dtype=np.int64), steps]), axis=1)
    lowest = np.arange(side**3).reshape(side, side, side)[:n, :n, :n]
    return TetMesh(vertices, (lowest.reshape(-1, 1, 1) + corners).reshape(-1, 4))


def refine_uniform(mesh: TetMesh) -> TetMesh:
    """Red refinement: every tet splits into 8 via edge midpoints.

    New vertex count = old vertices + old edges; the interior octahedron
    of each tet is cut along the fixed m02-m13 diagonal.
    """
    midpoints = 0.5 * (mesh.vertices[mesh.edges[:, 0]] + mesh.vertices[mesh.edges[:, 1]])
    vertices = np.vstack([mesh.vertices, midpoints])
    # columns v0..v3, m01, m02, m03, m12, m13, m23
    nodes = np.hstack([mesh.tets, mesh.num_vertices + mesh.edge_ids])
    tets = nodes[:, _RED_CHILDREN].reshape(-1, 4)
    return TetMesh(vertices, tets)


def perturb_interior(mesh: TetMesh, magnitude=0.2, seed=0) -> TetMesh:
    """Randomly displace interior vertices to break the structured pattern.

    Each interior vertex moves by at most ``magnitude`` times its
    shortest incident edge; boundary vertices stay put so the domain is
    unchanged, and so does a vertex no tet uses, which has no edge.
    Deterministic for a fixed seed.  A ValueError names a bad ``magnitude``
    or ``seed`` before any work, or the first tet a displacement reverses.
    """
    real = isinstance(magnitude, (int, float, np.integer, np.floating)) and not isinstance(magnitude, bool)
    if not (real and np.isfinite(magnitude)):
        raise ValueError(f"magnitude must be a finite real number, got {magnitude!r}")
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ValueError(f"seed must be a non-negative int, got {seed!r}")
    rng = np.random.default_rng(seed)
    lengths = np.linalg.norm(mesh.vertices[mesh.edges[:, 0]] - mesh.vertices[mesh.edges[:, 1]], axis=1)
    h = np.full(mesh.num_vertices, np.inf)
    np.minimum.at(h, mesh.edges, lengths[:, None])
    move = ~mesh.boundary_vertex_mask() & np.isfinite(h)

    disp = rng.uniform(-1.0, 1.0, size=(mesh.num_vertices, 3)) / np.sqrt(3.0)
    vertices = mesh.vertices.copy()
    vertices[move] += magnitude * h[move, None] * disp[move]
    moved = TetMesh(vertices, mesh.tets)
    flipped = np.any(moved.tets != mesh.tets, axis=1)  # the rows its constructor reoriented
    if np.any(flipped):
        raise ValueError(f"magnitude {magnitude} reverses tet {int(np.argmax(flipped))}")
    return moved


# -- plain-text mesh format (.node / .ele) --------------------------------


def write_mesh(mesh: TetMesh, basename):
    """Write ``basename.node`` and ``basename.ele`` (0-based indices; 17
    significant digits, so the coordinates read back exactly)."""
    np.savetxt(f"{basename}.node", np.column_stack([np.arange(mesh.num_vertices), mesh.vertices]),
               fmt=["%d"] + ["%.17g"] * 3, header=f"{mesh.num_vertices} 3 0 0", comments="")
    np.savetxt(f"{basename}.ele", np.column_stack([np.arange(mesh.num_tets), mesh.tets]),
               fmt="%d", header=f"{mesh.num_tets} 4 0", comments="")


def _read_table(path, width, dtype):
    """The rows of a ``.node`` or ``.ele`` file, each an index and ``width``
    values after a header line that starts with the row count, returned
    in index order; the indices must be 0..count-1, in any order."""
    with open(path) as fh:
        try:
            count = int(fh.readline().split()[0])  # IndexError: an empty header line
            rows = np.loadtxt(fh, dtype=dtype, ndmin=2, max_rows=count)
        except (IndexError, ValueError) as e:
            raise ValueError(f"{path}: bad header or rows: {e}") from e
    if rows.shape != (count, 1 + width):
        raise ValueError(f"{path} declares {count} rows of an index and {width} values, holds {rows.shape}")
    order = np.argsort(rows[:, 0])
    if not np.array_equal(rows[order, 0], np.arange(count)):
        raise ValueError(f"{path}: the index column is not a permutation of 0..{count - 1}")
    return rows[order, 1:]


def read_mesh(basename) -> TetMesh:
    """Read the files :func:`write_mesh` writes; a malformed one raises ValueError."""
    vertices = _read_table(f"{basename}.node", 3, np.float64)
    return TetMesh(vertices, _read_table(f"{basename}.ele", 4, np.int64))
