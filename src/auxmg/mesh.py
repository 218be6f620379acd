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
    """

    def __init__(self, vertices, tets):
        self.vertices = np.ascontiguousarray(vertices, dtype=np.float64)
        tets = np.ascontiguousarray(tets, dtype=np.int64)
        vol = signed_volumes(self.vertices, tets)
        flip = vol < 0
        if np.any(flip):
            tets = tets.copy()
            tets[flip, 2], tets[flip, 3] = tets[flip, 3], tets[flip, 2].copy()
        self.tets = tets
        self.boundary_faces, self.boundary_owner = _boundary_faces(tets)
        vol = signed_volumes(self.vertices, self.tets)
        if np.any(vol <= 0):
            bad = int(np.argmin(vol))
            raise ValueError(f"tet {bad} has nonpositive volume {vol[bad]:g}")

    @property
    def num_vertices(self):
        return self.vertices.shape[0]

    @property
    def num_tets(self):
        return self.tets.shape[0]

    def volumes(self):
        return signed_volumes(self.vertices, self.tets)

    def edges(self):
        """All unique edges as a (ne, 2) array of sorted vertex pairs."""
        return sub_simplices(self.tets, _TET_EDGES)[0]

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
    order, and the (nt, len(local)) ids into them.
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
    return uniq, ids.reshape(len(tets), len(local))


def signed_volumes(vertices, tets):
    v = vertices[tets]
    d = v[:, 1:] - v[:, :1]
    return np.linalg.det(d) / 6.0


def _boundary_faces(tets):
    faces, ids = sub_simplices(tets, _TET_FACES)
    counts = np.bincount(ids.ravel(), minlength=len(faces))
    if np.any(counts > 2):
        raise ValueError("non-conforming mesh: a face is shared by more than 2 tets")
    once = counts[ids] == 1
    owner, _ = np.nonzero(once)
    return faces[ids[once]], owner


def build_cube_mesh(n: int) -> TetMesh:
    """Kuhn subdivision of the unit cube into 6 n^3 tets.

    The (n+1)^3 grid vertices are numbered lexicographically in
    (i, j, k); every subcube splits into the 6 tetrahedra spanned by the
    monotone lattice paths from its lowest to its highest corner, which
    makes neighbouring cubes conform.
    """
    if n < 1:
        raise ValueError("need at least 1 subdivision per axis")
    side = n + 1
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
    edges, edge_ids = sub_simplices(mesh.tets, _TET_EDGES)
    midpoints = 0.5 * (mesh.vertices[edges[:, 0]] + mesh.vertices[edges[:, 1]])
    vertices = np.vstack([mesh.vertices, midpoints])
    # columns v0..v3, m01, m02, m03, m12, m13, m23
    nodes = np.hstack([mesh.tets, mesh.num_vertices + edge_ids])
    tets = nodes[:, _RED_CHILDREN].reshape(-1, 4)
    return TetMesh(vertices, tets)


def perturb_interior(mesh: TetMesh, magnitude=0.2, seed=0) -> TetMesh:
    """Randomly displace interior vertices to break the structured pattern.

    Each interior vertex moves by at most ``magnitude`` times its
    shortest incident edge; boundary vertices stay put so the domain is
    unchanged.  Deterministic for a fixed seed.
    """
    rng = np.random.default_rng(seed)
    interior = ~mesh.boundary_vertex_mask()
    edges = mesh.edges()
    lengths = np.linalg.norm(mesh.vertices[edges[:, 0]] - mesh.vertices[edges[:, 1]], axis=1)
    h = np.full(mesh.num_vertices, np.inf)
    np.minimum.at(h, edges[:, 0], lengths)
    np.minimum.at(h, edges[:, 1], lengths)

    disp = rng.uniform(-1.0, 1.0, size=(mesh.num_vertices, 3)) / np.sqrt(3.0)
    vertices = mesh.vertices.copy()
    vertices[interior] += magnitude * h[interior, None] * disp[interior]
    return TetMesh(vertices, mesh.tets)


# -- plain-text mesh format (.node / .ele) --------------------------------


def write_mesh(mesh: TetMesh, basename):
    """Write ``basename.node`` and ``basename.ele`` (0-based indices)."""
    with open(str(basename) + ".node", "w") as fh:
        fh.write(f"{mesh.num_vertices} 3 0 0\n")
        for i, (x, y, z) in enumerate(mesh.vertices):
            fh.write(f"{i} {float(x)!r} {float(y)!r} {float(z)!r}\n")
    with open(str(basename) + ".ele", "w") as fh:
        fh.write(f"{mesh.num_tets} 4 0\n")
        for i, t in enumerate(mesh.tets):
            fh.write(f"{i} {t[0]} {t[1]} {t[2]} {t[3]}\n")


def read_mesh(basename) -> TetMesh:
    with open(str(basename) + ".node") as fh:
        nv = int(fh.readline().split()[0])
        vertices = np.empty((nv, 3))
        for _ in range(nv):
            parts = fh.readline().split()
            vertices[int(parts[0])] = [float(p) for p in parts[1:4]]
    with open(str(basename) + ".ele") as fh:
        nt = int(fh.readline().split()[0])
        tets = np.empty((nt, 4), dtype=np.int64)
        for _ in range(nt):
            parts = fh.readline().split()
            tets[int(parts[0])] = [int(p) for p in parts[1:5]]
    return TetMesh(vertices, tets)
