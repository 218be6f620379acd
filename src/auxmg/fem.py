"""P^k Lagrange finite element spaces on tetrahedral meshes.

Degrees of freedom sit at the barycentric lattice points of each tet
and are deduplicated topologically: one DOF per vertex, k-1 per edge,
(k-1)(k-2)/2 per face and C(k-1,3) per tet interior.  Global numbering
is vertices first (DOF id = vertex id), then edges in sorted key order,
then faces, then interiors, which keeps the enumeration independent of
element orientation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import reference
from .csr import CsrMatrix, _csr_from_keys
from .mesh import TetMesh, sub_simplices


class FeSpace:
    """Scalar continuous P^k Lagrange space.

    Attributes
    ----------
    mesh : TetMesh
    order : int, 1 <= k <= 4
    n_dofs : int
    element_dofs : (nt, n_loc) int array, lattice ordering per tet
    dof_coords : (n_dofs, 3) float array
    is_boundary : (n_dofs,) bool array
    """

    def __init__(self, mesh, order, n_dofs, element_dofs, dof_coords, is_boundary):
        self.mesh = mesh
        self.order = order
        self.n_dofs = n_dofs
        self.element_dofs = element_dofs
        self.dof_coords = dof_coords
        self.is_boundary = is_boundary

    def interior_indices(self):
        return np.flatnonzero(~self.is_boundary)

    def __repr__(self):
        return f"FeSpace(order={self.order}, n_dofs={self.n_dofs})"


def build_space(mesh: TetMesh, k: int) -> FeSpace:
    """Enumerate the conforming P^k space over ``mesh``."""
    if k not in (1, 2, 3, 4):
        raise ValueError(f"unsupported polynomial order {k}")
    lattice = np.array(reference.lattice_points(k))
    support = lattice > 0
    size = support.sum(axis=1)
    nt, nv = mesh.num_tets, mesh.num_vertices
    per_edge = k - 1
    per_face = (k - 1) * (k - 2) // 2
    element_dofs = np.empty((nt, len(lattice)), dtype=np.int64)

    # vertices own ids 0..nv-1
    vert = np.flatnonzero(size == 1)
    element_dofs[:, vert] = mesh.tets[:, np.argmax(support[vert], axis=1)]

    # edge slots are ordered by the exponent on the lower vertex, descending
    edge = np.flatnonzero(size == 2)
    pairs = np.nonzero(support[edge])[1].reshape(-1, 2)
    edges, edge_ids = sub_simplices(mesh.tets, pairs)
    lower_first = mesh.tets[:, pairs[:, 0]] < mesh.tets[:, pairs[:, 1]]
    exps = lattice[edge[:, None], pairs]
    slot = (k - 1) - np.where(lower_first, exps[:, 0], exps[:, 1])
    element_dofs[:, edge] = nv + edge_ids * per_edge + slot
    base_face = nv + len(edges) * per_edge

    # face slots are ordered lexicographically descending in the exponents
    # on the face's sorted vertices
    face = np.flatnonzero(size == 3)
    multis = [(a, b, k - a - b) for a in range(k - 1, 0, -1) for b in range(k - a - 1, 0, -1)]
    face_slot = np.full((k + 1,) * 3, -1)
    face_slot[tuple(np.array(multis, dtype=np.int64).reshape(-1, 3).T)] = np.arange(len(multis))
    triples = np.nonzero(support[face])[1].reshape(-1, 3)
    faces, face_ids = sub_simplices(mesh.tets, triples)
    by_vertex = np.argsort(mesh.tets[:, triples], axis=2)
    exps = np.take_along_axis(lattice[face[:, None], triples][None], by_vertex, axis=2)
    slot = face_slot[exps[..., 0], exps[..., 1], exps[..., 2]]
    element_dofs[:, face] = base_face + face_ids * per_face + slot
    base_tet = base_face + len(faces) * per_face

    inner = np.flatnonzero(size == 4)
    element_dofs[:, inner] = base_tet + np.arange(nt * len(inner)).reshape(nt, -1)
    n_dofs = base_tet + nt * len(inner)

    # a DOF shared by several tets takes its coordinates from the last one
    coords = ((lattice / k) @ mesh.vertices[mesh.tets]).reshape(-1, 3)
    dofs = element_dofs.ravel()
    _, last = np.unique(dofs[::-1], return_index=True)
    last = dofs.size - 1 - last
    dof_coords = np.zeros((n_dofs, 3))
    dof_coords[dofs[last]] = coords[last]

    # a DOF lies on the boundary when its support lies in a boundary face,
    # i.e. it has no weight on the owner-tet vertex the face omits
    owner = mesh.boundary_owner
    in_face = (mesh.tets[owner][:, :, None] == mesh.boundary_faces[:, None, :]).any(axis=2)
    omit = np.argmin(in_face, axis=1)
    is_boundary = np.zeros(n_dofs, dtype=bool)
    is_boundary[element_dofs[owner][lattice[:, omit].T == 0]] = True
    return FeSpace(mesh, k, n_dofs, element_dofs, dof_coords, is_boundary)


# -- assembly ---------------------------------------------------------------


def _element_geometry(mesh):
    """Per-tet barycentric gradients (nt,4,3) and volumes (nt,)."""
    v = mesh.vertices[mesh.tets]
    J = (v[:, 1:] - v[:, :1]).transpose(0, 2, 1)  # columns are edge vectors
    detJ = np.linalg.det(J)
    vol = detJ / 6.0
    if np.any(vol <= 0) or np.any(~np.isfinite(vol)):
        bad = int(np.argmin(vol))
        raise ValueError(f"degenerate tet {bad} (volume {vol[bad]:g})")
    Jinv = np.linalg.inv(J)
    grads = np.empty((mesh.num_tets, 4, 3))
    grads[:, 1:, :] = Jinv
    grads[:, 0, :] = -Jinv.sum(axis=1)
    return grads, vol


def _element_matrices(space: FeSpace, form: str) -> np.ndarray:
    """The (nt, n_loc, n_loc) stiffness or mass matrices of the elements."""
    grads, vol = _element_geometry(space.mesh)
    if form == "stiffness":
        g = np.einsum("tmc,tnc->tmn", grads, grads) * vol[:, None, None]
        return np.einsum("tmn,mnij->tij", g, reference.stiffness_reference(space.order))
    if form == "mass":
        return vol[:, None, None] * reference.mass_reference(space.order)[None, :, :]
    raise ValueError(f"unknown form {form!r}")


def _element_keys(rows: FeSpace, cols: FeSpace):
    """The keys ``row * cols.n_dofs + col`` of every element block in (tet,
    row, col) order: a fresh int64 array, for ``_csr_from_keys`` to sort."""
    r, c = (s.element_dofs.astype(np.int64, copy=False) for s in (rows, cols))
    return (r[:, :, None] * cols.n_dofs + c[:, None, :]).ravel()


def assemble_operator(space: FeSpace, form: str) -> CsrMatrix:
    """Assemble the stiffness or mass matrix over the full DOF set.

    Element integrals are exact (rational barycentric expansion), so
    e.g. stiffness row sums vanish to machine precision.
    """
    n, dofs = space.n_dofs, space.element_dofs
    if dofs.size and (dofs.min() < 0 or dofs.max() >= n):
        raise ValueError(f"element_dofs out of range for {n} DOFs")
    # keys, then values, both temporaries, so the core frees each once used
    return _csr_from_keys(n, n, _element_keys(space, space), _element_matrices(space, form).ravel())


def assemble_divergence(vel: FeSpace, pres: FeSpace):
    """Component blocks B_c (pres.n_dofs x vel.n_dofs) of the -div operator
    on one mesh, sharing one sorted (row, col) pattern."""
    grads, vol = _element_geometry(vel.mesh)
    N = reference.divergence_reference(vel.order, pres.order)  # (4, n_p_loc, n_v_loc)
    return _csr_from_keys(
        pres.n_dofs, vel.n_dofs, _element_keys(pres, vel),
        np.stack([-np.einsum("t,tm,mqi->tqi", vol, grads[:, :, c], N).ravel() for c in range(3)]),
    )


def _quadrature(space: FeSpace):
    """The degree-9 tet rule on every element: weights (nq,), basis
    values (nq, n_loc), physical points (nt, nq, 3) and volumes (nt,)."""
    pts_b, wts = reference.tet_quadrature()
    phi = reference.basis_values_at(space.order)
    xq = np.einsum("qm,tmc->tqc", pts_b, space.mesh.vertices[space.mesh.tets])
    _, vol = _element_geometry(space.mesh)
    return wts, phi, xq, vol


def assemble_load(space: FeSpace, f) -> np.ndarray:
    """Load vector f_i = integral of f phi_i, via the degree-9 tet rule.

    ``f`` is called with an (m, 3) array of points and must return m
    values.
    """
    wts, phi, xq, vol = _quadrature(space)
    fv = np.asarray(f(xq.reshape(-1, 3)), dtype=np.float64).reshape(xq.shape[0], -1)
    local = vol[:, None] * np.einsum("tq,q,qi->ti", fv, wts, phi)
    out = np.zeros(space.n_dofs)
    np.add.at(out, space.element_dofs.ravel(), local.ravel())
    return out


@dataclass
class AssembledSystem:
    """Dirichlet-eliminated linear system with its interior DOF ids."""

    A: CsrMatrix
    rhs: np.ndarray
    interior_to_full: np.ndarray


def eliminate_dirichlet(A: CsrMatrix, rhs, space: FeSpace) -> AssembledSystem:
    """Restrict to interior DOFs for homogeneous Dirichlet data: the
    interior block of A and the interior entries of rhs."""
    rhs = np.asarray(rhs, dtype=np.float64)
    if A.nrows != space.n_dofs or rhs.shape[0] != space.n_dofs:
        raise ValueError("operator/rhs size does not match the space")
    interior = space.interior_indices()
    return AssembledSystem(A.submatrix(interior, interior), rhs[interior], interior)


def l2_error(space: FeSpace, coeffs_full, exact) -> float:
    """L2 norm of (u_h - u) with u_h given by full-set coefficients."""
    wts, phi, xq, vol = _quadrature(space)
    uh = np.einsum("ti,qi->tq", np.asarray(coeffs_full)[space.element_dofs], phi)
    ue = np.asarray(exact(xq.reshape(-1, 3))).reshape(uh.shape)
    err2 = np.einsum("t,q,tq->", vol, wts, (uh - ue) ** 2)
    return float(np.sqrt(max(err2, 0.0)))
