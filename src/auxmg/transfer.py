"""Transfer operators between a P^k space and its P1 space on one mesh.

The prolongation row of a fine node is just its barycentric coordinates
with respect to the vertices of a containing tet, so every row has at
most 4 entries, each a rational multiple of 1/k, and rows sum to 1 over
the full DOF sets.  At k = 1 the fine nodes are the vertices and the
prolongation is the identity.
"""

from __future__ import annotations

import numpy as np

from . import reference
from .csr import CsrMatrix
from .fem import FeSpace


class TransferOperator:
    """Prolongation (n_h x n_H) between two spaces on one mesh."""

    def __init__(self, prolongation: CsrMatrix, fine_space: FeSpace, coarse_space: FeSpace):
        self.prolongation = prolongation
        self.fine_space = fine_space
        self.coarse_space = coarse_space

    def eliminated(self) -> CsrMatrix:
        """Prolongation restricted to interior rows and columns."""
        return self.prolongation.submatrix(
            self.fine_space.interior_indices(), self.coarse_space.interior_indices()
        )


def build_prolongation(fine: FeSpace, coarse: FeSpace) -> TransferOperator:
    """Interpolation matrix of hat functions at the fine lattice nodes.

    Entry (i, j) is the value of the hat function of vertex j at fine
    node i.  Values come from the lowest-id tet containing each node,
    with which every other containing tet agrees on a conforming space.
    A P1 fine space gives the identity.
    """
    if coarse.order != 1:
        raise ValueError("coarse space must have order 1")
    if coarse.mesh is not fine.mesh and not (
        coarse.mesh.num_vertices == fine.mesh.num_vertices
        and np.array_equal(coarse.mesh.tets, fine.mesh.tets)
        and np.array_equal(coarse.mesh.vertices, fine.mesh.vertices)
    ):
        raise ValueError("fine and coarse spaces must share one mesh")

    # every occurrence (tet, lattice point) as its row: the weights
    # lattice/k on the tet's vertices, sorted by vertex, with the vertices
    # of zero weight as -1 in front
    k = fine.order
    lattice = np.array(reference.lattice_points(k))
    cols = np.where(lattice > 0, fine.mesh.tets[:, None, :], -1).reshape(-1, 4)
    vals = np.broadcast_to(lattice / k, (fine.mesh.num_tets, *lattice.shape)).reshape(-1, 4)
    by_col = np.argsort(cols, axis=1)
    cols, vals = np.take_along_axis(cols, by_col, axis=1), np.take_along_axis(vals, by_col, axis=1)
    dofs = fine.element_dofs.ravel()
    _, first = np.unique(dofs, return_index=True)
    cols, vals = cols[first], vals[first]
    keep = cols >= 0
    row_ptr = np.concatenate([[0], np.cumsum(keep.sum(axis=1))])
    P = CsrMatrix(fine.n_dofs, coarse.n_dofs, row_ptr, cols[keep], vals[keep])
    return TransferOperator(P, fine, coarse)

