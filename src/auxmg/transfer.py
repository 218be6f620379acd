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
    node i.  Values come from the last tet that holds each node (its
    ``dof_owner``), with which every other containing tet agrees on a
    conforming space.  A P1 fine space gives the identity.
    """
    if coarse.order != 1:
        raise ValueError("coarse space must have order 1")
    if coarse.mesh is not fine.mesh and not (
        coarse.mesh.num_vertices == fine.mesh.num_vertices
        and np.array_equal(coarse.mesh.tets, fine.mesh.tets)
        and np.array_equal(coarse.mesh.vertices, fine.mesh.vertices)
    ):
        raise ValueError("fine and coarse spaces must share one mesh")

    # each DOF's row holds the nonzero weights lattice/k of its owner slot
    # on the owner tet's vertices; the columns of a row are distinct, so
    # from_coo only sorts them
    k = fine.order
    lattice = np.array(reference.lattice_points(k))
    tet, slot = np.divmod(fine.dof_owner, len(lattice))
    row, m = np.nonzero(lattice[slot])
    P = CsrMatrix.from_coo(fine.n_dofs, coarse.n_dofs, row, fine.mesh.tets[tet[row], m], lattice[slot[row], m] / k)
    return TransferOperator(P, fine, coarse)
