"""Canned problem setups shared by the experiment harness, demos and tests."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fem import AssembledSystem, FeSpace, assemble_load, assemble_operator, build_space, eliminate_dirichlet
from .mesh import build_cube_mesh, perturb_interior
from .csr import CsrMatrix
from .transfer import TransferOperator, build_prolongation


@dataclass
class PoissonProblem:
    """Dirichlet Poisson problem on the unit cube with its P1 transfer
    (the identity at k = 1)."""

    fine_space: FeSpace
    system: AssembledSystem
    transfer: TransferOperator
    prolongation_int: CsrMatrix  # interior x interior


def poisson_setup(n: int, k: int, f=None, perturb_seed=None) -> PoissonProblem:
    """Assemble the eliminated P^k Poisson system on an n-subdivided cube.

    ``f`` defaults to zero (the harness drives solves with random initial
    guesses); ``perturb_seed`` unstructures the mesh.
    """
    mesh = build_cube_mesh(n)
    if perturb_seed is not None:
        mesh = perturb_interior(mesh, seed=perturb_seed)
    fine = build_space(mesh, k)
    rhs = assemble_load(fine, f) if f is not None else np.zeros(fine.n_dofs)
    # the full-DOF operator is freed here, before the transfer is built
    system = eliminate_dirichlet(assemble_operator(fine, "stiffness"), rhs, fine)
    transfer = build_prolongation(fine, build_space(mesh, 1))
    return PoissonProblem(fine, system, transfer, transfer.eliminated())


def manufactured_solution():
    """u = sin(pi x) sin(pi y) sin(pi z) with -Laplace(u) = 3 pi^2 u."""

    def exact(x):
        return np.sin(np.pi * x[:, 0]) * np.sin(np.pi * x[:, 1]) * np.sin(np.pi * x[:, 2])

    def f(x):
        return 3.0 * np.pi**2 * exact(x)

    return exact, f
