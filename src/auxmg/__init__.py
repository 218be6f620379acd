"""Auxiliary-space multigrid preconditioning for high-order finite elements.

A small numpy/scipy library for experimenting with two-level
geometric-algebraic preconditioners: P^k Lagrange discretisations of
the Poisson equation on tetrahedral meshes, exact transfer to the P1
space, classical AMG, Krylov solvers, and Poisson-based block
preconditioners for the Stokes equation, together with the augmented
matrix machinery that certifies the two-level method's convergence rate.
"""

from .amg import AmgHierarchy, VCyclePreconditioner, build_hierarchy, operator_complexity
from .csr import CsrMatrix, read_matrix_market, spmv, triple_product, write_matrix_market
from .fem import assemble_load, assemble_operator, build_space, eliminate_dirichlet, l2_error
from .krylov import SolveReport, SolverConfig, fgmres, minres, pcg
from .mesh import TetMesh, build_cube_mesh, perturb_interior, refine_uniform
from .problems import manufactured_solution, poisson_setup
from .stokes import assemble_stokes, project_pressure_mean, solve_cavity
from .transfer import build_prolongation
from .twolevel import (
    TwoLevelPreconditioner,
    build_augmented,
    contraction_factor_estimate,
    rate_identity_oracle,
)

__version__ = "0.1.0"
