"""Hood-Taylor Stokes discretisation and Poisson-based block preconditioners.

Velocity lives in (P^{k,0})^3 with Dirichlet data on the whole boundary
(zero on the walls, a driven lid on the top face), pressure in
P^{k-1,0} with its constant mode projected away.  The saddle operator is

    F = [[A, B^T], [B, 0]],   B = discrete -div,

and the preconditioners approximate A^{-1} by one multigrid cycle per
velocity component and the Schur complement by the pressure mass matrix
solved with diagonally preconditioned CG.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse

from .amg import VCyclePreconditioner, build_hierarchy
from .csr import CsrMatrix, _adopt, spmv
from .fem import FeSpace, assemble_divergence, assemble_operator, build_space, eliminate_dirichlet
from .krylov import SolveReport, SolverConfig, fgmres, minres, pcg
from .mesh import TetMesh
from .transfer import build_prolongation
from .twolevel import TwoLevelPreconditioner

_GEOM_TOL = 1e-9


class InnerSolveError(RuntimeError):
    """The Schur-block mass solve failed; the report is attached."""

    def __init__(self, report: SolveReport):
        self.report = report
        super().__init__(f"inner mass solve did not converge in {report.iterations} iterations")


@dataclass
class StokesSystem:
    """Eliminated saddle system for the lid-driven cavity.

    Velocity DOFs are component-major over the interior scalar DOFs:
    u = [u_x; u_y; u_z].  ``B`` maps interior velocity to pressure;
    the boundary contribution of the lid sits in ``rhs_p``.  The velocity
    block is ``A_scalar`` on each component.
    """

    B: CsrMatrix            # n_p x 3*n_int discrete -div
    M_p: CsrMatrix          # pressure mass
    velocity_space: FeSpace
    A_scalar: CsrMatrix     # one diagonal block of A
    rhs_u: np.ndarray
    rhs_p: np.ndarray
    lid_values: np.ndarray  # (n_v_full, 3) Dirichlet data over all velocity DOFs

    @property
    def n_interior(self):
        return self.A_scalar.nrows

    @property
    def n_velocity(self):
        return 3 * self.n_interior

    @property
    def n_pressure(self):
        return self.M_p.nrows

    @property
    def dim(self):
        return self.n_velocity + self.n_pressure

    def rhs(self):
        return np.concatenate([self.rhs_u, self.rhs_p])

    def split(self, x):
        return x[: self.n_velocity], x[self.n_velocity :]

    def apply_operator(self, x):
        u, p = self.split(x)
        # A_scalar on the (n, 3) component view gives A u row for row
        Au = spmv(self.A_scalar, u.reshape(3, self.n_interior).T).T.ravel()
        top = Au + spmv(self.B.transpose(), p)
        bot = spmv(self.B, u)
        return np.concatenate([top, bot])

    def full_velocity(self, u_interior):
        """Assemble the (n_v_full, 3) velocity field including lid data."""
        out = self.lid_values.copy()
        out[self.velocity_space.interior_indices()] = u_interior.reshape(3, self.n_interior).T
        return out


def _lid_dirichlet_values(space: FeSpace, lid_velocity) -> np.ndarray:
    """Dirichlet data: zero on walls, the constant (x, y, z) triple
    ``lid_velocity`` on the open top face.

    Rim nodes (top face meeting a wall) take the wall value, the
    watertight-cavity convention that keeps the data continuous.
    """
    coords = space.dof_coords
    g = np.zeros((space.n_dofs, 3))
    on_top = space.is_boundary & (np.abs(coords[:, 2] - 1.0) <= _GEOM_TOL)
    on_wall = (
        (np.abs(coords[:, 0]) <= _GEOM_TOL)
        | (np.abs(coords[:, 0] - 1.0) <= _GEOM_TOL)
        | (np.abs(coords[:, 1]) <= _GEOM_TOL)
        | (np.abs(coords[:, 1] - 1.0) <= _GEOM_TOL)
        | (np.abs(coords[:, 2]) <= _GEOM_TOL)
    )
    g[on_top & ~on_wall] = np.asarray(lid_velocity, dtype=np.float64)
    return g


def assemble_stokes(mesh: TetMesh, k: int, lid_velocity=(1.0, 0.0, 0.0)) -> StokesSystem:
    """P^k / P^{k-1} cavity problem with body force zero."""
    if k not in (2, 3, 4):
        raise ValueError("Hood-Taylor velocity order must be 2, 3 or 4")
    vel = build_space(mesh, k)
    pres = build_space(mesh, k - 1)
    A_full = assemble_operator(vel, "stiffness")
    M_p = assemble_operator(pres, "mass")
    g = _lid_dirichlet_values(vel, lid_velocity)

    interior = vel.interior_indices()
    A_scalar = eliminate_dirichlet(A_full, np.zeros(vel.n_dofs), vel).A

    # g vanishes off the boundary, so it is the lift of the Dirichlet data;
    # one (n_full, 3) spmv lifts all three components, stored component-major
    rhs_u = -spmv(A_full, g)[interior].T.ravel()

    B_blocks = assemble_divergence(vel, pres)
    B_int = scipy.sparse.hstack([b.to_scipy()[:, interior] for b in B_blocks]).tocsr()
    rhs_p = -sum(spmv(b, g[:, c]) for c, b in enumerate(B_blocks))

    return StokesSystem(
        B=_adopt(B_int),
        M_p=M_p,
        velocity_space=vel,
        A_scalar=A_scalar,
        rhs_u=rhs_u,
        rhs_p=rhs_p,
        lid_values=g,
    )


def project_pressure_mean(p, M_p: CsrMatrix):
    """Remove the mass-weighted mean: p - (1'M_p p / 1'M_p 1) 1."""
    p = np.asarray(p, dtype=np.float64)
    w = spmv(M_p, np.ones(M_p.nrows))
    return p - (w @ p) / w.sum()


@dataclass
class BlockPreconditioner:
    """Q_t (upper triangular) or Q_d (block diagonal) action.

    ``a_action`` applies one multigrid cycle of the scalar velocity
    block to each column of an (n, 3) block, one column per velocity
    component; the Schur approximation is the pressure mass matrix
    solved by diagonally preconditioned CG to ``schur_tol``.

    Q_t follows the triangular factorisation: z_p = -M_p^{-1} r_p first,
    then z_u = A^{-1}(r_u - B^T z_p).  Q_d drops the coupling and uses
    the positive pressure block diag(A^{-1}, +M_p^{-1}) so the action is
    SPD, as MINRES requires.
    """

    kind: str
    a_action: object
    system: StokesSystem
    schur_tol: float = 1e-2
    schur_max_iters: int = 50
    _mp_diag_inv: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.kind not in ("Qt", "Qd"):
            raise ValueError("kind must be 'Qt' or 'Qd'")
        self._mp_diag_inv = 1.0 / self.system.M_p.diagonal()

    def _mass_solve(self, r_p):
        cfg = SolverConfig(method="cg", rel_tol=self.schur_tol, max_iters=self.schur_max_iters)
        z, rep = pcg(self.system.M_p, lambda r: self._mp_diag_inv * r, r_p, cfg)
        if not rep.converged:
            raise InnerSolveError(rep)
        return z

    def _velocity_solve(self, r_u):
        """One ``a_action`` call on the three components as the columns of
        an (n, 3) block, a view of ``r_u``."""
        return self.a_action(r_u.reshape(3, self.system.n_interior).T).T.ravel()

    def apply(self, r_u, r_p):
        if len(r_u) != self.system.n_velocity or len(r_p) != self.system.n_pressure:
            raise ValueError("residual block sizes do not match the system")
        if self.kind == "Qt":
            z_p = -self._mass_solve(r_p)
            z_u = self._velocity_solve(r_u - spmv(self.system.B.transpose(), z_p))
        else:
            z_u = self._velocity_solve(r_u)
            z_p = self._mass_solve(r_p)
        return z_u, z_p

    def __call__(self, r):
        r_u, r_p = self.system.split(np.asarray(r, dtype=np.float64))
        z_u, z_p = self.apply(r_u, r_p)
        z_p = project_pressure_mean(z_p, self.system.M_p)
        return np.concatenate([z_u, z_p])


def build_block_preconditioner(S: StokesSystem, kind="Qt", engine="gamg", theta=0.8) -> BlockPreconditioner:
    """One AMG or two-level (auxiliary P1) cycle on the velocity block."""
    if engine == "gamg":
        coarse_p1 = build_space(S.velocity_space.mesh, 1)
        P_int = build_prolongation(S.velocity_space, coarse_p1).eliminated()
        a_action = TwoLevelPreconditioner(S.A_scalar, P_int, coarse="amg", theta=theta, presmooth=True)
    elif engine == "amg":
        a_action = VCyclePreconditioner(build_hierarchy(S.A_scalar, theta=theta))
    else:
        raise ValueError(f"unknown engine {engine!r}")
    return BlockPreconditioner(kind, a_action, S)


# the Krylov methods each block form admits, the default first: the saddle
# system is indefinite, so no CG, and Q_t is not symmetric, so no MINRES
_METHODS = {"Qt": ("fgmres",), "Qd": ("minres", "fgmres")}


def _solver_config(kind, cfg: SolverConfig | None) -> SolverConfig:
    """``cfg``, or the default solve of the block form ``kind`` when it is
    None; a ValueError when the form does not admit its method."""
    if kind not in _METHODS:
        raise ValueError("kind must be 'Qt' or 'Qd'")
    if cfg is None:
        cfg = SolverConfig(method=_METHODS[kind][0], rel_tol=1e-8, max_iters=400)
    if cfg.method not in _METHODS[kind]:
        raise ValueError(f"method {cfg.method!r} does not suit the {kind} form, which admits "
                         f"{' or '.join(_METHODS[kind])} only")
    return cfg


def solve_cavity(S: StokesSystem, precond_kind="Qt", coarse_engine="gamg",
                 cfg: SolverConfig | None = None, theta=0.8, x0=None):
    """FGMRES (Q_t) or MINRES (Q_d, which also admits FGMRES) on the
    saddle system; any other method raises ValueError before the setup.

    The pressure mean is projected out of the initial guess, every
    preconditioner output and the final answer.  Returns the full
    velocity field (n_v_full, 3), the zero-mean pressure and the solve
    report.
    """
    cfg = _solver_config(precond_kind, cfg)
    M = build_block_preconditioner(S, kind=precond_kind, engine=coarse_engine, theta=theta)
    return _solve_preconditioned(S, M, cfg, x0)


def _solve_preconditioned(S: StokesSystem, M: BlockPreconditioner, cfg: SolverConfig, x0=None):
    """The Krylov part of :func:`solve_cavity` with a ready preconditioner."""
    _solver_config(M.kind, cfg)
    b = S.rhs()
    if x0 is None:
        x0 = np.zeros(S.dim)
    else:
        x0 = np.array(x0, dtype=np.float64)
    u0, p0 = S.split(x0)
    x0 = np.concatenate([u0, project_pressure_mean(p0, S.M_p)])

    if cfg.method == "minres":
        x, report = minres(S.apply_operator, M, b, cfg, x0=x0)
    else:
        x, report = fgmres(S.apply_operator, M, b, cfg, x0=x0)
    u_int, p = S.split(x)
    p = project_pressure_mean(p, S.M_p)
    return S.full_velocity(u_int), p, report


# -- legacy VTK output -------------------------------------------------------


def write_vtk(path, mesh: TetMesh, point_data=None):
    """Legacy ASCII VTK unstructured grid with optional point fields.

    ``point_data`` maps names to per-vertex scalars (nv,) or vectors
    (nv, 3).
    """
    point_data = {name: np.asarray(arr) for name, arr in (point_data or {}).items()}
    for name, arr in point_data.items():
        if arr.shape not in ((mesh.num_vertices,), (mesh.num_vertices, 3)):
            raise ValueError(f"point field {name!r} has shape {arr.shape}, "
                             f"expected ({mesh.num_vertices},) or ({mesh.num_vertices}, 3)")
    with open(path, "w") as fh:
        fh.write("# vtk DataFile Version 3.0\ncavity solution\nASCII\nDATASET UNSTRUCTURED_GRID\n")
        fh.write(f"POINTS {mesh.num_vertices} double\n")
        np.savetxt(fh, mesh.vertices, fmt="%.16e")
        fh.write(f"CELLS {mesh.num_tets} {5 * mesh.num_tets}\n")
        np.savetxt(fh, np.column_stack([np.full(mesh.num_tets, 4), mesh.tets]), fmt="%d")
        fh.write(f"CELL_TYPES {mesh.num_tets}\n")
        np.savetxt(fh, np.full(mesh.num_tets, 10), fmt="%d")  # 10 is VTK_TETRA
        if point_data:
            fh.write(f"POINT_DATA {mesh.num_vertices}\n")
        for name, arr in point_data.items():
            if arr.ndim == 2:
                fh.write(f"VECTORS {name} double\n")
            else:
                fh.write(f"SCALARS {name} double 1\nLOOKUP_TABLE default\n")
            np.savetxt(fh, arr, fmt="%.16e")
