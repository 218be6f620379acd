"""Meshes, refinement, perturbation and operator export.

Builds the structured Kuhn triangulation of the unit cube, refines it
uniformly, perturbs interior vertices into a genuinely unstructured
mesh, and writes the assembled stiffness matrix and transfer operator
in Matrix Market form (plus the mesh itself as .node/.ele files).
"""

import numpy as np

from auxmg.csr import read_matrix_market, write_matrix_market
from auxmg.fem import assemble_operator, build_space
from auxmg.mesh import build_cube_mesh, perturb_interior, read_mesh, refine_uniform, write_mesh
from auxmg.transfer import build_prolongation

mesh = build_cube_mesh(2)
print(f"cube n=2:   {mesh.num_vertices} vertices, {mesh.num_tets} tets, "
      f"{len(mesh.boundary_faces)} boundary faces, volume {mesh.volumes.sum():.15f}")

fine = refine_uniform(mesh)
print(f"refined:    {fine.num_vertices} vertices, {fine.num_tets} tets "
      f"(= vertices + edges = {mesh.num_vertices} + {len(mesh.edges)})")

bumpy = perturb_interior(mesh, magnitude=0.2, seed=42)
moved = np.linalg.norm(bumpy.vertices - mesh.vertices, axis=1)
print(f"perturbed:  {np.count_nonzero(moved)} vertices moved, max displacement {moved.max():.3f}, "
      f"min tet volume {bumpy.volumes.min():.5f}")

write_mesh(bumpy, "bumpy")
back = read_mesh("bumpy")
print(f"mesh round trip exact: {np.array_equal(back.vertices, bumpy.vertices)}")

# assembled operators travel as Matrix Market coordinate files with 17
# significant digits; only an exactly symmetric matrix is stored as its
# lower triangle, so the round trip is bit for bit
space = build_space(bumpy, 2)
A = assemble_operator(space, "stiffness")
write_matrix_market(A, "stiffness.mtx")
A_back = read_matrix_market("stiffness.mtx")
diff = np.max(np.abs(A_back.to_dense() - A.to_dense()))
print(f"stiffness:  {A} -> stiffness.mtx, round trip max diff {diff:.1e}")

P = build_prolongation(space, build_space(bumpy, 1)).prolongation
write_matrix_market(P, "transfer.mtx")
print(f"transfer:   {P} -> transfer.mtx (rows are barycentric weights)")
