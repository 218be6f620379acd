"""The two-level iteration as block Gauss-Seidel on an augmented system.

Writing a fine-space function redundantly over the union of the P1 hat
functions and the P^k basis turns the two-level method (coarse solve,
then one forward smoothing sweep) into plain block Gauss-Seidel on a
singular but consistent augmented system.  Two consequences are checked
numerically here:

 1. the iterates of both formulations coincide to machine precision;
 2. the energy-seminorm contraction of the iteration obeys an exact
    rate identity |E|^2 = 1 - 1/K computable from the augmented blocks.
"""

import numpy as np

from auxmg.csr import spmv
from auxmg.problems import poisson_setup
from auxmg.twolevel import (
    TwoLevelPreconditioner,
    augmented_gs_step,
    build_augmented,
    contraction_factor_estimate,
    rate_identity_oracle,
)

problem = poisson_setup(2, 2)
A, P = problem.system.A, problem.prolongation_int
print(f"P2 cube, {A.nrows} fine unknowns, {P.ncols} coarse unknowns")

method = TwoLevelPreconditioner(A, P, coarse="exact", presmooth=False)
aug = build_augmented(A, P)

rng = np.random.default_rng(0)
f = rng.standard_normal(A.nrows)
u = rng.standard_normal(A.nrows)
f_aug = aug.W.T @ f
v = np.concatenate([np.zeros(aug.n_coarse), u])

print("\nsweep   |two-level - flattened block GS|")
for sweep in range(1, 6):
    u = u + method.apply(f - spmv(A, u))
    v = augmented_gs_step(aug, v, f_aug)
    print(f"{sweep:>5}   {np.max(np.abs(aug.W @ v - u)):.3e}")

lhs, rhs = rate_identity_oracle(aug)
est = contraction_factor_estimate(method, A, iters=500, seed=1)
print(f"\nrate identity:  |E|^2 (dense propagator) = {lhs:.12f}")
print(f"                1 - 1/K  (pencil side)    = {rhs:.12f}")
print(f"power-iteration contraction estimate      = {est.value:.8f}")
print(f"sqrt of identity value                    = {np.sqrt(lhs):.8f}")
