"""The block contract of the solve-phase kernels and preconditioners:
given an (n, k) block, each column of the result equals, bit for bit,
the result of the same call on that column alone.  The Stokes block
preconditioner, which applies the velocity cycle to its three components
as one block, is checked against a per-component loop."""

import re
from functools import cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from auxmg.amg import build_hierarchy, vcycle_apply
from auxmg.csr import CsrMatrix, GaussSeidel, cholesky_factor, cholesky_solve, spmv
from auxmg.mesh import build_cube_mesh
from auxmg.problems import poisson_setup
from auxmg.stokes import assemble_stokes, build_block_preconditioner, project_pressure_mean
from auxmg.twolevel import TwoLevelPreconditioner
from tests.test_csr import diagonally_dominant

# the id names the direction of the last sweep of ``apply``, which
# ``presmooth`` fixes: backward in the symmetric form, forward in the plain
TWO_LEVEL_SETTINGS = [
    pytest.param(coarse, presmooth, id=f"{coarse}-{presmooth}-{'backward' if presmooth else 'forward'}")
    for coarse in ("exact", "amg")
    for presmooth in (True, False)
]


@st.composite
def blocks(draw, n):
    """A random (n, k) block, k = 1..4, in C or Fortran order."""
    k = draw(st.integers(1, 4))
    X = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).standard_normal((n, k))
    return np.asfortranarray(X) if draw(st.booleans()) else X


def assert_columnwise(f, X):
    Y = f(X)
    assert Y.shape[1:] == X.shape[1:]
    for j in range(X.shape[1]):
        assert np.array_equal(Y[:, j], f(X[:, j].copy())), f"column {j} of {X.shape[1]}"


@cache
def poisson(n):
    prob = poisson_setup(n, 2)
    return prob.system.A, prob.prolongation_int


@cache
def two_level(n, coarse, presmooth):
    A, P = poisson(n)
    return TwoLevelPreconditioner(A, P, coarse=coarse, presmooth=presmooth)


@cache
def hierarchy():
    return build_hierarchy(poisson(2)[0], coarse_size=4)


class TestKernels:
    @settings(max_examples=40, deadline=None)
    @given(diagonally_dominant(), st.data())
    def test_spmv(self, case, data):
        A = CsrMatrix.from_dense(case[0])
        assert_columnwise(lambda x: spmv(A, x), data.draw(blocks(A.ncols)))

    @settings(max_examples=10, deadline=None)
    @given(st.data())
    def test_spmv_rectangular(self, data):
        P = poisson(2)[1]
        assert_columnwise(lambda x: spmv(P, x), data.draw(blocks(P.ncols)))
        assert_columnwise(lambda x: spmv(P.transpose(), x), data.draw(blocks(P.nrows)))

    @settings(max_examples=40, deadline=None)
    @given(diagonally_dominant(), st.data())
    def test_gauss_seidel(self, case, data):
        A = CsrMatrix.from_dense(case[0])
        X = data.draw(blocks(A.nrows))
        before = X.copy()
        for direction in ("forward", "backward"):
            assert_columnwise(getattr(GaussSeidel(A), direction), X)
        assert np.array_equal(X, before)  # the block is copied, not overwritten

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 12), st.data())
    def test_cholesky_solve(self, n, data):
        B = np.random.default_rng(n).standard_normal((n, n))
        L = cholesky_factor(B.T @ B + np.eye(n))
        assert_columnwise(lambda b: cholesky_solve(L, b), data.draw(blocks(n)))

    def test_cholesky_solve_on_the_empty_factor(self):
        L = cholesky_factor(np.zeros((0, 0)))
        assert cholesky_solve(L, np.zeros(0)).shape == (0,)
        assert cholesky_solve(L, np.zeros((0, 3))).shape == (0, 3)


class TestPreconditioners:
    @settings(max_examples=15, deadline=None)
    @given(st.data())
    def test_vcycle_apply(self, data):
        H = hierarchy()
        assert H.num_levels >= 3
        assert_columnwise(lambda r: vcycle_apply(H, r), data.draw(blocks(H.levels[0].A.nrows)))

    @pytest.mark.parametrize("n", [1, 2])  # n = 1 has no coarse DOFs: a 0 x 0 coarse factor
    @pytest.mark.parametrize("coarse, presmooth", TWO_LEVEL_SETTINGS)
    @settings(max_examples=5, deadline=None)
    @given(data=st.data())
    def test_two_level(self, n, coarse, presmooth, data):
        M = two_level(n, coarse, presmooth)
        assert_columnwise(M.apply, data.draw(blocks(M.A.nrows)))
        assert_columnwise(M.apply_transpose, data.draw(blocks(M.A.nrows)))


def per_component_action(Q, r):
    """The block preconditioner with one ``a_action`` call per velocity
    component."""
    S = Q.system
    n = S.n_interior
    r_u, r_p = S.split(r)

    def velocity(r_u):
        return np.concatenate([Q.a_action(r_u[c * n : (c + 1) * n]) for c in range(3)])

    if Q.kind == "Qt":
        z_p = -Q._mass_solve(r_p)
        z_u = velocity(r_u - spmv(S.B.transpose(), z_p))
    else:
        z_u = velocity(r_u)
        z_p = Q._mass_solve(r_p)
    return np.concatenate([z_u, project_pressure_mean(z_p, S.M_p)])


@cache
def cavity():
    return assemble_stokes(build_cube_mesh(2), 2)


@pytest.mark.parametrize("kind", ["Qt", "Qd"])
@pytest.mark.parametrize("engine", ["gamg", "amg"])
def test_block_preconditioner_matches_per_component_loop(kind, engine):
    S = cavity()
    Q = build_block_preconditioner(S, kind=kind, engine=engine)
    for seed in range(3):
        r = np.random.default_rng(seed).standard_normal(S.dim)
        assert np.array_equal(Q(r), per_component_action(Q, r))


def shape_checked_calls():
    A = poisson(2)[0]
    M = two_level(2, "amg", True)
    L = cholesky_factor(A.to_dense())
    return {
        "spmv": lambda x: spmv(A, x),
        "forward": GaussSeidel(A).forward,
        "backward": GaussSeidel(A).backward,
        "cholesky_solve": lambda b: cholesky_solve(L, b),
        "vcycle_apply": lambda r: vcycle_apply(hierarchy(), r),
        "apply": M.apply,
        "apply_transpose": M.apply_transpose,
    }


@pytest.mark.parametrize("name", ["spmv", "forward", "backward", "cholesky_solve", "vcycle_apply",
                                  "apply", "apply_transpose"])
def test_wrong_length_and_3d_input_named(name):
    f, n = shape_checked_calls()[name], poisson(2)[0].nrows
    for shape in ((n + 1,), (n - 1, 2), (n, 2, 2), ()):
        with pytest.raises(ValueError, match=re.escape(f"has shape {shape}")):
            f(np.zeros(shape))


@pytest.mark.parametrize("name", ["cholesky_solve", "vcycle_apply", "apply", "apply_transpose"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("k", [None, 3])
def test_non_finite_residual_raises(name, bad, k):
    # a residual with an inf or NaN reaches the coarsest level's Cholesky
    # solve, which names it instead of passing it on
    f, n = shape_checked_calls()[name], poisson(2)[0].nrows
    r = np.ones(n if k is None else (n, k))
    r[n // 2] = bad
    with pytest.raises(ValueError, match="infs or NaNs"):
        f(r)
