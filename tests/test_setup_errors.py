"""The setup error contract: given one bad entry (NaN, +-inf, a zero or
a negative diagonal), ``build_hierarchy`` and ``TwoLevelPreconditioner``
either build or raise a ValueError (``NotPositiveDefiniteError`` and
``CoarseLevelTooLargeError`` are ValueErrors), and never emit a
RuntimeWarning on the way.  On random small symmetric matrices,
``build_hierarchy`` and one V-cycle either run or raise a ValueError or a
LinAlgError, again without a RuntimeWarning.  Above them, the calls that
take a mesh size or an order either return, with Python-int orders and DOF
counts, or raise a ValueError, whatever int-like or other value they get."""

import warnings
from functools import lru_cache

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from auxmg.amg import VCyclePreconditioner, build_hierarchy
from auxmg.csr import CsrMatrix
from auxmg.fem import FeSpace, build_space
from auxmg.harness import ExperimentConfig, run_experiment
from auxmg.mesh import TetMesh, build_cube_mesh
from auxmg.problems import poisson_setup
from auxmg.stokes import assemble_stokes
from auxmg.twolevel import TwoLevelPreconditioner
from tests.test_amg import laplace_1d


def linear_interpolation(n_coarse):
    """1-D linear interpolation from n_coarse points onto 2 n_coarse + 1,
    the coarse points at the odd fine indices."""
    P = np.zeros((2 * n_coarse + 1, n_coarse))
    for i in range(n_coarse):
        P[2 * i : 2 * i + 3, i] = [0.5, 1.0, 0.5]
    return CsrMatrix.from_dense(P)


@lru_cache(maxsize=None)
def base_operator(name):
    """(A, P): a 1-D Laplacian with linear interpolation, or the P2 n=2
    interior operator with its P1 transfer."""
    if name == "p2_n2":
        prob = poisson_setup(2, 2)
        return prob.system.A, prob.prolongation_int
    n_coarse = int(name.split("_")[1])
    return laplace_1d(2 * n_coarse + 1), linear_interpolation(n_coarse)


def with_value(X, k, value):
    values = X.values.copy()
    values[k] = value
    return CsrMatrix(X.nrows, X.ncols, X.row_ptr, X.col_idx, values)


@st.composite
def broken_operators(draw):
    A, P = base_operator(draw(st.sampled_from(["laplace_4", "laplace_10", "p2_n2"])))
    fault = draw(st.sampled_from(["nan", "inf", "-inf", "zero_diagonal", "negative_diagonal"]))
    if fault.endswith("diagonal"):
        row = draw(st.integers(0, A.nrows - 1))
        k = A.row_ptr[row] + int(np.flatnonzero(A.col_idx[A.row_ptr[row] : A.row_ptr[row + 1]] == row)[0])
        return with_value(A, k, 0.0 if fault == "zero_diagonal" else -A.values[k]), P
    if draw(st.booleans()):
        return with_value(A, draw(st.integers(0, A.nnz - 1)), float(fault)), P
    return A, with_value(P, draw(st.integers(0, P.nnz - 1)), float(fault))


@settings(max_examples=200, deadline=None)
@given(AP=broken_operators(), coarse=st.sampled_from(["amg", "exact"]))
def test_setup_builds_or_raises_a_value_error(AP, coarse):
    A, P = AP
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for build in (lambda: build_hierarchy(A, coarse_size=4), lambda: TwoLevelPreconditioner(A, P, coarse=coarse)):
            try:
                build()
            except ValueError:
                pass


@st.composite
def random_symmetric(draw):
    """Random sparse symmetric matrices with a positive diagonal, possibly
    indefinite: rows with no off-diagonal entries, rows whose off-diagonals
    are all positive, and (all signs positive, or no off-diagonals at all)
    matrices with no strong connection."""
    n = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    i, j = np.nonzero(np.triu(rng.random((n, n)) < draw(st.floats(0.0, 1.0)), 1))
    isolated = rng.random(n) < draw(st.floats(0.0, 0.5))  # rows with only a diagonal entry
    positive = rng.random(n) < draw(st.sampled_from([0.0, 0.3, 1.0]))  # rows with only positive couplings
    keep = ~(isolated[i] | isolated[j])
    i, j = i[keep], j[keep]
    if draw(st.booleans()):  # tied magnitudes, or magnitudes across 16 decades
        mag = rng.choice([0.25, 0.5, 1.0, 2.0], size=len(i))
    else:
        mag = rng.random(len(i)) * 10.0 ** rng.integers(-8, 8, size=len(i))
    vals = np.where(positive[i] | positive[j], mag, -mag)
    diag = 1.0 + rng.random(n) * 40.0
    rows = np.concatenate([i, j, np.arange(n)])
    cols = np.concatenate([j, i, np.arange(n)])
    return CsrMatrix.from_coo(n, n, rows, cols, np.concatenate([vals, vals, diag]))


@settings(max_examples=300, deadline=None)
@given(A=random_symmetric(), coarse_size=st.integers(1, 10))
def test_random_matrix_builds_and_cycles_or_raises(A, coarse_size):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            VCyclePreconditioner(build_hierarchy(A, coarse_size=coarse_size)).apply(np.ones(A.nrows))
        except (ValueError, np.linalg.LinAlgError):
            pass


def integer_likes(low, high):
    """What an int parameter in low..high may be handed: an int, a numpy
    integer scalar, a bool, a whole or fractional float, NaN or a string."""
    ints = st.integers(low, high)
    return st.one_of(
        ints,
        st.tuples(st.sampled_from([np.int8, np.int32, np.int64]), ints).map(lambda t: t[0](t[1])),
        st.integers(0, high).map(np.uint8),
        st.booleans(),
        ints.map(float),
        ints.map(lambda i: i + 0.5),
        st.just(float("nan")),
        st.sampled_from(["2", "two", ""]),
    )


# each call with its one drawn argument, and that argument's range of ints
SIZED_CALLS = {
    "build_cube_mesh(n)": (build_cube_mesh, -1, 3),
    "build_space(cube, k)": (lambda k: build_space(build_cube_mesh(2), k), -1, 5),
    "poisson_setup(n, 2)": (lambda n: poisson_setup(n, 2), -1, 2),
    "poisson_setup(2, k)": (lambda k: poisson_setup(2, k), -1, 5),
    "assemble_stokes(cube, k)": (lambda k: assemble_stokes(build_cube_mesh(2), k), -1, 5),
    "run_experiment(k)": (lambda k: run_experiment(ExperimentConfig(k=k, refinements=[2], theta_values=[0.25])), -1, 5),
    "run_experiment(n)": (lambda n: run_experiment(ExperimentConfig(refinements=[n], theta_values=[0.25])), -1, 2),
}


@settings(max_examples=200, deadline=None)
@given(name=st.sampled_from(sorted(SIZED_CALLS)), data=st.data())
def test_integer_like_argument_returns_or_raises_a_value_error(name, data):
    call, low, high = SIZED_CALLS[name]
    arg = data.draw(integer_likes(low, high), label="arg")
    try:
        result = call(arg)
    except ValueError:
        return
    if isinstance(result, list):  # run_experiment's rows
        assert all(row.error == "" and type(row.n_dofs) is int for row in result)
    elif isinstance(result, TetMesh):
        assert result.num_tets == 6 * int(arg) ** 3
    else:
        spaces = [result] if isinstance(result, FeSpace) else [v for v in vars(result).values() if isinstance(v, FeSpace)]
        assert spaces
        for space in spaces:
            assert type(space.order) is int and type(space.n_dofs) is int
