"""Pins of the plain-AMG setup: strong pattern, C/F splitting, direct
interpolation and coarse operator at every level of ``build_hierarchy``,
as SHA-256 digests of their exact bytes, plus a bitwise comparison of
the three setup stages with a per-row oracle.

The digests were taken from the per-row implementation, which lives on
below as the oracle; the array code that replaced it must reproduce
every bit.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from auxmg.amg import build_hierarchy, direct_interpolation, rs_coarsen, strength_graph
from auxmg.csr import CsrMatrix
from auxmg.problems import poisson_setup
from tests.test_amg import laplace_1d
from tests.test_setup_pins import csr_digest, digest

# -- the per-row oracle -------------------------------------------------------


def oracle_strength_graph(A: CsrMatrix, theta: float):
    """(strong, transpose): strong[i] lists the columns row i strongly
    depends on, transpose[j] the rows that strongly depend on j."""
    n = A.nrows
    strong = []
    transpose = [[] for _ in range(n)]
    for i in range(n):
        lo, hi = A.row_ptr[i], A.row_ptr[i + 1]
        cols = A.col_idx[lo:hi]
        vals = A.values[lo:hi]
        off = cols != i
        neg = -vals[off]
        if len(neg) == 0 or neg.max() <= 0.0:
            strong.append(np.empty(0, dtype=np.int64))
            continue
        cut = theta * neg.max()
        sel = cols[off][neg > cut]
        strong.append(sel)
        for j in sel:
            transpose[j].append(i)
    return strong, [np.asarray(t, dtype=np.int64) for t in transpose]


def oracle_rs_coarsen(strong, transpose):
    UNDECIDED, CPT, FPT = 0, 1, 2
    n = len(strong)
    state = np.full(n, UNDECIDED, dtype=np.int8)
    for i in range(n):
        if state[i] != UNDECIDED:
            continue
        state[i] = CPT
        for j in transpose[i]:
            if state[j] == UNDECIDED:
                state[j] = FPT
    # the invariant rs_coarsen's rounds rely on: the C-point that made an
    # F-point F is strong for it and comes before it
    for i in np.flatnonzero(state == FPT):
        below = strong[i][strong[i] < i]
        assert np.any(state[below] == CPT), f"F-point {i} has no strong C-point below it"
    c_points = np.flatnonzero(state == CPT)
    f_points = np.flatnonzero(state == FPT)
    coarse_index = np.full(n, -1, dtype=np.int64)
    coarse_index[c_points] = np.arange(len(c_points))
    return c_points, f_points, coarse_index


def oracle_direct_interpolation(A: CsrMatrix, strong, partition) -> CsrMatrix:
    c_points, f_points, coarse_index = partition
    rows, cols, vals = [], [], []
    for i in c_points:
        rows.append(i)
        cols.append(coarse_index[i])
        vals.append(1.0)
    for i in f_points:
        lo, hi = A.row_ptr[i], A.row_ptr[i + 1]
        rcols = A.col_idx[lo:hi]
        rvals = A.values[lo:hi]
        diag = rvals[rcols == i]
        a_ii = diag[0] if len(diag) else 0.0
        strong_c = strong[i][coarse_index[strong[i]] >= 0]
        neg = (rcols != i) & (rvals < 0.0)
        neg_sum = rvals[neg].sum()
        in_c = np.isin(rcols, strong_c) & neg
        negc_sum = rvals[in_c].sum()
        scale = neg_sum / negc_sum
        for j, a_ij in zip(rcols[in_c], rvals[in_c]):
            rows.append(i)
            cols.append(coarse_index[j])
            vals.append(-a_ij * scale / a_ii)
    return CsrMatrix.from_coo(A.nrows, len(c_points), rows, cols, vals)


def lists_to_csr(lists):
    row_ptr = np.zeros(len(lists) + 1, dtype=np.int64)
    np.cumsum([len(s) for s in lists], out=row_ptr[1:])
    col_idx = np.concatenate([np.empty(0, dtype=np.int64), *lists]).astype(np.int64)
    return row_ptr, col_idx


def strong_arrays(S):
    """CSR arrays (row_ptr, col_idx) of the strong graph, then of its
    transpose, as int64, the dtype the pins were taken with."""
    T = S.transpose()
    return tuple(a.astype(np.int64) for a in (S.row_ptr, S.col_idx, T.row_ptr, T.col_idx))


def assert_same_csr(X: CsrMatrix, Y: CsrMatrix):
    assert X.shape == Y.shape
    assert np.array_equal(X.row_ptr, Y.row_ptr)
    assert np.array_equal(X.col_idx, Y.col_idx)
    assert np.array_equal(X.values, Y.values)


def assert_stages_match_oracle(A: CsrMatrix, theta: float):
    """Run the three stages and the oracle on A; return the library's outputs."""
    S = strength_graph(A, theta)
    strong, transpose = oracle_strength_graph(A, theta)
    for got, want in zip(strong_arrays(S), (*lists_to_csr(strong), *lists_to_csr(transpose))):
        assert np.array_equal(got, want)
    partition = rs_coarsen(S)
    for got, want in zip(partition, oracle_rs_coarsen(strong, transpose)):
        assert np.array_equal(got, want)
    P = direct_interpolation(A, S, partition)
    assert_same_csr(P, oracle_direct_interpolation(A, strong, partition))
    return S, partition, P


# -- pins ---------------------------------------------------------------------

THETA = 0.25
COARSE_SIZE = 8


def _matrix(case):
    name, k = case
    if name == "laplace_1d":
        return laplace_1d(k)
    return poisson_setup(3, k, perturb_seed=1 if name == "perturbed3" else None).system.A


# per level: (strong graph, coarse_index, P, coarse operator)
PINS = {
    ("cube3", 2): [
        ("ad5c38a04ecbb6b0", "219db818c8d3c6d6", "3409c4da4430e466", "bb854bf40388b6f8"),
        ("0543e989551a89d2", "2dcd266311ffd024", "3c0375d33fb47900", "a0498a912ca94ede"),
    ],
    ("cube3", 4): [
        ("a94d8fa7bb440ac1", "194479bc8779ecb4", "a79429d16ba3adc5", "fdd206ab59e279d7"),
        ("58491df07c535dbf", "85e1e89affb5c36e", "d3ade94bfcdcfe3c", "7a0cdc49e579b94b"),
        ("d792de27eb2b36bf", "6c0acb3ce1fcc024", "aa1bf7642932fa52", "688df22b3d58b035"),
        ("7d803b6c8e9a3a27", "4dedc036624d1653", "c8d3e4ae6cd3ca94", "134e804e939c08b5"),
        ("c216df4e92380b82", "075ab53b7ac2d4dc", "2d1a2ec6ad0f2ffa", "d28f5cb6b59a2081"),
        ("0283f6f3b0f80275", "cb723f6ab2bfc357", "dbe38fd202ebb02a", "4c3b463b88c3f444"),
    ],
    ("perturbed3", 2): [
        ("4416ffd33716b0ae", "08971dc5e92f5452", "868d0f81bd792afa", "268a75ca89d12688"),
        ("e83056178837995a", "5332972086efbb72", "e587ffa6076a598b", "78b662ce6006865f"),
    ],
    ("perturbed3", 4): [
        ("ce92471f09183472", "c92d10765a590fb3", "32e2304e47b26858", "54b6c52038375f2d"),
        ("14f8eb0f8fafa149", "a8cb1f4e33f38f72", "07a5ff06948cc094", "3670cc28f9a7b2bb"),
        ("572c58f600ace2b4", "321828deaad24cb5", "071d3743cab6e154", "16bb610eb3d0ccc9"),
        ("720db0c0365a1a68", "237776b53653c3e2", "efa2acdc4951fcdd", "ef7929de1af8289c"),
        ("6eb5f20cceda2fa7", "27b72afba47097c9", "5c3aa3cc8ecdba10", "dd7bbe54c4c6843e"),
        ("83ab4c2545edf238", "ae3af7153f022e41", "df5b482817d3976a", "b8f180555921dff7"),
        ("ff8ab9b72bf4e109", "f4370a426234838e", "1c083fc400424898", "d3b589204a8bc3e2"),
    ],
    ("laplace_1d", 200): [
        ("53986059534b8c0a", "a43816d7f21dc9a3", "28562194347c725c", "a9099b10de374afe"),
        ("3c35574393dcccbc", "9904c4f34448c132", "56ffbc78f2b02538", "cf29e9923a0db64a"),
        ("5fe01931f6f9afb8", "f785e5c9ae4a9113", "ed9cc0efe6ae8fa1", "937ca9a0c46a91f3"),
        ("9ea899d8621b5859", "97da23dfc3a50978", "7e3cd8831f30deb6", "e760cc20478d3195"),
        ("ae24068b204135cd", "81e0007eb4939b1e", "8927df5186a2d323", "ca27504deb4bed1f"),
    ],
}


def hierarchy_digests(case):
    A = _matrix(case)
    H = build_hierarchy(A, theta=THETA, coarse_size=COARSE_SIZE)
    out = []
    for fine, coarse in zip(H.levels, H.levels[1:]):
        S, partition, P = assert_stages_match_oracle(fine.A, THETA)
        assert_same_csr(P, fine.P)
        out.append((digest(*strong_arrays(S)), digest(partition[2]), csr_digest(P), csr_digest(coarse.A)))
    return out


@pytest.mark.parametrize("case", sorted(PINS), ids=str)
def test_hierarchy_bits(case):
    assert hierarchy_digests(case) == PINS[case]


# -- the oracle property ------------------------------------------------------


@st.composite
def symmetric_matrices(draw):
    """Random sparse symmetric matrices with positive and negative
    off-diagonals, tied values, rows without negative off-diagonals and
    rows with no entries at all."""
    n = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    density = draw(st.floats(0.0, 1.0))
    p_positive = draw(st.floats(0.0, 1.0))
    tied = draw(st.booleans())
    upper = np.triu(rng.random((n, n)) < density, 1)
    i, j = np.nonzero(upper)
    if tied:
        mag = rng.choice([0.25, 0.5, 1.0, 2.0], size=len(i))
    else:
        mag = rng.random(len(i)) * 10.0 ** rng.integers(-8, 8, size=len(i))
    vals = np.where(rng.random(len(i)) < p_positive, mag, -mag)
    empty = rng.random(n) < draw(st.floats(0.0, 0.3))
    keep = ~(empty[i] | empty[j])
    i, j, vals = i[keep], j[keep], vals[keep]
    d = np.flatnonzero(~empty)
    diag = 1.0 + rng.random(len(d)) * 40.0
    rows = np.concatenate([i, j, d])
    cols = np.concatenate([j, i, d])
    return CsrMatrix.from_coo(n, n, rows, cols, np.concatenate([vals, vals, diag]))


@st.composite
def path_like_matrices(draw):
    """Symmetric matrices on chains, on chains numbered in a random order
    and on sparse random graphs, with negative off-diagonals.  A chain in
    index order decides one point per round of ``rs_coarsen``, which then
    hands it to its loop; the shuffled chains and the random graphs
    decide many points per round."""
    kind = draw(st.sampled_from(["chain", "shuffled chain", "sparse"]))
    n = draw(st.integers(2, 600))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "sparse":
        i, j = rng.integers(0, n, size=(2, draw(st.integers(0, 3 * n))))
        i, j = i[i != j], j[i != j]  # repeated pairs are summed
    else:
        i, j = np.arange(n - 1), np.arange(1, n)
        if kind == "shuffled chain":
            order = rng.permutation(n)
            i, j = order[i], order[j]
    if draw(st.booleans()):
        mag = rng.choice([0.5, 1.0], size=len(i))
    else:
        mag = rng.random(len(i)) * 10.0 ** rng.integers(-3, 3, size=len(i))
    rows = np.concatenate([i, j, np.arange(n)])
    cols = np.concatenate([j, i, np.arange(n)])
    diag = 1.0 + rng.random(n) * 4.0
    return CsrMatrix.from_coo(n, n, rows, cols, np.concatenate([-mag, -mag, diag]))


@settings(max_examples=400, deadline=None)
@given(A=st.one_of(symmetric_matrices(), path_like_matrices()),
       theta=st.sampled_from([0.1, 0.25, 0.5, 0.75, 0.9]))
def test_stages_match_the_per_row_oracle(A, theta):
    assert_stages_match_oracle(A, theta)


def spy_on_transposes(monkeypatch):
    """The row counts of the matrices whose ``transpose`` is called from
    now on: ``rs_coarsen`` calls it only when it hands over to its loop."""
    calls = []
    transpose = CsrMatrix.transpose

    def spy(self):
        calls.append(self.nrows)
        return transpose(self)

    monkeypatch.setattr(CsrMatrix, "transpose", spy)
    return calls


def assert_splitting_matches_oracle(S):
    strong = np.split(S.col_idx, S.row_ptr[1:-1])
    T = S.transpose()
    want = oracle_rs_coarsen(strong, np.split(T.col_idx, T.row_ptr[1:-1]))
    for got, w in zip(rs_coarsen(S), want):
        assert np.array_equal(got, w)


def test_p4_fine_level_is_split_in_rounds(monkeypatch):
    S = strength_graph(poisson_setup(8, 4).system.A, THETA)
    calls = spy_on_transposes(monkeypatch)
    rs_coarsen(S)
    assert calls == []
    assert_splitting_matches_oracle(S)


def test_a_chain_hands_over_to_the_loop(monkeypatch):
    S = strength_graph(laplace_1d(2000), THETA)
    calls = spy_on_transposes(monkeypatch)
    rs_coarsen(S)
    assert calls == [2000]
    assert_splitting_matches_oracle(S)


def test_long_f_row_sums_like_the_oracle():
    # a hub coupled to 300 leaves becomes an F-point whose weight sums run
    # over 300 entries, where numpy's blocked summation differs from a
    # left-to-right loop
    n = 301
    mag = np.random.default_rng(5).random(n - 1) * 10.0 ** np.linspace(-6, 6, n - 1)
    leaves = np.arange(n - 1)
    hub = np.full(n - 1, n - 1)
    rows = np.concatenate([leaves, hub, np.arange(n)])
    cols = np.concatenate([hub, leaves, np.arange(n)])
    diag = np.r_[mag, mag.sum()]
    A = CsrMatrix.from_coo(n, n, rows, cols, np.concatenate([-mag, -mag, diag]))
    _, (_, f_points, _), _ = assert_stages_match_oracle(A, 1e-9)
    assert f_points.tolist() == [n - 1]


def test_index_products_do_not_overflow():
    # n^2 > 2^31, so a key row * n + col formed from the int32 column
    # indices in int32 would wrap
    A = laplace_1d(50_000)
    assert A.col_idx.dtype == np.int32 and A.nrows**2 > 2**31
    H = build_hierarchy(A, theta=THETA)
    assert len(H.levels) > 2
    for fine in H.levels[:-1]:
        _, _, P = assert_stages_match_oracle(fine.A, THETA)
        assert_same_csr(P, fine.P)


def test_pins_cover_the_p2_p4_and_laplace_hierarchies():
    assert {name for name, _ in PINS} == {"cube3", "perturbed3", "laplace_1d"}
    assert all(len(levels) >= 2 for levels in PINS.values())
