import warnings

import numpy as np
import pytest
import scipy.sparse.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from auxmg.csr import CsrMatrix, spmv
from auxmg.krylov import IndefiniteOperatorError, SolverConfig, fgmres, minres, pcg
from auxmg.problems import poisson_setup
from auxmg.twolevel import TwoLevelPreconditioner


def _reference_gmres(A, M, b, x0, n_steps):
    """Textbook right-preconditioned GMRES; returns the iterate after
    each Arnoldi step (independent oracle for the flexible bookkeeping)."""
    x0 = np.array(x0, dtype=np.float64)
    r0 = b - A(x0)
    beta = np.linalg.norm(r0)
    V = [r0 / beta]
    H = np.zeros((n_steps + 1, n_steps))
    iterates = []
    for j in range(n_steps):
        w = A(M(V[j]))
        for i in range(j + 1):
            H[i, j] = V[i] @ w
            w = w - H[i, j] * V[i]
        H[j + 1, j] = np.linalg.norm(w)
        V.append(w / H[j + 1, j])
        e1 = np.zeros(j + 2)
        e1[0] = beta
        y, *_ = np.linalg.lstsq(H[: j + 2, : j + 1], e1, rcond=None)
        u = sum(yi * vi for yi, vi in zip(y, V[: j + 1]))
        iterates.append(x0 + M(u))
    return iterates


def _counting(A, fault_call=None):
    """spmv with A as a callable that counts its calls, returning NaN on
    call number ``fault_call``."""
    calls = []

    def op(v):
        calls.append(None)
        y = spmv(A, v)
        return y * np.nan if len(calls) == fault_call else y

    return op, calls


class TestPcg:
    def test_identity_one_iteration(self):
        x, rep = pcg(CsrMatrix.identity(4), None, np.array([1.0, -2.0, 3.0, 0.5]))
        assert rep.converged and rep.iterations == 1

    def test_finite_termination_diagonal(self):
        A = CsrMatrix.from_dense(np.diag([1.0, 2.0, 3.0]))
        b = np.array([1.0, 1.0, 1.0])
        x, rep = pcg(A, None, b, SolverConfig(method="cg", rel_tol=1e-12))
        assert rep.converged and rep.iterations <= 3
        assert np.allclose(x, b / np.array([1.0, 2.0, 3.0]), atol=1e-12)

    def test_poisson_with_jacobi_monotone_energy_error(self):
        # the cap only forms a true residual, so the solve capped at j
        # iterations returns the j-th iterate of the uncapped one
        prob = poisson_setup(2, 2)
        A = prob.system.A
        rng = np.random.default_rng(0)
        b = rng.standard_normal(A.nrows)
        x_star = np.linalg.solve(A.to_dense(), b)  # dense oracle
        dinv = 1.0 / A.diagonal()
        errors = []
        for j in range(1, A.nrows + 1):
            x, rep = pcg(A, lambda r: dinv * r, b, SolverConfig(method="cg", rel_tol=1e-10, max_iters=j))
            e = x - x_star
            errors.append(np.sqrt(e @ spmv(A, e)))
            if rep.converged:
                break
        assert rep.converged and len(errors) > 1
        assert np.all(np.diff(errors) <= 1e-12)

    def test_breakdown_flags_indefinite(self):
        A = CsrMatrix.from_dense([[1.0, 0.0], [0.0, -1.0]])
        with pytest.raises(IndefiniteOperatorError):
            pcg(A, None, np.array([0.0, 1.0]))

    def test_converged_report_is_consistent(self):
        prob = poisson_setup(2, 2)
        A = prob.system.A
        rng = np.random.default_rng(1)
        b = rng.standard_normal(A.nrows)
        x, rep = pcg(A, None, b, SolverConfig(method="cg", rel_tol=1e-8, max_iters=400))
        assert rep.converged
        assert len(rep.residual_history) == rep.iterations + 1
        assert np.linalg.norm(b - spmv(A, x)) / np.linalg.norm(b) <= 1e-8


class TestMinres:
    def test_indefinite_2x2(self):
        A = CsrMatrix.from_dense([[0.0, 1.0], [1.0, 0.0]])
        x, rep = minres(A, None, np.array([1.0, 0.0]), SolverConfig(method="minres", rel_tol=1e-12))
        assert rep.converged and rep.iterations <= 2
        assert np.allclose(x, [0.0, 1.0], atol=1e-12)

    def test_spd_residuals_nonincreasing(self):
        prob = poisson_setup(2, 2)
        A = prob.system.A
        rng = np.random.default_rng(2)
        b = rng.standard_normal(A.nrows)
        x, rep = minres(A, None, b, SolverConfig(method="minres", rel_tol=1e-10, max_iters=300))
        assert rep.converged
        # with M = I the minimised M-norm is the true norm
        assert np.all(np.diff(rep.residual_history) <= 1e-12)

    def test_preconditioned_history_nonincreasing(self):
        prob = poisson_setup(2, 1)
        A = prob.system.A
        dinv = 1.0 / A.diagonal()
        rng = np.random.default_rng(3)
        b = rng.standard_normal(A.nrows)
        x, rep = minres(A, lambda r: dinv * r, b, SolverConfig(method="minres", rel_tol=1e-10))
        assert rep.converged
        assert np.all(np.diff(rep.precond_residual_history) <= 1e-12)

    def test_rejects_indefinite_preconditioner(self):
        A = CsrMatrix.from_dense([[2.0, 0.0], [0.0, 2.0]])
        M = lambda r: np.array([r[0], -r[1]])
        with pytest.raises(IndefiniteOperatorError):
            minres(A, M, np.array([1.0, 1.0]))

    def test_stops_when_the_lanczos_vector_vanishes(self):
        # the zero operator gives beta = 0 after one step; the true
        # residual, not a 0/0 Lanczos vector, ends the solve
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            x, rep = minres(CsrMatrix.from_dense(np.zeros((3, 3))), None, np.ones(3))
            assert not rep.converged and rep.iterations == 1
            assert rep.residual_history[-1] == 1.0
            # a singular operator with b in its range still converges
            A = CsrMatrix.from_dense(np.diag([1.0, 2.0, 0.0]))
            x, rep = minres(A, None, np.array([1.0, 1.0, 0.0]))
            assert rep.converged
            assert np.allclose(x, [1.0, 0.5, 0.0])

    def test_matches_scipy_on_saddle_like_system(self):
        rng = np.random.default_rng(4)
        B = rng.standard_normal((8, 8))
        A = CsrMatrix.from_dense(B + B.T)  # symmetric indefinite
        b = rng.standard_normal(8)
        x, rep = minres(A, None, b, SolverConfig(method="minres", rel_tol=1e-10, max_iters=100))
        x_sp, info = scipy.sparse.linalg.minres(A.to_scipy(), b, rtol=1e-12)
        assert rep.converged
        assert np.linalg.norm(x - x_sp) <= 1e-6 * np.linalg.norm(x_sp)


class TestFgmres:
    def test_exact_preconditioner_one_iteration(self):
        prob = poisson_setup(2, 1)
        A = prob.system.A
        Ainv = np.linalg.inv(A.to_dense())
        rng = np.random.default_rng(5)
        b = rng.standard_normal(A.nrows)
        x, rep = fgmres(A, lambda r: Ainv @ r, b)
        assert rep.converged and rep.iterations == 1

    def test_identity_one_iteration(self):
        x, rep = fgmres(CsrMatrix.identity(5), None, np.ones(5))
        assert rep.converged and rep.iterations == 1

    def test_gamg_preconditioned_poisson(self):
        prob = poisson_setup(2, 2)
        A, P = prob.system.A, prob.prolongation_int
        M = TwoLevelPreconditioner(A, P, coarse="amg", presmooth=True)
        rng = np.random.default_rng(6)
        x0 = rng.standard_normal(A.nrows)
        x, rep = fgmres(A, M, np.zeros(A.nrows), SolverConfig(rel_tol=1e-6), x0=x0)
        assert rep.converged and rep.iterations <= 20

    def test_zero_rhs_uses_initial_residual(self):
        prob = poisson_setup(2, 1)
        A = prob.system.A
        rng = np.random.default_rng(7)
        x0 = rng.standard_normal(A.nrows)
        x, rep = fgmres(A, None, np.zeros(A.nrows), SolverConfig(rel_tol=1e-6, max_iters=200), x0=x0)
        assert rep.converged
        assert rep.residual_history[0] == 1.0
        r0 = np.linalg.norm(spmv(A, x0))
        assert np.linalg.norm(spmv(A, x)) <= 1e-6 * r0

    def test_stagnation_reports_nonconverged(self):
        A = CsrMatrix.from_dense(np.diag([1.0, 0.0]))  # singular, inconsistent rhs
        b = np.array([0.0, 1.0])
        x, rep = fgmres(A, None, b, SolverConfig(rel_tol=1e-12, max_iters=50, restart=5))
        assert not rep.converged
        assert rep.iterations < 50

    def test_restart_still_converges(self):
        prob = poisson_setup(2, 2)
        A = prob.system.A
        rng = np.random.default_rng(8)
        b = rng.standard_normal(A.nrows)
        x, rep = fgmres(A, None, b, SolverConfig(rel_tol=1e-8, max_iters=400, restart=5))
        assert rep.converged
        assert np.linalg.norm(b - spmv(A, x)) / np.linalg.norm(b) <= 1e-8

    def test_fixed_preconditioner_matches_plain_gmres(self):
        prob = poisson_setup(2, 2)
        A = prob.system.A
        dinv = 1.0 / A.diagonal()
        M = lambda r: dinv * r
        rng = np.random.default_rng(9)
        b = rng.standard_normal(A.nrows)
        x0 = np.zeros(A.nrows)
        refs = _reference_gmres(lambda v: spmv(A, v), M, b, x0, 5)
        for j, x_ref in enumerate(refs, start=1):
            x_j, rep = fgmres(A, M, b, SolverConfig(rel_tol=1e-30, max_iters=j, restart=100))
            assert rep.iterations == j
            assert np.max(np.abs(x_j - x_ref)) <= 1e-12 * max(1.0, np.max(np.abs(x_ref)))

    def test_restart_reuses_checked_residual(self):
        # each restart starts from the true residual formed at its cycle's
        # end: 1 (r0) + 8 Arnoldi products + 3 cycle-end true residuals
        # (after iterations 3 and 6, and at the cap), and no apply at a
        # restart; x and the history are pinned
        from tests.test_setup_pins import digest

        prob = poisson_setup(2, 3)
        A = prob.system.A
        M = TwoLevelPreconditioner(A, prob.prolongation_int)
        op, calls = _counting(A)
        x0 = np.random.default_rng(5).standard_normal(A.nrows)
        cfg = SolverConfig(rel_tol=1e-30, max_iters=8, restart=3)
        x, rep = fgmres(op, M, np.zeros(A.nrows), cfg, x0=x0)
        assert rep.iterations == 8 and len(calls) == 12
        assert (digest(x), digest(rep.residual_history)) == ("a0ccc3a6fc102d38", "6836d1ac7a77c1d5")

    def test_deterministic(self):
        prob = poisson_setup(2, 2)
        A = prob.system.A
        rng = np.random.default_rng(10)
        b = rng.standard_normal(A.nrows)
        _, rep1 = fgmres(A, None, b, SolverConfig(rel_tol=1e-8))
        _, rep2 = fgmres(A, None, b, SolverConfig(rel_tol=1e-8))
        assert np.array_equal(rep1.residual_history, rep2.residual_history)


class TestPostHocResiduals:
    def test_all_converged_reports_verify_independently(self):
        # every solver's convergence claim is re-checked from scratch
        prob = poisson_setup(2, 2)
        A = prob.system.A
        rng = np.random.default_rng(11)
        b = rng.standard_normal(A.nrows)
        tol = 1e-8
        runs = [
            pcg(A, None, b, SolverConfig(method="cg", rel_tol=tol, max_iters=400)),
            minres(A, None, b, SolverConfig(method="minres", rel_tol=tol, max_iters=400)),
            fgmres(A, None, b, SolverConfig(method="fgmres", rel_tol=tol, max_iters=400)),
        ]
        for x, rep in runs:
            assert rep.converged
            assert np.linalg.norm(b - spmv(A, x)) / np.linalg.norm(b) <= tol
            assert rep.residual_history[-1] <= tol
            assert len(rep.residual_history) == rep.iterations + 1


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(rel_tol=0.0)
        with pytest.raises(ValueError):
            SolverConfig(restart=0)
        for field, bad in [("rel_tol", float("nan")), ("rel_tol", float("inf")), ("rel_tol", -1e-6), ("rel_tol", True),
                           ("max_iters", -3), ("max_iters", 2.5),
                           ("max_iters", True), ("restart", 2.5), ("restart", -1), ("restart", True)]:
            with pytest.raises(ValueError, match=f"^{field} "):
                SolverConfig(**{field: bad})
        SolverConfig(rel_tol=1e-30, max_iters=0, restart=1)

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError, match="'gmres'"):
            SolverConfig(method="gmres")

    @pytest.mark.parametrize("solver", [pcg, minres, fgmres])
    def test_non_operator_rejected(self, solver):
        with pytest.raises(TypeError, match="^cannot interpret str as a linear operator$"):
            solver("A", None, np.ones(3))


class TestNonFiniteInput:
    @pytest.mark.parametrize("solver", [pcg, minres, fgmres])
    @pytest.mark.parametrize("precond", ["none", "two_level"])
    @pytest.mark.parametrize("name", ["b", "x0"])
    def test_fails_fast_naming_the_input(self, solver, precond, name):
        prob = poisson_setup(2, 2)
        A, P = prob.system.A, prob.prolongation_int
        M = None if precond == "none" else TwoLevelPreconditioner(A, P, coarse="amg", presmooth=True)
        rng = np.random.default_rng(10)
        data = {"b": rng.standard_normal(A.nrows), "x0": rng.standard_normal(A.nrows)}
        data[name][3] = np.nan if name == "x0" else np.inf
        with pytest.raises(ValueError, match=rf"^{name} has a non-finite entry at index 3"):
            solver(A, M, data["b"], x0=data["x0"])


# row and column 0 are empty, so b - A x never reads x[0]: pcg overflows
# it to -inf by iterate 27 while the true residual stays finite
SINGULAR_OVERFLOW = (np.diag([0.0, 1.0, 1e-8]),
                     np.array([-0.7890821429889331, -0.6796124798765063, 2.2866065968725455]),
                     np.array([0.32904314158974246, -0.8342958063087723, 0.020519368219285513]),
                     False, {"rel_tol": 1.8523078160368703e-05, "max_iters": 27, "restart": 1})


# p'Ap overflows to inf at iterate 22 while r stays finite, so alpha = 0
# would stall the solve with only an overflow warning
CURVATURE_OVERFLOW = (np.array([[0.0, 0.0, 0.0],
                                [0.0, 2.9511677784816555e+04, 6.8000991791216929e+00],
                                [0.0, 6.8000991791216929e+00, 9.0154890725862965e+07]]),
                      np.array([-5.1141590956695727e+04, 8.8117899251900389e-02, -1.8086466831408913e-02]),
                      None, False, {"rel_tol": 0.5, "max_iters": 22, "restart": 1})


class TestNonFiniteResidual:
    @pytest.mark.parametrize("solver", [pcg, minres, fgmres])
    @pytest.mark.parametrize("fault", ["M_nan", "M_inf", "A_nan_third_call"])
    def test_fails_fast_naming_the_iterate(self, solver, fault):
        # with x0 = None no product forms r0, so the operator's third call
        # is the product of iteration 3
        iterate = 3 if fault == "A_nan_third_call" else 1
        A = poisson_setup(2, 2).system.A
        b = np.random.default_rng(0).standard_normal(A.nrows)
        op, M = {
            "M_nan": (A, lambda v: v * np.nan),
            "M_inf": (A, lambda v: v * np.inf),
            "A_nan_third_call": (_counting(A, fault_call=3)[0], None),
        }[fault]
        with np.errstate(invalid="ignore"), pytest.raises(FloatingPointError, match=f"iterate {iterate}"):
            solver(op, M, b)

    @pytest.mark.parametrize("solver", [pcg, minres, fgmres])
    def test_nan_in_a_recurrence_step_is_not_taken_for_convergence(self, solver):
        # with x0 given, call 1 forms r0 and call 2 is the product of
        # iteration 1, which reaches only the recurrence residual: its NaN
        # must raise before a comparison with rel_tol can read it as met
        A = poisson_setup(2, 2).system.A
        rng = np.random.default_rng(0)
        b, x0 = rng.standard_normal(A.nrows), rng.standard_normal(A.nrows)
        op, _ = _counting(A, fault_call=2)
        with np.errstate(invalid="ignore"), pytest.raises(FloatingPointError, match="^non-finite residual at iterate 1:"):
            solver(op, None, b, x0=x0)

    def test_overflowing_curvature_fails_fast(self):
        dense, b, x0, _, cfg = CURVATURE_OVERFLOW
        with np.errstate(over="ignore"), pytest.raises(FloatingPointError, match="^non-finite curvature p'Ap at iterate "):
            pcg(CsrMatrix.from_dense(dense), None, b, SolverConfig(method="cg", **cfg), x0=x0)

    def test_non_finite_iterate_with_a_finite_true_residual(self):
        dense, b, x0, _, cfg = SINGULAR_OVERFLOW
        with np.errstate(over="ignore"), pytest.raises(FloatingPointError, match="^non-finite iterate 27: entry 0 "):
            pcg(CsrMatrix.from_dense(dense), None, b, SolverConfig(method="cg", **cfg), x0=x0)


@st.composite
def krylov_problems(draw):
    """A random symmetric system and solver settings: SPD (diagonally
    dominant), indefinite, SPD with one empty row and column, or zero, its
    entries, b and x0 of magnitude 1e-8 to 1e8, b sometimes zero, x0 None
    or random, and M None or Jacobi on the nonzero diagonal."""
    n = draw(st.integers(1, 12))
    kind = draw(st.sampled_from(["spd", "indefinite", "empty_row", "zero"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def magnitudes(shape):
        return rng.choice([-1.0, 1.0], shape) * 10.0 ** rng.uniform(-8, 8, shape)

    off = np.triu(magnitudes((n, n)) * (rng.random((n, n)) < draw(st.floats(0, 1))), 1)
    off += off.T
    if kind == "indefinite":
        dense = off + np.diag(magnitudes(n))
    else:
        dense = off + np.diag(np.abs(off).sum(axis=1) + np.abs(magnitudes(n)))
    if kind == "empty_row":
        i = rng.integers(n)
        dense[i, :] = dense[:, i] = 0.0
    if kind == "zero":
        dense[:] = 0.0
    b = np.zeros(n) if draw(st.booleans()) else magnitudes(n)
    x0 = magnitudes(n) if draw(st.booleans()) else None
    cfg = {"rel_tol": draw(st.floats(1e-14, 0.5)), "max_iters": draw(st.integers(0, 40)),
           "restart": draw(st.integers(1, 8))}
    return dense, b, x0, draw(st.booleans()), cfg


# b has a component outside the range of A, so no iterate converges;
# without the best-iterate rule MINRES ends at a true relative residual of
# 7.05 with |x| = 1.4e18, and FGMRES at 2.52
SINGULAR_INCONSISTENT = (np.diag([1.0, 2.0, 0.0]), np.ones(3), None, False,
                         {"rel_tol": 1e-6, "max_iters": 500, "restart": 100})


class TestErrorContract:
    @settings(max_examples=300, deadline=None)
    @given(problem=krylov_problems())
    @example(problem=SINGULAR_OVERFLOW)
    @example(problem=CURVATURE_OVERFLOW)
    @example(problem=SINGULAR_INCONSISTENT)
    def test_finite_iterate_or_a_typed_error(self, problem):
        # any other exception, or a non-finite x, fails; a RuntimeWarning
        # (an overflow) may come only before a FloatingPointError; MINRES
        # and FGMRES, which minimise a residual, never return a report
        # whose last true residual is above its first
        dense, b, x0, jacobi, cfg = problem
        A = CsrMatrix.from_dense(dense)
        d = np.diag(dense)
        dinv = np.divide(1.0, d, out=np.ones_like(d), where=d != 0.0)
        M = (lambda r: dinv * r) if jacobi else None
        for method, solver in (("cg", pcg), ("minres", minres), ("fgmres", fgmres)):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always", RuntimeWarning)
                try:
                    x, rep = solver(A, M, b, SolverConfig(method=method, **cfg), x0=x0)
                except FloatingPointError:
                    continue
                except (ValueError, IndefiniteOperatorError, np.linalg.LinAlgError):
                    pass
                else:
                    assert np.isfinite(x).all(), f"{method} returned {x}"
                    h = rep.residual_history
                    assert method == "cg" or h[-1] <= h[0], f"{method} ended at {h[-1]} from {h[0]}"
            assert not [w for w in caught if issubclass(w.category, RuntimeWarning)], method


class TestBestIterate:
    @pytest.mark.parametrize("given_x0", [False, True])
    @pytest.mark.parametrize("solver", [minres, fgmres])
    def test_singular_inconsistent_system_returns_the_best_known_iterate(self, solver, given_x0):
        # the only true residuals formed are x0's and the last iterate's,
        # which is worse, so the solve hands back x0 and a report of it
        dense, b, _, _, cfg = SINGULAR_INCONSISTENT
        A = CsrMatrix.from_dense(dense)
        x0 = np.array([0.5, 0.1, 3.0]) if given_x0 else None
        x, rep = solver(A, None, b, SolverConfig(method=solver.__name__, **cfg), x0=x0)
        assert not rep.converged
        assert np.array_equal(x, np.zeros(3) if x0 is None else x0) and x is not x0
        assert rep.iterations == 0 and len(rep.residual_history) == 1
        assert rep.residual_history[-1] == np.linalg.norm(b - spmv(A, x)) / np.linalg.norm(b)
        if solver is minres:
            assert len(rep.precond_residual_history) == 1

    @pytest.mark.parametrize("solver", [minres, fgmres])
    def test_best_iterate_after_the_first(self, solver):
        # call 1 is iteration 1's product; call 2 forms iterate 1's true
        # residual with A scaled by 1.6 (0.67, above rel_tol but below x0's
        # 1.0); every later call flips A's sign, so later iterates are far
        # worse and the solve returns iterate 1, kept as a copy that the
        # in-place updates after it have not touched
        A = CsrMatrix.from_dense(np.diag([1.0, 2.0, 3.0]))
        b = np.ones(3)
        calls = []

        def op(v):
            calls.append(None)
            return spmv(A, v) * {1: 1.0, 2: 1.6}.get(len(calls), -1.0)

        cfg = SolverConfig(method=solver.__name__, rel_tol=0.5, max_iters=4, restart=1)
        x, rep = solver(op, None, b, cfg)
        assert len(calls) > 2 and not rep.converged and rep.iterations == 1
        assert rep.residual_history[-1] == np.linalg.norm(b - 1.6 * spmv(A, x)) / np.linalg.norm(b)
        ref, _ = solver(A, None, b, SolverConfig(method=solver.__name__, rel_tol=1e-30, max_iters=1, restart=1))
        assert np.array_equal(x, ref)
        if solver is minres:
            assert len(rep.precond_residual_history) == 2


class TestOperatorBudget:
    # one product per iteration, plus r0 when x0 is given, plus one true
    # residual at the exit and, for FGMRES, one at the end of every earlier
    # cycle; rel_tol = 1e-8 is far above the attainable accuracy here, so no
    # recurrence value meets it before its true residual does
    @pytest.mark.parametrize("given_x0", [False, True])
    @pytest.mark.parametrize("method, restart", [("cg", 100), ("minres", 100), ("fgmres", 100), ("fgmres", 3)])
    def test_applies_per_solve(self, method, restart, given_x0):
        solver = {"cg": pcg, "minres": minres, "fgmres": fgmres}[method]
        prob = poisson_setup(2, 2)
        A = prob.system.A
        dinv = 1.0 / A.diagonal()
        m_calls = []

        def M(r):
            m_calls.append(None)
            return dinv * r

        op, a_calls = _counting(A)
        rng = np.random.default_rng(12)
        b = rng.standard_normal(A.nrows)
        x0 = rng.standard_normal(A.nrows) if given_x0 else None
        cfg = SolverConfig(method=method, rel_tol=1e-8, max_iters=400, restart=restart)
        x, rep = solver(op, M, b, cfg, x0=x0)
        assert rep.converged
        cycles = -(-rep.iterations // restart)
        assert len(a_calls) == rep.iterations + given_x0 + cycles
        assert len(m_calls) == rep.iterations + (method == "minres")


class TestResidualReplacement:
    @pytest.mark.parametrize("method, solver", [("cg", pcg), ("minres", minres)])
    def test_stops_only_on_a_true_residual(self, method, solver):
        # kappa = 1e6 and b near the lowest eigenvector put the attainable
        # true residual near 1e-10, while the recurrence keeps falling: it
        # meets rel_tol = 1e-12 first, and the true residual formed there
        # must replace it rather than end the solve
        rng = np.random.default_rng(0)
        n = 20
        Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        dense = (Q * np.logspace(0, 6, n)) @ Q.T
        A = CsrMatrix.from_dense((dense + dense.T) / 2)
        b = Q[:, 0] + 1e-3 * rng.standard_normal(n)
        tol = 1e-12
        op, calls = _counting(A)
        x, rep = solver(op, None, b, SolverConfig(method=method, rel_tol=tol, max_iters=200))
        true = np.linalg.norm(b - spmv(A, x)) / np.linalg.norm(b)
        assert len(calls) >= rep.iterations + 2  # a replacement, then the exit
        assert true <= tol or not rep.converged
        assert rep.residual_history[-1] == true
