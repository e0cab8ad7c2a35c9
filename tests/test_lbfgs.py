from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.linalg.blas import ddot

from mimo_precoding import lbfgs
from mimo_precoding.errors import NumericalFailureError


def quadratic(center):
    def vag(x):
        return -float(np.sum((x - center) ** 2)), -2.0 * (x - center)
    return vag


def evaluating(vag):
    """The engine's evaluate over a function that returns (f, g)."""
    def evaluate(x):
        f, g = vag(x)
        return f, lambda: g
    return evaluate


def recording(evaluate):
    """evaluate, and the points its grad() runs at, each kept before grad()
    runs so a grad that raises is counted too."""
    points = []

    def wrapped(x):
        f, grad = evaluate(x)
        return f, lambda: points.append(x) or grad()
    return wrapped, points


def rosenbrock(x):
    # The negated Rosenbrock function and its gradient; optimum at (1, 1).
    a, b = x
    f = -((1 - a) ** 2 + 100.0 * (b - a * a) ** 2)
    return f, np.array([2 * (1 - a) + 400.0 * a * (b - a * a), -200.0 * (b - a * a)])


U = 2.0**-53  # unit roundoff
ETA = 2.0**-1074  # twice the largest absolute error of an underflowing rounding


def exact_two_loop(g, pairs):
    """Two-loop recursion (Nocedal & Wright, Algorithm 7.4) in exact rational
    arithmetic on the same float inputs, rho included."""
    r = [Fraction(v) for v in g]
    exact = [([Fraction(v) for v in s], [Fraction(v) for v in y], Fraction(rho))
             for s, y, rho in pairs]
    alphas = []
    for s, y, rho in reversed(exact):
        a = rho * sum(si * ri for si, ri in zip(s, r))
        r = [ri - a * yi for ri, yi in zip(r, y)]
        alphas.append(a)
    s_last, y_last, _ = exact[-1]
    h = sum(si * yi for si, yi in zip(s_last, y_last)) / sum(yi * yi for yi in y_last)
    r = [h * ri for ri in r]
    for (s, y, rho), a in zip(exact, reversed(alphas)):
        b = rho * sum(yi * ri for yi, ri in zip(y, r))
        r = [ri + (a - b) * si for ri, si in zip(r, s)]
    return r


def two_loop_error_bound(g, pairs):
    """Componentwise bound on |computed - exact| for the floating-point two-loop.

    Each rounding is modeled as fl(x op y) = (x op y)(1 + d) + e with
    |d| <= u and |e| <= 2**-1075, the absolute e covering an underflow into
    the subnormal range. R is the recursion run on absolute values with every
    difference made a sum, so each intermediate's magnitude bounds it.
    Counting roundings the standard way (a dot product of n terms adds n, a
    product or a sum one, a product adds its operands' counts) the relative
    errors put the computed direction within gamma_K R of the exact one,
    gamma_K = K u / (1 - K u), where K = m (2n + 7) + 2n + 2: n + 3 per
    first-loop update r - a y (a = rho s.r, then the update, fused or not),
    2n + 2 for the scaling by (s.y)/(y.y) and n + 4 per second-loop update
    r + (a - b) s. E carries the absolute errors through the same recursion:
    each dot product adds n e, each other rounding one e, and the error of
    the scaling factor h = (s.y)/(y.y) is (1 + h) n e / (y.y) + e. R and E
    are themselves computed in floating point, so 2 K u R + 2 E bounds all.
    E is linear in e, and 2 E is E run at 2 e = 2**-1074 (ETA), since
    2**-1075 itself is not representable.
    """
    n, m = len(g), len(pairs)
    R, E = np.abs(g), np.zeros(n)
    alphas = []
    for s, y, rho in reversed(pairs):
        A = abs(rho) * (np.abs(s) @ R)
        EA = abs(rho) * (np.abs(s) @ E + n * ETA) + ETA
        R = R + A * np.abs(y)
        E = E + EA * np.abs(y) + ETA
        alphas.append((A, EA))
    s_last, y_last, _ = pairs[-1]
    yy = y_last @ y_last
    H = (np.abs(s_last) @ np.abs(y_last)) / yy
    EH = (1.0 + H) * n * ETA / yy + ETA
    R, E = H * R, H * E + EH * R + ETA
    for (s, y, rho), (A, EA) in zip(pairs, reversed(alphas)):
        B = abs(rho) * (np.abs(y) @ R)
        EB = abs(rho) * (np.abs(y) @ E + n * ETA) + ETA
        R = R + (A + B) * np.abs(s)
        E = E + (EA + EB + ETA) * np.abs(s) + ETA
    K = m * (2 * n + 7) + 2 * n + 2
    return 2.0 * K * U * R + E


def scaling(pairs):
    """gamma = s.y / y.y of the newest pair, the BLAS calls the engine makes
    when it stores the pair."""
    s, y, _ = pairs[-1]
    return ddot(s, y) / ddot(y, y)


def assert_within_bound(g, pairs):
    d = lbfgs._two_loop(g, pairs, scaling(pairs))
    bound = two_loop_error_bound(g, pairs)
    for got, want, b in zip(d.tolist(), exact_two_loop(g, pairs), bound.tolist()):
        assert abs(Fraction(got) - want) <= Fraction(b), (got, float(want), b)


class TestTwoLoop:
    @pytest.mark.parametrize("m", [1, 3, 10])
    def test_matches_exact_recursion(self, m):
        rng = np.random.default_rng(m)
        pairs = []
        for _ in range(m):
            s = rng.standard_normal(40)
            y = s + 0.3 * rng.standard_normal(40)
            pairs.append((s, y, 1.0 / float(s @ y)))
        g = rng.standard_normal(40)
        g_before = g.copy()
        assert_within_bound(g, pairs)
        np.testing.assert_array_equal(g, g_before)

    @settings(max_examples=300, deadline=None)
    # An underflowing direction: the scaling takes r into the subnormal range,
    # where the error is a subnormal ulp that no relative bound covers.
    @example(m=1, n=2, seed=0, exponents=[-108.0, -150.0, 51.0] + [0.0] * 18,
             orthogonal=False)
    @given(m=st.integers(1, 10), n=st.integers(2, 64), seed=st.integers(0, 2**32 - 1),
           exponents=st.lists(st.floats(-150.0, 150.0), min_size=21, max_size=21),
           orthogonal=st.booleans())
    def test_matches_exact_recursion_over_memory_and_magnitudes(
            self, m, n, seed, exponents, orthogonal):
        # g and every s and y get their own magnitude in [1e-150, 1e150]. With
        # orthogonal, the newest s and g have disjoint supports, so the first
        # multiplier of the recursion is exactly 0.
        rng = np.random.default_rng(seed)
        scale = iter(10.0 ** np.array(exponents))
        g = next(scale) * rng.standard_normal(n)
        pairs = []
        for _ in range(m):
            z = rng.standard_normal(n)
            s = next(scale) * z
            y = next(scale) * (z + 0.5 * rng.standard_normal(n))
            pairs.append((s, y, 1.0 / float(s @ y)))
        if orthogonal:
            g[: n // 2] = -0.0
            pairs[-1][0][n // 2:] = 0.0
            assert float(pairs[-1][0] @ g) == 0.0
        with np.errstate(all="ignore"):
            finite = (np.isfinite(lbfgs._two_loop(g, pairs, scaling(pairs))).all()
                      and np.isfinite(two_loop_error_bound(g, pairs)).all())
        assume(finite)
        assert_within_bound(g, pairs)

    def test_no_pairs_is_a_copy_of_the_gradient(self):
        g = np.arange(3.0)
        d = lbfgs._two_loop(g, [], 1.0)
        np.testing.assert_array_equal(d, g)
        assert d is not g


@pytest.mark.parametrize("g", [
    [3.0, -5.0, 1.0], [-0.0, -0.0], [0.0, -0.0], [0.0], [2.0, np.nan], [-np.inf, 1.0], [],
])
def test_inf_norm_is_max_abs_bitwise(g):
    g = np.array(g, dtype=float)
    expected = float(np.max(np.abs(g))) if g.size else 0.0
    assert np.float64(lbfgs._inf_norm(g)).tobytes() == np.float64(expected).tobytes()


class TestEngine:
    def test_converges_on_concave_quadratic(self):
        center = np.array([1.0, -2.0, 0.5])
        x, info = lbfgs.maximize(evaluating(quadratic(center)), np.zeros(3),
                                 max_iters=50, tol_grad=1e-10, tol_change=1e-12)
        assert np.linalg.norm(x - center) <= 1e-8
        assert info["termination"] == lbfgs.TERM_GRADIENT

    def test_monotone_history(self):
        rng = np.random.default_rng(0)
        A = rng.standard_normal((5, 5))
        Q = A @ A.T + np.eye(5)
        b = rng.standard_normal(5)

        def vag(x):
            return -float(x @ Q @ x) + float(b @ x), -2.0 * Q @ x + b

        _, info = lbfgs.maximize(evaluating(vag), np.zeros(5), max_iters=100,
                                 tol_grad=1e-9, tol_change=1e-12)
        values = [h.objective for h in info["history"]]
        assert all(v2 >= v1 for v1, v2 in zip(values, values[1:]))

    def test_rosenbrock_valley(self):
        x, info = lbfgs.maximize(evaluating(rosenbrock), np.array([-1.2, 1.0]), max_iters=200,
                                 tol_grad=1e-8, tol_change=1e-14)
        assert np.linalg.norm(x - 1.0) <= 1e-5

    def test_line_search_failure_returns_best_iterate(self):
        # A stub whose reported gradient points away from any increase: no step
        # can satisfy the sufficient-increase test.
        def vag(x):
            return -float(x[0]), np.array([1.0])

        x, info = lbfgs.maximize(evaluating(vag), np.array([0.5]), max_iters=10,
                                 tol_grad=1e-12, tol_change=1e-14)
        assert info["termination"] == lbfgs.TERM_LINE_SEARCH
        assert x[0] == 0.5

    @staticmethod
    def _failing_at_first_step(fail):
        """Ascent on -(x - 3)^2 from 0 whose grad() returns fail(g) in place
        of its gradient g at the first accepted step; returns evaluate and the
        points grad ran at."""
        calls = []

        def evaluate(x):
            def grad():
                calls.append(x.copy())
                g = np.array([-2.0 * (x[0] - 3.0)])
                return fail(g) if len(calls) == 2 else g
            return -float((x[0] - 3.0) ** 2), grad
        return evaluate, calls

    def _assert_returns_first_step(self, fail):
        # The run returns the first accepted step, and the history ends there
        # with a NaN gradient norm.
        evaluate, calls = self._failing_at_first_step(fail)
        x, info = lbfgs.maximize(evaluate, np.array([0.0]), max_iters=10, tol_grad=1e-12,
                                 tol_change=1e-14)
        assert info["termination"] == lbfgs.TERM_GRADIENT_FAILURE
        np.testing.assert_array_equal(x, calls[1])
        last = info["history"][-1]
        assert last.iteration == 1 and last.objective == -float((x[0] - 3.0) ** 2)
        assert np.isnan(last.grad_norm) and len(info["history"]) == len(calls) == 2
        assert info["n_grad_evals"] == 2

    @staticmethod
    def _raising(error):
        def fail(g):
            raise error("no gradient here")
        return fail

    def test_gradient_failure_returns_the_accepted_step(self):
        # The gradient raises a library error at the first accepted step; an
        # error of any other type still propagates.
        self._assert_returns_first_step(self._raising(NumericalFailureError))
        with pytest.raises(RuntimeError, match="no gradient"):
            lbfgs.maximize(self._failing_at_first_step(self._raising(RuntimeError))[0],
                           np.array([0.0]), max_iters=10, tol_grad=1e-12, tol_change=1e-14)

    # The gradient has a NaN or infinite entry and raises nothing: the engine
    # runs on to line-search-failure unless it tests the gradient itself.
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_gradient_returns_the_accepted_step(self, bad):
        self._assert_returns_first_step(lambda g: np.full_like(g, bad))

    def test_gradient_failure_at_the_start_propagates(self):
        # Whether evaluate itself or its grad fails at x0.
        def vag(x):
            raise NumericalFailureError("no gradient at x0")

        def evaluate(x):
            return 0.0, lambda: vag(x)

        for fn in (evaluating(vag), evaluate):
            with pytest.raises(NumericalFailureError, match="x0"):
                lbfgs.maximize(fn, np.array([0.0]), max_iters=10, tol_grad=1e-12,
                               tol_change=1e-14)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_gradient_at_the_start_raises(self, bad):
        def evaluate(x):
            return 0.0, lambda: np.array([1.0, bad, -2.0])

        with pytest.raises(NumericalFailureError, match="^gradient has non-finite entries$"):
            lbfgs.maximize(evaluate, np.zeros(3), max_iters=10, tol_grad=1e-12,
                           tol_change=1e-14)

    def test_change_tolerance_termination(self):
        # So flat that unit steps move the iterate by ~1e-20 while the gradient
        # stays far above tol_grad: only the change test can fire.
        def vag(x):
            return -1e-20 * float((x[0] - 2.0) ** 2), np.array([-2e-20 * (x[0] - 2.0)])

        x, info = lbfgs.maximize(evaluating(vag), np.array([0.0]),
                                 max_iters=100, tol_grad=1e-300, tol_change=1e-6)
        assert info["termination"] == lbfgs.TERM_CHANGE

    def test_max_iterations(self):
        _, info = lbfgs.maximize(evaluating(quadratic(np.array([3.0, 1.0]))), np.zeros(2),
                                 max_iters=1, tol_grad=1e-14, tol_change=1e-16)
        assert info["termination"] == lbfgs.TERM_MAX_ITERS
        assert len(info["history"]) == 2

    def test_history_numbers_every_accepted_iterate(self):
        evaluate, graded = recording(evaluating(quadratic(np.array([1.0]))))
        x, info = lbfgs.maximize(evaluate, np.zeros(1), max_iters=30, tol_grad=1e-10,
                                 tol_change=1e-12)
        assert [r.iteration for r in info["history"]] == list(range(len(graded)))
        assert graded[0][0] == 0.0 and graded[-1] is x

    def test_never_writes_into_a_handed_out_array(self):
        # The optimizer's grad closes over W, a view of the x handed to
        # evaluate: it relies on the engine calling grad only for the last
        # evaluate (the accepted trial) and never writing into an array it has
        # handed out. Rosenbrock makes the line search backtrack.
        handed = []  # (name, array, its bytes when handed out)

        def evaluate(x):
            handed.append(("evaluate", x, x.tobytes()))
            f, g = rosenbrock(x)

            def grad():
                handed.append(("grad", x, x.tobytes()))
                return g
            return f, grad

        _, info = lbfgs.maximize(evaluate, np.array([-1.2, 1.0]),
                                 max_iters=200, tol_grad=1e-8, tol_change=1e-14)
        assert info["n_value_evals"] > len(info["history"])  # some trials were rejected
        for name, x, before in handed:
            assert x.tobytes() == before, name
        for i, (name, x, _) in enumerate(handed):
            if name == "grad" and i:
                assert handed[i - 1][0] == "evaluate" and handed[i - 1][1] is x

    def test_grad_runs_once_per_accepted_step_never_at_a_rejected_trial(self):
        evaluated = []

        def evaluate(x):
            evaluated.append(x)
            f, g = rosenbrock(x)
            return f, lambda: g

        evaluate, graded = recording(evaluate)
        _, info = lbfgs.maximize(evaluate, np.array([-1.2, 1.0]), max_iters=30,
                                 tol_grad=1e-10, tol_change=1e-14)
        assert info["n_value_evals"] > len(info["history"])  # some trials were rejected
        assert len(evaluated) == info["n_value_evals"] + 1
        assert len(graded) == info["n_grad_evals"] == len(info["history"])
        # Each graded point is the accepted iterate of its record.
        assert [rosenbrock(x)[0] for x in graded] == [r.objective for r in info["history"]]

    @staticmethod
    def _misleading_past_two(x):
        """-(x - 3)^2 with its true gradient below x = 2 and +1 from there on:
        the first accepted step lands at 3, where no step along +1 rises."""
        return -float((x[0] - 3.0) ** 2), np.array([-2.0 * (x[0] - 3.0) if x[0] < 2.0 else 1.0])

    # Optimizer scores rely on it: one grad() per history record, whatever
    # ends the run, and the last one at the returned iterate.
    @pytest.mark.parametrize("termination", [
        lbfgs.TERM_GRADIENT, lbfgs.TERM_LINE_SEARCH, lbfgs.TERM_GRADIENT_FAILURE])
    def test_grad_runs_once_per_history_record(self, termination):
        evaluate = {
            lbfgs.TERM_GRADIENT: evaluating(quadratic(np.array([3.0, 1.0]))),
            lbfgs.TERM_LINE_SEARCH: evaluating(self._misleading_past_two),
            lbfgs.TERM_GRADIENT_FAILURE: self._failing_at_first_step(
                self._raising(NumericalFailureError))[0],
        }[termination]
        evaluate, graded = recording(evaluate)
        x0 = np.zeros(2 if termination == lbfgs.TERM_GRADIENT else 1)
        x, info = lbfgs.maximize(evaluate, x0, max_iters=50, tol_grad=1e-10, tol_change=1e-14)
        assert info["termination"] == termination
        assert len(graded) == info["n_grad_evals"] == len(info["history"]) >= 2
        assert graded[-1] is x

    @staticmethod
    def _guarded(error):
        """Ascent on -(x - 3)^2 from 0, whose evaluate raises `error` beyond
        |x| = 4: the first unit step lands at 6, the halved one at 3."""
        def vag(x):
            if abs(x[0]) > 4.0:
                raise error("outside the trusted region")
            return -float((x[0] - 3.0) ** 2), np.array([-2.0 * (x[0] - 3.0)])
        return evaluating(vag)

    def test_library_error_at_a_trial_rejects_it(self):
        x, info = lbfgs.maximize(self._guarded(NumericalFailureError), np.array([0.0]),
                                 max_iters=1, tol_grad=1e-12, tol_change=1e-14)
        assert info["n_value_evals"] == 2 and info["n_grad_evals"] == 2
        assert info["history"][1].step == lbfgs.BACKTRACK
        assert x[0] == 3.0

    def test_other_error_at_a_trial_propagates(self):
        with pytest.raises(RuntimeError, match="trusted region"):
            lbfgs.maximize(self._guarded(RuntimeError), np.array([0.0]), max_iters=1,
                           tol_grad=1e-12, tol_change=1e-14)
