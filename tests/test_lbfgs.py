import numpy as np
import pytest

from mimo_precoding import lbfgs


def quadratic(center):
    def vag(x):
        return -float(np.sum((x - center) ** 2)), -2.0 * (x - center)
    return vag


def reference_two_loop(g, pairs):
    """Two-loop recursion (Nocedal & Wright, Algorithm 7.4) with a fresh array
    for every intermediate vector."""
    q = g.copy()
    alphas = []
    for s, y, rho in reversed(pairs):
        a = rho * float(s @ q)
        q = q - a * y
        alphas.append(a)
    s_last, y_last, _ = pairs[-1]
    r = (float(s_last @ y_last) / float(y_last @ y_last)) * q
    for (s, y, rho), a in zip(pairs, reversed(alphas)):
        b = rho * float(y @ r)
        r = r + s * (a - b)
    return r


class TestTwoLoop:
    @pytest.mark.parametrize("m", [1, 3, 10])
    def test_matches_reference_bitwise(self, m):
        rng = np.random.default_rng(m)
        pairs = []
        for _ in range(m):
            s = rng.standard_normal(40)
            y = s + 0.3 * rng.standard_normal(40)
            pairs.append((s, y, 1.0 / float(s @ y)))
        g = rng.standard_normal(40)
        g_before = g.copy()
        np.testing.assert_array_equal(lbfgs._two_loop(g, pairs), reference_two_loop(g, pairs))
        np.testing.assert_array_equal(g, g_before)

    def test_no_pairs_is_a_copy_of_the_gradient(self):
        g = np.arange(3.0)
        d = lbfgs._two_loop(g, [])
        np.testing.assert_array_equal(d, g)
        assert d is not g


class TestEngine:
    def test_converges_on_concave_quadratic(self):
        center = np.array([1.0, -2.0, 0.5])
        x, info = lbfgs.maximize(quadratic(center), np.zeros(3),
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

        _, info = lbfgs.maximize(vag, np.zeros(5), max_iters=100,
                                 tol_grad=1e-9, tol_change=1e-12)
        values = [h.value for h in info["history"]]
        assert all(v2 >= v1 for v1, v2 in zip(values, values[1:]))

    def test_rosenbrock_valley(self):
        # Maximize the negated Rosenbrock function; optimum at (1, 1).
        def vag(x):
            a, b = x
            f = -((1 - a) ** 2 + 100.0 * (b - a * a) ** 2)
            g = np.array([2 * (1 - a) + 400.0 * a * (b - a * a),
                          -200.0 * (b - a * a)])
            return f, g

        x, info = lbfgs.maximize(vag, np.array([-1.2, 1.0]), max_iters=200,
                                 tol_grad=1e-8, tol_change=1e-14)
        assert np.linalg.norm(x - 1.0) <= 1e-5

    def test_line_search_failure_returns_best_iterate(self):
        # A stub whose reported gradient points away from any increase: no step
        # can satisfy the sufficient-increase test.
        def vag(x):
            return -float(x[0]), np.array([1.0])

        x, info = lbfgs.maximize(vag, np.array([0.5]), max_iters=10,
                                 tol_grad=1e-12, tol_change=1e-14)
        assert info["termination"] == lbfgs.TERM_LINE_SEARCH
        assert x[0] == 0.5

    def test_change_tolerance_termination(self):
        # So flat that unit steps move the iterate by ~1e-20 while the gradient
        # stays far above tol_grad: only the change test can fire.
        def vag(x):
            return -1e-20 * float((x[0] - 2.0) ** 2), np.array([-2e-20 * (x[0] - 2.0)])

        x, info = lbfgs.maximize(vag, np.array([0.0]),
                                 max_iters=100, tol_grad=1e-300, tol_change=1e-6)
        assert info["termination"] == lbfgs.TERM_CHANGE

    def test_max_iterations(self):
        _, info = lbfgs.maximize(quadratic(np.array([3.0, 1.0])), np.zeros(2),
                                 max_iters=1, tol_grad=1e-14, tol_change=1e-16)
        assert info["termination"] == lbfgs.TERM_MAX_ITERS
        assert len(info["history"]) == 2

    def test_callback_sees_every_accepted_iterate(self):
        seen = []
        lbfgs.maximize(quadratic(np.array([1.0])), np.zeros(1), max_iters=30,
                       tol_grad=1e-10, tol_change=1e-12,
                       callback=lambda i, x, f, gn, step: seen.append(i))
        assert seen[0] == 0
        assert seen == list(range(len(seen)))

    def test_separate_value_path_used_in_line_search(self):
        calls = {"value": 0, "vag": 0}

        def value(x):
            calls["value"] += 1
            return -float(np.sum(x**2))

        def vag(x):
            calls["vag"] += 1
            return -float(np.sum(x**2)), -2.0 * x

        lbfgs.maximize(vag, np.ones(2), max_iters=20, tol_grad=1e-10,
                       tol_change=1e-12, value=value)
        assert calls["value"] >= 1
