import dataclasses
import math
import os
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mimo_precoding import (
    CustomObjective,
    ObjectiveSpec,
    OptimizerConfig,
    ScenarioConfig,
    SystemDims,
    generate_channels,
    gradient,
    lbfgs_maximize,
    objective,
    project,
    se_conjugate,
    softmax_maximize,
    spectral_efficiency_irc,
)
from mimo_precoding.errors import (
    ConfigError, DimensionError, InfiniteSusinrError, NumericalFailureError, UndefinedSinrError,
)
from mimo_precoding import lbfgs, optimizer
from mimo_precoding.optimizer import _projection, _ProjectionParam, _Softmax
from mimo_precoding.quality import PrecodingMatrix, row_power

from conftest import (
    calibrated_params, complex_randn, embed, fd_gradient, mixed_rows_precoder, random_channel,
)


def cd_spec(seed=0, K=2, T=8, R=2, L=1, susinr_db=10.0):
    ch = random_channel(seed, K=K, T=T, R=R, L=L)
    return ObjectiveSpec(kind="cd", channel=ch, params=calibrated_params(ch, susinr_db))


def irc_spec(seed=0, K=2, T=8, R=2, L=1, susinr_db=10.0):
    ch = random_channel(seed, K=K, T=T, R=R, L=L)
    return ObjectiveSpec(kind="irc", channel=ch, params=calibrated_params(ch, susinr_db))


def reference_cd_gradient(Wp, channel, params):
    """The CD ascent gradient at the projected point Wp, formed from scratch
    and independently of cd_forward's cache."""
    Vt = channel.V_tilde
    s = channel.S_tilde
    A = Vt @ Wp                                    # (L, L), entry (l, i) = v_l w_i
    power = np.abs(A) ** 2
    noise = params.sigma2 / (params.P * s**2)
    off_power = power.copy()
    np.fill_diagonal(off_power, 0.0)
    totals = power.sum(axis=1) + noise
    rest = off_power.sum(axis=1) + noise
    A_off = A.copy()
    np.fill_diagonal(A_off, 0.0)
    M = A / totals[:, None] - A_off / rest[:, None]
    return (2.0 / math.log(2.0)) * (Vt.conj().T @ M)


def ragged_cd_spec(seed, susinr_db=10.0):
    dims = SystemDims(K=3, T=8, R_k=(2, 4, 3), L_k=(1, 2, 3))
    ch = generate_channels(dims, seed=seed)
    return ObjectiveSpec(kind="cd", channel=ch, params=calibrated_params(ch, susinr_db))


class TestProject:
    def test_zero_unchanged(self):
        W = np.zeros((3, 2), dtype=complex)
        np.testing.assert_array_equal(project(W), W)

    def test_boundary_row_untouched(self):
        W = np.zeros((4, 2), dtype=complex)
        W[0, 0] = 0.5  # row power exactly 1/T = 0.25, representable exactly
        out = project(W)
        np.testing.assert_array_equal(out, W)

    def test_overweight_row_rescaled(self):
        W = np.array([[2.0, 0.0], [0.1, 0.1]], dtype=complex)
        out = project(W)  # cap = 1/2
        np.testing.assert_allclose(out[0], [np.sqrt(0.5), 0.0], atol=1e-15)
        np.testing.assert_array_equal(out[1], W[1])

    def test_zero_row_unchanged_without_warnings(self):
        W = 0.1 * complex_randn(np.random.default_rng(5), (6, 2))  # rows inside cap 1/6
        W[2] = 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = project(W)
        np.testing.assert_array_equal(out, W)

    def test_zero_row_beside_exterior_rows_warns_nothing(self):
        W = 3.0 * complex_randn(np.random.default_rng(6), (6, 2))  # rows outside
        W[4] = 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = project(W)
        np.testing.assert_array_equal(out[4], 0.0)
        assert np.all(np.einsum("ml,ml->m", out, out.conj()).real <= 1.0 / 6)

    def test_idempotent_bitwise(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            W = 3.0 * complex_randn(rng, (8, 3))
            once = project(W)
            twice = project(once)
            np.testing.assert_array_equal(once, twice)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_idempotent_and_feasible_over_shapes_and_scales(self, data):
        T = data.draw(st.integers(1, 12), label="T")
        L = data.draw(st.integers(1, 4), label="L")
        # Per-row scale 10^e with e in [-6, 6], or an all-zero row.
        scales = data.draw(st.lists(
            st.one_of(st.just(0.0), st.floats(-6.0, 6.0).map(lambda e: 10.0**e)),
            min_size=T, max_size=T), label="row scales")
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        W = complex_randn(np.random.default_rng(seed), (T, L)) * np.array(scales)[:, None]
        once = project(W)
        assert once.tobytes() == project(once).tobytes()
        interleaved = once.view(np.float64)
        assert np.all(np.einsum("ml,ml->m", interleaved, interleaved) <= 1.0 / T)
        np.testing.assert_array_equal(once[np.array(scales) == 0.0], 0.0)


def exterior_precoder(rng, T=64, L=16):
    """Random (T, L) precoder whose every row has 1 to 33 times the ball's
    radius, as the engine's iterates do."""
    W = complex_randn(rng, (T, L))
    W /= np.sqrt(row_power(W))[:, None]
    return W * (np.sqrt(1.0 / T) * rng.uniform(1.0, 33.0, T))[:, None]


def margin(L):
    """Twice the worst relative rounding of a rescaled row's computed power,
    (4L + 6) 2**-53 for a row of 2L reals (see quality._inside)."""
    return (8 * L + 12) * 2.0**-53


def masked_ball(W):
    """The masked form of _projection's decision: the factor is divided on
    the rows outside only, through np.divide's where=, whatever their number."""
    power = row_power(W)
    cap = 1.0 / W.shape[0]
    over = power > cap
    if not over.any():
        return power, None, None
    inside = cap * (1.0 - margin(W.shape[1]))
    return power, over, np.sqrt(np.divide(inside, power, out=np.full(power.shape, 1.0),
                                          where=over))


def masked_projection(W, ball):
    """The masked form of the projection."""
    over, scale = ball[1:]
    return W.copy() if over is None else W * scale[:, None]


def masked_chain_projection(D, W, ball):
    """The masked form of the projection's pullback."""
    power, over, scale = ball
    if over is None:
        return D
    radial = np.einsum("ml,ml->m", D, W.conj()).real
    ratio = np.divide(radial, power, out=np.zeros(power.shape), where=over)
    return scale[:, None] * (D - ratio[:, None] * W)


class TestBall:
    def test_one_rescale_lands_just_inside(self, monkeypatch):
        rng = np.random.default_rng(20)
        calls = []

        def counted(W):
            calls.append(1)
            return _projection(W)

        monkeypatch.setattr(optimizer, "_projection", counted)
        for _ in range(1000):
            T = int(rng.integers(1, 129))
            W = exterior_precoder(rng, T)
            cap = 1.0 / T
            assert np.all(row_power(W) > cap)
            calls.clear()
            out = project(W)
            assert calls == [1]  # one pass, no check pass
            power = row_power(out)
            assert np.all(power <= cap) and np.all(power >= cap * (1.0 - 2.0 * margin(16)))

    @pytest.mark.parametrize("L", [1, 2, 16, 64, 256])
    def test_projected_rows_meet_the_budget_exactly(self, L):
        # The margin is proven for both ways a row power is computed: the one
        # routine (float64 view) and the complex einsum of W and conj(W).
        rng = np.random.default_rng(L)
        for _ in range(1000):
            W = project(exterior_precoder(rng, int(rng.integers(1, 129)), L))
            assert PrecodingMatrix(W).feasible(tol=0.0)
            assert np.all(np.einsum("ml,ml->m", W, W.conj()).real <= 1.0 / W.shape[0])

    CASES = {
        "all-outside": lambda rng: exterior_precoder(rng, 16, 4),
        "none-outside": lambda rng: mixed_rows_precoder(rng, 16, 4, exterior_fraction=0.0),
        "mixed": lambda rng: mixed_rows_precoder(rng, 16, 4),
        "zero-rows": lambda rng: exterior_precoder(rng, 16, 4) * (
            rng.random(16) < 0.7)[:, None],
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("seed", range(5))
    def test_equals_masked_forms_bitwise(self, case, seed):
        rng = np.random.default_rng(seed)
        W = self.CASES[case](rng)
        D = complex_randn(rng, W.shape)
        (Wp, pull), expected = _projection(W), masked_ball(W)
        assert Wp.tobytes() == masked_projection(W, expected).tobytes()
        got = pull(D)
        assert got.tobytes() == masked_chain_projection(D, W, expected).tobytes()
        # With every row inside, the pullback is the identity.
        assert (got is D) == (expected[1] is None)


def capture_engine_evaluate(monkeypatch, spec, W, score_fn=None):
    """The evaluate lbfgs_maximize hands the engine on a run from W."""
    handed = []

    def capture(evaluate, x0, **kwargs):
        handed.append(evaluate)
        return x0, {"termination": lbfgs.TERM_MAX_ITERS, "history": [],
                    "n_value_evals": 0, "n_grad_evals": 0}

    monkeypatch.setattr(lbfgs, "maximize", capture)
    lbfgs_maximize(spec, OptimizerConfig(start="custom", start_matrix=W), score_fn=score_fn)
    return handed[0]


def numpy_python_calls(fn):
    """Python functions under numpy's package directory that fn() calls,
    after one warm-up call."""
    fn()
    root = os.path.dirname(np.__file__) + os.sep
    called = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename.startswith(root):
            called.append(f"{frame.f_code.co_filename[len(root):]}:{frame.f_code.co_name}")

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(previous)
    return called


class TestNoNumpyWrapperOnTheHotPath:
    """Every quasi-Newton evaluation calls numpy's compiled routines, not
    the Python wrappers around them (np.linalg.inv, np.einsum, ndarray.sum,
    min and max, np.count_nonzero, np.full, np.fill_diagonal), whose checks
    and dispatch cost more than the call at these sizes."""

    # "driver" is the evaluate lbfgs_maximize hands the engine, over mixed
    # rows: decode, the projection's pullback and the float64 view.
    @pytest.mark.parametrize("rows", ["all-outside", "some-inside", "all-inside", "driver"])
    @pytest.mark.parametrize("kind", ["irc", "cd"])
    def test_evaluate_and_grad(self, kind, rows, monkeypatch):
        dims = ScenarioConfig().dims
        channel = generate_channels(dims, 0)
        spec = ObjectiveSpec(kind, channel, calibrated_params(channel))
        rng = np.random.default_rng(1)
        if rows == "all-outside":
            W = exterior_precoder(rng, dims.T, dims.L)
        else:
            W = mixed_rows_precoder(rng, dims.T, dims.L,
                                    exterior_fraction=0.0 if rows == "all-inside" else 0.5)
        n_over = {"all-outside": range(dims.T, dims.T + 1), "all-inside": range(1)}
        assert np.count_nonzero(row_power(W) > 1.0 / dims.T) in n_over.get(rows, range(1, dims.T))

        if rows == "driver":
            x = _ProjectionParam(W.shape).encode(W)
            handed = capture_engine_evaluate(monkeypatch, spec, W, score_fn=lambda W: 0.0)
            evaluate = lambda: handed(x)[1]()
        else:
            evaluate = lambda: optimizer._evaluate(W, spec)[1]()
        assert numpy_python_calls(evaluate) == []

    def test_two_loop_and_inf_norm(self):
        rng = np.random.default_rng(2)
        n = 2 * 64 * 2
        pairs = []
        for _ in range(10):
            s, y = rng.standard_normal(n), rng.standard_normal(n)
            pairs.append((s, y, 1.0 / float(s @ y)))
        g = rng.standard_normal(n)
        assert numpy_python_calls(lambda: lbfgs._inf_norm(lbfgs._two_loop(g, pairs, 0.5))) == []


class TestObjective:
    def test_cd_zero_precoder(self):
        spec = cd_spec()
        assert objective(np.zeros((8, 2), dtype=complex), spec) == 0.0

    def test_feasible_precoder_projection_is_identity(self):
        spec = cd_spec(1)
        rng = np.random.default_rng(2)
        W = 0.05 * complex_randn(rng, (8, 2))
        direct = se_conjugate(W, spec.channel.V_tilde, spec.channel.S_tilde,
                              spec.params.noise_to_signal)
        assert objective(W, spec) == pytest.approx(direct, rel=1e-14)

    def test_infeasible_matches_projected(self):
        spec = cd_spec(3)
        rng = np.random.default_rng(4)
        W = 5.0 * complex_randn(rng, (8, 2))
        assert objective(W, spec) == objective(project(W), spec)

    def test_irc_matches_scoring_path(self):
        spec = irc_spec(5)
        rng = np.random.default_rng(6)
        W = complex_randn(rng, (8, 2))
        proj = project(W)
        expected = spectral_efficiency_irc(proj, spec.channel, spec.params).se_bits
        assert objective(W, spec) == pytest.approx(expected, rel=1e-14)

    @pytest.mark.parametrize("kind", ["cd", "irc"])
    def test_zero_noise_rejected(self, kind):
        spec = cd_spec(7)
        with pytest.raises(InfiniteSusinrError, match="needs positive noise power"):
            ObjectiveSpec(kind=kind, channel=spec.channel,
                          params=dataclasses.replace(spec.params, sigma2=0.0))

    # (8, 5) was scored with the fifth column as one more interfering stream,
    # (8, 3) raised a bare IndexError from the IRC entry points and (7, 4)
    # numpy's matmul ValueError.
    @pytest.mark.parametrize("shape", [(8, 5), (8, 3), (7, 4)])
    @pytest.mark.parametrize("kind", ["cd", "irc"])
    def test_wrong_shape_precoder_rejected_by_name(self, kind, shape):
        spec = (cd_spec if kind == "cd" else irc_spec)(47, K=2, T=8, R=2, L=2)
        ch, pr = spec.channel, spec.params
        score = {
            "cd": lambda W: se_conjugate(W, ch.V_tilde, ch.S_tilde, pr.noise_to_signal),
            "irc": lambda W: spectral_efficiency_irc(W, ch, pr),
        }[kind]
        W = 0.1 * complex_randn(np.random.default_rng(48), shape)
        for fn in (score, lambda W: objective(W, spec), lambda W: gradient(W, spec)):
            with pytest.raises(DimensionError,
                               match=rf"^precoder must have shape \(T, L\) = \(8, 4\), "
                                     rf"got \({shape[0]}, {shape[1]}\)$"):
                fn(W)


class TestCdForwardBackward:
    CASES = {
        "mixed-rows": lambda: (cd_spec(40), mixed_rows_precoder(
            np.random.default_rng(41), 8, 2)),
        "zero": lambda: (cd_spec(42), np.zeros((8, 2), dtype=complex)),
        "multi-stream": lambda: (cd_spec(43, K=4, T=16, R=4, L=2), mixed_rows_precoder(
            np.random.default_rng(44), 16, 8)),
        "ragged": lambda: (ragged_cd_spec(45), mixed_rows_precoder(
            np.random.default_rng(46), 8, 6)),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_backward_equals_reference_gradient_bitwise(self, case):
        spec, W = self.CASES[case]()
        Wp = project(W)
        g = spec.backward(spec.forward(Wp)[1])
        assert g.tobytes() == reference_cd_gradient(Wp, spec.channel, spec.params).tobytes()

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_se_conjugate_is_the_forward_value_bitwise(self, case):
        spec, W = self.CASES[case]()
        ch, pr = spec.channel, spec.params
        value = se_conjugate(W, ch.V_tilde, ch.S_tilde, pr.noise_to_signal)
        assert np.float64(value).tobytes() == np.float64(spec.forward(W)[0]).tobytes()


class TestGradient:
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_gradient_rejected(self, bad):
        # The engine tests its own gradients; direct callers keep this check.
        spec = CustomObjective(value=lambda W: 0.0, shape=(4, 2),
                               wirtinger_grad=lambda W: np.full((4, 2), bad, dtype=complex))
        with pytest.raises(NumericalFailureError, match="^gradient has non-finite entries$"):
            gradient(np.zeros((4, 2), dtype=complex), spec)

    def test_cd_zero_precoder_critical_point(self):
        spec = cd_spec(7)
        W = np.zeros((8, 2), dtype=complex)
        g = gradient(W, spec)
        np.testing.assert_array_equal(g, np.zeros_like(W))
        fd = fd_gradient(lambda M: objective(M, spec), W)
        assert np.max(np.abs(fd)) <= 1e-6

    @pytest.mark.parametrize("kind", ["cd", "irc"])
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_matches_finite_differences_small_dims(self, kind, seed):
        spec = (cd_spec if kind == "cd" else irc_spec)(seed)
        rng = np.random.default_rng(100 + seed)
        W = mixed_rows_precoder(rng, 8, 2)
        g = embed(gradient(W, spec))
        fd = fd_gradient(lambda M: objective(M, spec), W)
        assert np.linalg.norm(g - fd) / np.linalg.norm(fd) <= 1e-5

    @pytest.mark.parametrize("kind", ["cd", "irc"])
    def test_matches_finite_differences_multi_stream(self, kind):
        spec = (cd_spec if kind == "cd" else irc_spec)(11, K=4, T=16, R=4, L=2)
        rng = np.random.default_rng(12)
        W = mixed_rows_precoder(rng, 16, 8)
        g = embed(gradient(W, spec))
        fd = fd_gradient(lambda M: objective(M, spec), W)
        assert np.linalg.norm(g - fd) / np.linalg.norm(fd) <= 1e-5

    @pytest.mark.parametrize("kind", ["cd", "irc"])
    def test_evaluator_gradient_is_the_public_gradient_bitwise(self, kind, monkeypatch):
        # The evaluate that lbfgs_maximize hands the engine reuses its forward
        # pass and the row power of W; the public gradient recomputes both.
        # Mixed rows plus an all-zero row.
        spec = (cd_spec if kind == "cd" else irc_spec)(31, K=4, T=16, R=4, L=2)
        W = mixed_rows_precoder(np.random.default_rng(32), 16, 8)
        W[5] = 0.0
        handed = capture_engine_evaluate(monkeypatch, spec, W)
        param = _ProjectionParam(W.shape)
        f, grad = handed(param.encode(W))
        assert f == objective(W, spec)
        np.testing.assert_array_equal(param.decode(grad())[0], gradient(W, spec))

    def test_exterior_rows_lose_radial_component(self):
        spec = cd_spec(13)
        rng = np.random.default_rng(14)
        W = 4.0 * complex_randn(rng, (8, 2))  # all rows outside
        g = gradient(W, spec)
        radial = np.einsum("ml,ml->m", g, W.conj()).real
        np.testing.assert_allclose(radial, 0.0, atol=1e-12)


class TestLbfgsMaximize:
    @pytest.mark.parametrize("driver", [lbfgs_maximize, softmax_maximize])
    def test_unset_start_is_arzf(self, driver):
        assert OptimizerConfig().start is None
        spec = irc_spec()
        W, trace = driver(spec, OptimizerConfig(max_iters=3))
        W_arzf, trace_arzf = driver(spec, OptimizerConfig(max_iters=3, start="arzf"))
        assert W.W.tobytes() == W_arzf.W.tobytes() and trace == trace_arzf

    def test_toy_concave_objective(self):
        rng = np.random.default_rng(15)
        target = 0.05 * complex_randn(rng, (4, 2))  # interior optimum
        spec = CustomObjective(
            value=lambda W: -float(np.linalg.norm(W - target) ** 2),
            wirtinger_grad=lambda W: -2.0 * (W - target),
            shape=(4, 2),
        )
        cfg = OptimizerConfig(max_iters=50, start="custom",
                              start_matrix=np.zeros((4, 2), dtype=complex))
        W, trace = lbfgs_maximize(spec, cfg)
        assert np.linalg.norm(W.W - target) <= 1e-6
        assert trace.iterations <= 50

    @staticmethod
    def _guarded_linear_spec(error, radius=0.3):
        """Re<C, W>, which raises `error` outside a Frobenius radius that the
        first unit steps overshoot; counts the raises."""
        C = complex_randn(np.random.default_rng(33), (4, 2))
        raised = []

        def value(W):
            if np.linalg.norm(W) > radius:
                raised.append(1)
                raise error("outside the trusted region")
            return float(np.vdot(C, W).real)

        spec = CustomObjective(value=value, wirtinger_grad=lambda W: C, shape=(4, 2))
        cfg = OptimizerConfig(max_iters=30, start="custom",
                              start_matrix=np.zeros((4, 2), dtype=complex))
        return spec, cfg, raised

    def test_failing_trials_are_rejected(self):
        spec, cfg, raised = self._guarded_linear_spec(NumericalFailureError)
        W, trace = lbfgs_maximize(spec, cfg)
        assert raised
        assert W.feasible(tol=1e-12)
        assert np.linalg.norm(W.W) <= 0.3
        values = trace.objectives
        assert np.all(np.diff(values) >= 0.0)
        assert values[-1] > values[0]

    def test_programming_error_at_a_trial_propagates(self):
        spec, cfg, raised = self._guarded_linear_spec(RuntimeError)
        with pytest.raises(RuntimeError, match="trusted region"):
            lbfgs_maximize(spec, cfg)

    def test_gradient_failure_at_an_accepted_step_returns_it(self):
        # The second gradient call, at the first accepted step, fails: the run
        # keeps that step and names the reason instead of raising.
        C = complex_randn(np.random.default_rng(34), (4, 2))
        grads = []

        def wirtinger_grad(W):
            grads.append(W.copy())
            if len(grads) == 2:
                raise NumericalFailureError("gradient blew up")
            return C

        spec = CustomObjective(value=lambda W: float(np.vdot(C, W).real),
                               wirtinger_grad=wirtinger_grad, shape=(4, 2))
        cfg = OptimizerConfig(max_iters=30, start="custom",
                              start_matrix=np.zeros((4, 2), dtype=complex))
        W, trace = lbfgs_maximize(spec, cfg)
        assert trace.termination == lbfgs.TERM_GRADIENT_FAILURE
        assert trace.n_grad_evals == 2 and trace.iterations == 1
        np.testing.assert_array_equal(W.W, grads[1])
        assert trace.records[-1].objective == float(np.vdot(C, W.W).real) > 0.0
        assert math.isnan(trace.records[-1].grad_norm)

    @staticmethod
    def _non_finite_at(call, bad, scale=1e-3):
        """A linear CustomObjective whose gradient has a bad entry, without
        raising, at the given gradient call (1 is the start), and its C. At the
        default scale C is small enough that the first step stays inside the
        power ball, where the chain rule passes the gradient through; at scale
        1 it leaves the ball, where the tangent projection would turn an
        infinite entry into NaN with a warning."""
        C = scale * complex_randn(np.random.default_rng(37), (4, 2))
        grads = []

        def wirtinger_grad(W):
            grads.append(W.copy())
            if len(grads) == call:
                return np.where(np.arange(8).reshape(4, 2) == 5, bad, C)
            return C

        spec = CustomObjective(value=lambda W: float(np.vdot(C, W).real),
                               wirtinger_grad=wirtinger_grad, shape=(4, 2))
        return spec, grads, C

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
    def test_non_finite_gradient_at_an_accepted_step_returns_it(self, bad):
        spec, grads, C = self._non_finite_at(2, bad)
        cfg = OptimizerConfig(max_iters=30, start="custom",
                              start_matrix=np.zeros((4, 2), dtype=complex))
        W, trace = lbfgs_maximize(spec, cfg)
        assert trace.termination == lbfgs.TERM_GRADIENT_FAILURE
        assert trace.n_grad_evals == 2 and trace.iterations == 1
        np.testing.assert_array_equal(W.W, grads[1])
        assert trace.records[-1].objective == float(np.vdot(C, W.W).real) > 0.0
        assert math.isnan(trace.records[-1].grad_norm)

    @pytest.mark.parametrize("bad", [np.inf, complex(0.0, -np.inf)])
    def test_non_finite_gradient_outside_the_power_ball_returns_it(self, bad):
        # The first step from zero leaves the ball: the bad entry is caught
        # before the chain rule, so no warning escapes and the step is kept.
        spec, grads, C = self._non_finite_at(2, bad, scale=1.0)
        cfg = OptimizerConfig(max_iters=30, start="custom",
                              start_matrix=np.zeros((4, 2), dtype=complex))
        W, trace = lbfgs_maximize(spec, cfg)
        assert trace.termination == lbfgs.TERM_GRADIENT_FAILURE
        assert trace.n_grad_evals == 2 and trace.iterations == 1
        np.testing.assert_array_equal(W.W, grads[1])
        assert W.row_power().max() > 0.99 / 4  # a row was projected to 1/T
        assert trace.records[-1].objective == float(np.vdot(C, W.W).real) > 0.0
        assert math.isnan(trace.records[-1].grad_norm)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_gradient_at_the_start_raises(self, bad):
        spec, _, _ = self._non_finite_at(1, bad)
        cfg = OptimizerConfig(start="custom", start_matrix=np.zeros((4, 2), dtype=complex))
        with pytest.raises(NumericalFailureError, match="^gradient has non-finite entries$"):
            lbfgs_maximize(spec, cfg)

    def test_undefined_sinr_names_the_user(self):
        # User 2 of 3 owns streams 4 and 5; with them silent its detector is
        # zero and its SINR undefined.
        spec = irc_spec(35, K=3, T=8, R=2, L=2)
        start = complex_randn(np.random.default_rng(36), (8, 6))
        start[:, 4:] = 0.0
        cfg = OptimizerConfig(start="custom", start_matrix=start)
        with pytest.raises(UndefinedSinrError, match="user 2, symbol 4: zero denominator"):
            lbfgs_maximize(spec, cfg)

    def test_scalar_boundary_case_with_grid_oracle(self):
        # T = L = 1: the objective grows with |w|, so the optimum saturates the
        # unit power budget 1/T = 1. Compare against a dense 1-D scan over |w|.
        ch = random_channel(16, K=1, T=1, R=1, L=1)
        params = calibrated_params(ch, susinr_db=6.0)
        spec = ObjectiveSpec(kind="cd", channel=ch, params=params)
        cfg = OptimizerConfig(max_iters=100, start="custom",
                              start_matrix=np.array([[0.1 + 0.0j]]))
        W, _ = lbfgs_maximize(spec, cfg)
        assert abs(W.W[0, 0]) ** 2 == pytest.approx(1.0, abs=1e-8)
        radii = np.linspace(0.0, 1.0, 20001)
        grid_best = max(
            se_conjugate(np.array([[r + 0j]]), ch.V_tilde, ch.S_tilde,
                         params.noise_to_signal)
            for r in radii
        )
        assert objective(W.W, spec) >= grid_best - 1e-9

    @pytest.mark.parametrize("kind", ["cd", "irc"])
    def test_improves_on_start_and_stays_feasible(self, kind):
        spec = (cd_spec if kind == "cd" else irc_spec)(17, K=2, T=8, R=2, L=1)
        cfg = OptimizerConfig(max_iters=150, start="arzf")
        W, trace = lbfgs_maximize(spec, cfg)
        assert W.feasible(tol=1e-12)
        assert trace.records[-1].objective >= trace.records[0].objective
        values = [r.objective for r in trace.records]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_cd_improves_over_start_on_most_seeds(self):
        improved = 0
        total = 100
        for seed in range(total):
            spec = cd_spec(seed, K=2, T=8, R=2, L=1)
            _, trace = lbfgs_maximize(spec, OptimizerConfig(max_iters=60))
            assert trace.records[-1].objective >= trace.records[0].objective
            if trace.records[-1].objective > trace.records[0].objective:
                improved += 1
        assert improved >= 95

    def test_deterministic_trace(self):
        spec = irc_spec(18)
        cfg = OptimizerConfig(max_iters=40)
        W1, t1 = lbfgs_maximize(spec, cfg)
        W2, t2 = lbfgs_maximize(spec, cfg)
        np.testing.assert_array_equal(W1.W, W2.W)
        assert t1 == t2

    def test_score_fn_recorded(self):
        spec = cd_spec(19)
        score = lambda W: spectral_efficiency_irc(W, spec.channel, spec.params).se_bits
        _, trace = lbfgs_maximize(spec, OptimizerConfig(max_iters=10), score_fn=score)
        assert len(trace.scores) == len(trace.records) and None not in trace.scores

    # Scores are taken after the run, at the points the engine's grad() ran
    # at: the step that ends the run on a failed gradient is a record, so it
    # is scored too.
    @pytest.mark.parametrize("driver", [lbfgs_maximize, softmax_maximize])
    def test_one_score_per_record_at_a_gradient_failure(self, driver):
        spec, _, C = self._non_finite_at(2, np.nan)
        score = lambda W: float(np.vdot(C, W).real + np.abs(W).sum())
        cfg = OptimizerConfig(max_iters=30, tol_grad=1e-12, start="custom",
                              start_matrix=np.full((4, 2), 0.1 + 0.0j))
        W, trace = driver(spec, cfg, score_fn=score)
        assert trace.termination == lbfgs.TERM_GRADIENT_FAILURE and trace.iterations == 1
        assert len(trace.scores) == len(trace.records) == 2
        assert trace.scores[-1] == score(W.W)

    def test_score_fn_error_propagates(self):
        spec = cd_spec(19)
        calls = []

        def score(W):
            calls.append(W)
            if len(calls) == 2:
                raise NumericalFailureError("no score at the second record")
            return 0.0

        with pytest.raises(NumericalFailureError, match="second record"):
            lbfgs_maximize(spec, OptimizerConfig(max_iters=10), score_fn=score)

    def test_irc_objective_is_the_scoring_se(self):
        # The trace command reports SE-IRC of QN-IRC runs from this equality.
        spec = irc_spec(19, K=3, T=8, R=2, L=2)
        score = lambda W: spectral_efficiency_irc(W, spec.channel, spec.params).se_bits
        _, trace = lbfgs_maximize(spec, OptimizerConfig(max_iters=20), score_fn=score)
        assert [r.objective for r in trace.records] == list(trace.scores)

    @staticmethod
    def _assert_one_forward_per_trial_one_backward_per_step(kind, monkeypatch):
        import mimo_precoding.optimizer as optimizer

        calls = {"forward": 0, "backward": 0}

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        for name in ("forward", "backward"):
            attr = f"{kind}_{name}"
            monkeypatch.setattr(optimizer, attr, counted(name, getattr(optimizer, attr)))
        spec = (cd_spec if kind == "cd" else irc_spec)(21, K=4, T=16, R=4, L=2)
        _, trace = lbfgs_maximize(spec, OptimizerConfig(max_iters=30))
        assert trace.iterations >= 10
        assert trace.n_value_evals >= trace.iterations
        assert calls["forward"] == trace.n_value_evals + 1
        assert calls["backward"] == trace.n_grad_evals == trace.iterations + 1

    def test_irc_budget_one_forward_per_trial_one_backward_per_step(self, monkeypatch):
        self._assert_one_forward_per_trial_one_backward_per_step("irc", monkeypatch)

    def test_cd_budget_one_forward_per_trial_one_backward_per_step(self, monkeypatch):
        self._assert_one_forward_per_trial_one_backward_per_step("cd", monkeypatch)

    def test_rzf_start_supported(self):
        spec = cd_spec(20)
        _, trace = lbfgs_maximize(spec, OptimizerConfig(max_iters=10, start="rzf"))
        assert trace.iterations >= 1

    def test_config_validation(self):
        with pytest.raises(ValueError):
            OptimizerConfig(max_iters=0)
        with pytest.raises(ValueError):
            OptimizerConfig(tol_grad=0.0)
        with pytest.raises(ValueError):
            OptimizerConfig(start="custom")
        with pytest.raises(ValueError):
            OptimizerConfig(start="mrt")
        # Counts must be integers, not truncated floats or booleans, and
        # tolerances finite: a NaN tol_grad never stops a run.
        for kwargs in (dict(max_iters=2.5), dict(max_iters=True), dict(memory=2.5),
                       dict(tol_grad=float("nan")), dict(tol_change=float("inf"))):
            with pytest.raises(ValueError):
                OptimizerConfig(**kwargs)

    @pytest.mark.parametrize("shape", [(8, 3), (3, 2)])
    def test_wrong_shape_start_matrix_rejected(self, shape):
        spec = cd_spec(22, K=2, T=8, R=2, L=1)
        cfg = OptimizerConfig(start="custom", start_matrix=np.zeros(shape, dtype=complex))
        with pytest.raises(DimensionError, match=r"\(T, L\) = \(8, 2\)"):
            lbfgs_maximize(spec, cfg)

    # Rejected rather than ignored, which started the run from the baseline.
    @pytest.mark.parametrize("maximize", [lbfgs_maximize, softmax_maximize])
    @pytest.mark.parametrize("start", ["arzf", "rzf", None])
    def test_start_matrix_without_custom_start_rejected(self, maximize, start):
        spec = irc_spec(0, K=2, T=8, R=2, L=1, susinr_db=12.0)
        cfg = OptimizerConfig(max_iters=1, start=start, start_matrix=0.1 * np.ones((8, 2)))
        with pytest.raises(ValueError, match=f"start_matrix .* start={start!r}"):
            maximize(spec, cfg)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
    def test_non_finite_start_matrix_rejected(self, bad):
        start = np.zeros((8, 2), dtype=complex)
        start[3, 1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            OptimizerConfig(start="custom", start_matrix=start)

    # numpy's own "inhomogeneous shape" ValueError, which did not name the field.
    def test_ragged_start_matrix_rejected_by_name(self):
        with pytest.raises(ValueError, match="start_matrix must be numeric: a 2-D"):
            OptimizerConfig(start="custom", start_matrix=[[1, 2], [3]])
        with pytest.raises(ConfigError, match="start_matrix must be numeric: a 2-D"):
            ScenarioConfig.from_dict({"optimizer": {"start": "custom",
                                                    "start_matrix": [[1, 2], [3]]}})

    # Passed the config check and failed only at run time.
    def test_three_axis_start_matrix_rejected_by_name(self):
        with pytest.raises(ValueError, match="start_matrix must be numeric: a 2-D"):
            OptimizerConfig(start="custom", start_matrix=np.zeros((2, 8, 2), dtype=complex))

    # Passed the config check and failed only at run time, against (T, L).
    def test_one_axis_start_matrix_rejected_by_name(self):
        with pytest.raises(ValueError, match="start_matrix must be numeric: a 2-D"):
            OptimizerConfig(start="custom", start_matrix=np.zeros(16, dtype=complex))
        with pytest.raises(ConfigError, match="start_matrix must be numeric: a 2-D"):
            ScenarioConfig.from_dict({"optimizer": {"start": "custom", "start_matrix": [0.0] * 16}})

    # np.isfinite used to raise a bare TypeError on these.
    @pytest.mark.parametrize("start", [[["a"]], [[None]], [[True, False]]])
    def test_non_numeric_start_matrix_rejected(self, start):
        with pytest.raises(ValueError, match="start_matrix must be numeric"):
            OptimizerConfig(start="custom", start_matrix=start)


def packed(theta, eta, alpha):
    """The softmax parametrization's vector x of (theta, eta, alpha)."""
    return np.concatenate([theta.ravel(), eta.ravel(), alpha])


class TestSoftmax:
    def test_uniform_decode_row_powers(self):
        T, L = 4, 2
        x = packed(np.zeros((T, L)), np.zeros((T, L)), np.full(T, 30.0))
        W, _ = _Softmax((T, L)).decode(x)
        row_power = np.einsum("ml,ml->m", W, W.conj()).real
        np.testing.assert_allclose(row_power, 1.0 / T, rtol=1e-9)

    def test_decode_always_feasible(self):
        rng = np.random.default_rng(21)
        T, L = 6, 3
        x = packed(rng.standard_normal((T, L)) * 5, rng.standard_normal((T, L)) * 5,
                   rng.standard_normal(T) * 5)
        W, _ = _Softmax((T, L)).decode(x)
        row_power = np.einsum("ml,ml->m", W, W.conj()).real
        assert np.all(row_power <= 1.0 / T)

    def test_round_trip_initialization(self):
        rng = np.random.default_rng(22)
        W0 = 0.2 * complex_randn(rng, (4, 2))
        softmax = _Softmax((4, 2))
        np.testing.assert_allclose(softmax.decode(softmax.encode(W0))[0], W0, atol=1e-5)

    def test_parameter_gradient_matches_finite_differences(self):
        spec = cd_spec(23, K=2, T=4, R=2, L=1)
        dec = _Softmax((4, 2))
        rng = np.random.default_rng(24)
        x = rng.standard_normal(4 * 2 * 2 + 4)
        W, pull = dec.decode(x)
        g = pull(gradient(W, spec))
        h = 1e-6
        fd = np.empty_like(x)
        for i in range(x.size):
            xp = x.copy()
            xp[i] += h
            xm = x.copy()
            xm[i] -= h
            fd[i] = (objective(dec.decode(xp)[0], spec)
                     - objective(dec.decode(xm)[0], spec)) / (2 * h)
        assert np.linalg.norm(g - fd) / np.linalg.norm(fd) <= 1e-5

    def test_scalar_case_saturates_toward_full_power(self):
        ch = random_channel(25, K=1, T=1, R=1, L=1)
        params = calibrated_params(ch, susinr_db=6.0)
        spec = ObjectiveSpec(kind="cd", channel=ch, params=params)
        cfg = OptimizerConfig(max_iters=3000, start="custom",
                              start_matrix=np.array([[0.3 + 0.0j]]))
        W, _ = softmax_maximize(spec, cfg)
        assert abs(W.W[0, 0]) ** 2 == pytest.approx(1.0, abs=1e-3)

    def test_tracks_projection_method(self):
        spec = cd_spec(26, K=2, T=8, R=2, L=1)
        Wp, tp = lbfgs_maximize(spec, OptimizerConfig(max_iters=400))
        Ws, ts = softmax_maximize(spec, OptimizerConfig(max_iters=3000))
        fp = objective(Wp.W, spec)
        fs = objective(Ws.W, spec)
        assert W_feasible(Ws, spec)
        assert fs >= fp * (1 - 0.01)

    def test_saturated_decode_is_returned_projected(self, monkeypatch):
        # At alpha = 40 the sigmoid is 1.0, and most rows' computed power
        # rounds above the cap: the raw decode does not meet the budget.
        T, L = 16, 4
        rng = np.random.default_rng(28)
        saturated = packed(3.0 * rng.standard_normal((T, L)), rng.standard_normal((T, L)),
                           np.full(T, 40.0))
        monkeypatch.setattr(_Softmax, "encode", lambda self, W0: saturated)
        flat = CustomObjective(value=lambda W: 0.0, wirtinger_grad=np.zeros_like,
                               shape=(T, L))
        cfg = OptimizerConfig(start="custom", start_matrix=np.zeros((T, L)))
        scored = []
        W, trace = softmax_maximize(flat, cfg, score_fn=lambda W: scored.append(W) or 0.0)
        raw, _ = _Softmax((T, L)).decode(saturated)
        assert not PrecodingMatrix(raw).feasible(tol=0.0)
        assert trace.iterations == 0 and trace.termination == lbfgs.TERM_GRADIENT
        assert W.feasible(tol=0.0)
        assert W.W.tobytes() == project(raw).tobytes() == scored[0].tobytes()

    def test_monotone_trace(self):
        spec = cd_spec(27)
        _, trace = softmax_maximize(spec, OptimizerConfig(max_iters=50))
        values = [r.objective for r in trace.records]
        assert all(b >= a for a, b in zip(values, values[1:]))


def W_feasible(W, spec):
    return W.feasible(tol=1e-12)
