import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mimo_precoding import (
    CustomObjective,
    ObjectiveSpec,
    OptimizerConfig,
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
from mimo_precoding.errors import DimensionError, NumericalFailureError
from mimo_precoding.optimizer import SoftmaxParams, _Evaluator, _ProjectionParam, _SoftmaxDecoder

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
        np.testing.assert_array_equal(project(W, 1.0), W)

    def test_boundary_row_untouched(self):
        W = np.zeros((2, 2), dtype=complex)
        W[0, 0] = 0.5  # row power exactly P/T = 0.25, representable exactly
        out = project(W, 0.5)
        np.testing.assert_array_equal(out, W)

    def test_overweight_row_rescaled(self):
        W = np.array([[2.0, 0.0], [0.1, 0.1]], dtype=complex)
        out = project(W, 2.0)  # cap = 1
        np.testing.assert_allclose(out[0], [1.0, 0.0], atol=1e-15)
        np.testing.assert_array_equal(out[1], W[1])

    def test_zero_row_unchanged_without_warnings(self):
        W = 0.1 * complex_randn(np.random.default_rng(5), (6, 2))  # rows inside cap 1/6
        W[2] = 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = project(W, 1.0)
        np.testing.assert_array_equal(out, W)

    def test_zero_row_beside_exterior_rows_warns_nothing(self):
        W = 3.0 * complex_randn(np.random.default_rng(6), (6, 2))  # rows outside
        W[4] = 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = project(W, 1.0)
        np.testing.assert_array_equal(out[4], 0.0)
        assert np.all(np.einsum("ml,ml->m", out, out.conj()).real <= 1.0 / 6)

    def test_idempotent_bitwise(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            W = 3.0 * complex_randn(rng, (8, 3))
            once = project(W, 1.0)
            twice = project(once, 1.0)
            np.testing.assert_array_equal(once, twice)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_idempotent_and_feasible_over_shapes_and_scales(self, data):
        T = data.draw(st.integers(1, 12), label="T")
        L = data.draw(st.integers(1, 4), label="L")
        P = data.draw(st.floats(1e-3, 1e3), label="P")
        # Per-row scale 10^e with e in [-6, 6], or an all-zero row.
        scales = data.draw(st.lists(
            st.one_of(st.just(0.0), st.floats(-6.0, 6.0).map(lambda e: 10.0**e)),
            min_size=T, max_size=T), label="row scales")
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        W = complex_randn(np.random.default_rng(seed), (T, L)) * np.array(scales)[:, None]
        once = project(W, P)
        assert once.tobytes() == project(once, P).tobytes()
        interleaved = once.view(np.float64)
        assert np.all(np.einsum("ml,ml->m", interleaved, interleaved) <= P / T)
        np.testing.assert_array_equal(once[np.array(scales) == 0.0], 0.0)


class TestObjective:
    def test_cd_zero_precoder(self):
        spec = cd_spec()
        assert objective(np.zeros((8, 2), dtype=complex), spec) == 0.0

    def test_feasible_precoder_projection_is_identity(self):
        spec = cd_spec(1)
        rng = np.random.default_rng(2)
        W = 0.05 * complex_randn(rng, (8, 2))
        direct = se_conjugate(W, spec.channel.V_tilde, spec.channel.S_tilde,
                              spec.params.sigma2, spec.params.P)
        assert objective(W, spec) == pytest.approx(direct, rel=1e-14)

    def test_infeasible_matches_projected(self):
        spec = cd_spec(3)
        rng = np.random.default_rng(4)
        W = 5.0 * complex_randn(rng, (8, 2))
        assert objective(W, spec) == objective(project(W, spec.params.P), spec)

    def test_irc_matches_scoring_path(self):
        spec = irc_spec(5)
        rng = np.random.default_rng(6)
        W = complex_randn(rng, (8, 2))
        proj = project(W, spec.params.P)
        expected = spectral_efficiency_irc(proj, spec.channel, spec.params).se_bits
        assert objective(W, spec) == pytest.approx(expected, rel=1e-14)


class TestCdForwardBackward:
    CASES = {
        "mixed-rows": lambda: (cd_spec(40), mixed_rows_precoder(
            np.random.default_rng(41), 8, 2, 1.0)),
        "zero": lambda: (cd_spec(42), np.zeros((8, 2), dtype=complex)),
        "multi-stream": lambda: (cd_spec(43, K=4, T=16, R=4, L=2), mixed_rows_precoder(
            np.random.default_rng(44), 16, 8, 1.0)),
        "ragged": lambda: (ragged_cd_spec(45), mixed_rows_precoder(
            np.random.default_rng(46), 8, 6, 1.0)),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_backward_equals_reference_gradient_bitwise(self, case):
        spec, W = self.CASES[case]()
        Wp = project(W, spec.P)
        g = spec.backward(spec.forward(Wp)[1])
        assert g.tobytes() == reference_cd_gradient(Wp, spec.channel, spec.params).tobytes()

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_se_conjugate_is_the_forward_value_bitwise(self, case):
        spec, W = self.CASES[case]()
        ch, pr = spec.channel, spec.params
        value = se_conjugate(W, ch.V_tilde, ch.S_tilde, pr.sigma2, pr.P)
        assert np.float64(value).tobytes() == np.float64(spec.forward(W)[0]).tobytes()


class TestGradient:
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
        W = mixed_rows_precoder(rng, 8, 2, spec.params.P)
        g = embed(gradient(W, spec))
        fd = fd_gradient(lambda M: objective(M, spec), W)
        assert np.linalg.norm(g - fd) / np.linalg.norm(fd) <= 1e-5

    @pytest.mark.parametrize("kind", ["cd", "irc"])
    def test_matches_finite_differences_multi_stream(self, kind):
        spec = (cd_spec if kind == "cd" else irc_spec)(11, K=4, T=16, R=4, L=2)
        rng = np.random.default_rng(12)
        W = mixed_rows_precoder(rng, 16, 8, spec.params.P)
        g = embed(gradient(W, spec))
        fd = fd_gradient(lambda M: objective(M, spec), W)
        assert np.linalg.norm(g - fd) / np.linalg.norm(fd) <= 1e-5

    @pytest.mark.parametrize("kind", ["cd", "irc"])
    def test_evaluator_gradient_is_the_public_gradient_bitwise(self, kind):
        # The evaluator reuses the forward pass and the row power of W; the
        # public gradient recomputes both. Mixed rows plus an all-zero row.
        spec = (cd_spec if kind == "cd" else irc_spec)(31, K=4, T=16, R=4, L=2)
        W = mixed_rows_precoder(np.random.default_rng(32), 16, 8, spec.params.P)
        W[5] = 0.0
        param = _ProjectionParam(W.shape, spec.params.P)
        evaluator = _Evaluator(spec, param)
        x = param.encode(W)
        assert evaluator.value(x) == objective(W, spec)
        f, g = evaluator.value_and_grad(x)
        assert f == objective(W, spec)
        np.testing.assert_array_equal(param.decode_full(g)[0], gradient(W, spec))

    @pytest.mark.parametrize("kind", ["cd", "irc"])
    def test_evaluator_caches_on_identity(self, kind, monkeypatch):
        # The same array is served from the cache; an equal fresh array is
        # recomputed to the same bits; a different array is recomputed.
        import mimo_precoding.optimizer as optimizer

        forwards = []
        for name in ("cd_forward", "irc_forward"):
            real = getattr(optimizer, name)
            monkeypatch.setattr(optimizer, name,
                                lambda *a, real=real: forwards.append(1) or real(*a))
        spec = (cd_spec if kind == "cd" else irc_spec)(33, K=4, T=16, R=4, L=2)
        W = mixed_rows_precoder(np.random.default_rng(34), 16, 8, spec.params.P)
        param = _ProjectionParam(W.shape, spec.params.P)
        evaluator = _Evaluator(spec, param)
        x = param.encode(W)
        f = evaluator.value(x)
        f1, g1 = evaluator.value_and_grad(x)
        assert len(forwards) == 1
        f2, g2 = evaluator.value_and_grad(x.copy())
        assert len(forwards) == 2
        assert np.float64(f1).tobytes() == np.float64(f2).tobytes() == np.float64(f).tobytes()
        assert g1.tobytes() == g2.tobytes()
        V = W.copy()
        V[0, 0] *= 0.5
        f3, g3 = evaluator.value_and_grad(param.encode(V))
        assert len(forwards) == 3
        assert f3 == objective(V, spec)
        np.testing.assert_array_equal(param.decode_full(g3)[0], gradient(V, spec))

    def test_exterior_rows_lose_radial_component(self):
        spec = cd_spec(13)
        rng = np.random.default_rng(14)
        W = 4.0 * complex_randn(rng, (8, 2))  # all rows outside
        g = gradient(W, spec)
        radial = np.einsum("ml,ml->m", g, W.conj()).real
        np.testing.assert_allclose(radial, 0.0, atol=1e-12)


class TestLbfgsMaximize:
    def test_toy_concave_objective(self):
        rng = np.random.default_rng(15)
        target = 0.05 * complex_randn(rng, (4, 2))  # interior optimum
        spec = CustomObjective(
            value=lambda W: -float(np.linalg.norm(W - target) ** 2),
            wirtinger_grad=lambda W: -2.0 * (W - target),
            shape=(4, 2),
            P=1.0,
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

        spec = CustomObjective(value=value, wirtinger_grad=lambda W: C, shape=(4, 2), P=1.0)
        cfg = OptimizerConfig(max_iters=30, start="custom",
                              start_matrix=np.zeros((4, 2), dtype=complex))
        return spec, cfg, raised

    def test_failing_trials_are_rejected(self):
        spec, cfg, raised = self._guarded_linear_spec(NumericalFailureError)
        W, trace = lbfgs_maximize(spec, cfg)
        assert raised
        assert W.feasible(1.0, tol=1e-12)
        assert np.linalg.norm(W.W) <= 0.3
        values = trace.objectives
        assert np.all(np.diff(values) >= 0.0)
        assert values[-1] > values[0]

    def test_programming_error_at_a_trial_propagates(self):
        spec, cfg, raised = self._guarded_linear_spec(RuntimeError)
        with pytest.raises(RuntimeError, match="trusted region"):
            lbfgs_maximize(spec, cfg)

    def test_scalar_boundary_case_with_grid_oracle(self):
        # T = L = 1: the objective grows with |w|, so the optimum saturates the
        # power budget. Compare against a dense 1-D scan over |w|.
        ch = random_channel(16, K=1, T=1, R=1, L=1)
        params = calibrated_params(ch, susinr_db=6.0)
        spec = ObjectiveSpec(kind="cd", channel=ch, params=params)
        cfg = OptimizerConfig(max_iters=100, start="custom",
                              start_matrix=np.array([[0.1 + 0.0j]]))
        W, _ = lbfgs_maximize(spec, cfg)
        assert abs(W.W[0, 0]) ** 2 == pytest.approx(params.P, abs=1e-8)
        radii = np.linspace(0.0, np.sqrt(params.P), 20001)
        grid_best = max(
            se_conjugate(np.array([[r + 0j]]), ch.V_tilde, ch.S_tilde,
                         params.sigma2, params.P)
            for r in radii
        )
        assert objective(W.W, spec) >= grid_best - 1e-9

    @pytest.mark.parametrize("kind", ["cd", "irc"])
    def test_improves_on_start_and_stays_feasible(self, kind):
        spec = (cd_spec if kind == "cd" else irc_spec)(17, K=2, T=8, R=2, L=1)
        cfg = OptimizerConfig(max_iters=150, start="arzf")
        W, trace = lbfgs_maximize(spec, cfg)
        assert W.feasible(spec.params.P, tol=1e-12)
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
        assert all(r.se_irc_bits is not None for r in trace.records)

    def test_irc_objective_is_the_scoring_se(self):
        # The trace command reports SE-IRC of QN-IRC runs from this equality.
        spec = irc_spec(19, K=3, T=8, R=2, L=2)
        score = lambda W: spectral_efficiency_irc(W, spec.channel, spec.params).se_bits
        _, trace = lbfgs_maximize(spec, OptimizerConfig(max_iters=20), score_fn=score)
        assert [r.objective for r in trace.records] == [r.se_irc_bits for r in trace.records]

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

    @pytest.mark.parametrize("shape", [(8, 3), (3, 2), (16,)])
    def test_wrong_shape_start_matrix_rejected(self, shape):
        spec = cd_spec(22, K=2, T=8, R=2, L=1)
        cfg = OptimizerConfig(start="custom", start_matrix=np.zeros(shape, dtype=complex))
        with pytest.raises(DimensionError, match=r"\(T, L\) = \(8, 2\)"):
            lbfgs_maximize(spec, cfg)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
    def test_non_finite_start_matrix_rejected(self, bad):
        start = np.zeros((8, 2), dtype=complex)
        start[3, 1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            OptimizerConfig(start="custom", start_matrix=start)


class TestSoftmax:
    def test_uniform_decode_row_powers(self):
        T, L, P = 4, 2, 1.0
        sp = SoftmaxParams(theta=np.zeros((T, L)), eta=np.zeros((T, L)),
                           alpha=np.full(T, 30.0))
        W = sp.decode(P)
        row_power = np.einsum("ml,ml->m", W, W.conj()).real
        np.testing.assert_allclose(row_power, P / T, rtol=1e-9)

    def test_decode_always_feasible(self):
        rng = np.random.default_rng(21)
        T, L, P = 6, 3, 2.0
        sp = SoftmaxParams(theta=rng.standard_normal((T, L)) * 5,
                           eta=rng.standard_normal((T, L)) * 5,
                           alpha=rng.standard_normal(T) * 5)
        W = sp.decode(P)
        row_power = np.einsum("ml,ml->m", W, W.conj()).real
        assert np.all(row_power <= P / T)

    def test_round_trip_initialization(self):
        rng = np.random.default_rng(22)
        W0 = 0.2 * complex_randn(rng, (4, 2))
        sp = SoftmaxParams.from_precoder(W0, P=1.0)
        np.testing.assert_allclose(sp.decode(1.0), W0, atol=1e-5)

    def test_parameter_gradient_matches_finite_differences(self):
        spec = cd_spec(23, K=2, T=4, R=2, L=1)
        dec = _SoftmaxDecoder((4, 2), spec.params.P)
        rng = np.random.default_rng(24)
        x = rng.standard_normal(4 * 2 * 2 + 4)
        W, aux = dec.decode_full(x)
        g = dec.chain(gradient(W, spec), W, aux)
        h = 1e-6
        fd = np.empty_like(x)
        for i in range(x.size):
            xp = x.copy()
            xp[i] += h
            xm = x.copy()
            xm[i] -= h
            fd[i] = (objective(dec(xp), spec) - objective(dec(xm), spec)) / (2 * h)
        assert np.linalg.norm(g - fd) / np.linalg.norm(fd) <= 1e-5

    def test_scalar_case_saturates_toward_full_power(self):
        ch = random_channel(25, K=1, T=1, R=1, L=1)
        params = calibrated_params(ch, susinr_db=6.0)
        spec = ObjectiveSpec(kind="cd", channel=ch, params=params)
        cfg = OptimizerConfig(max_iters=3000, start="custom",
                              start_matrix=np.array([[0.3 + 0.0j]]))
        W, _ = softmax_maximize(spec, cfg)
        assert abs(W.W[0, 0]) ** 2 == pytest.approx(params.P, abs=1e-3)

    def test_tracks_projection_method(self):
        spec = cd_spec(26, K=2, T=8, R=2, L=1)
        Wp, tp = lbfgs_maximize(spec, OptimizerConfig(max_iters=400))
        Ws, ts = softmax_maximize(spec, OptimizerConfig(max_iters=3000))
        fp = objective(Wp.W, spec)
        fs = objective(Ws.W, spec)
        assert W_feasible(Ws, spec)
        assert fs >= fp * (1 - 0.01)

    def test_monotone_trace(self):
        spec = cd_spec(27)
        _, trace = softmax_maximize(spec, OptimizerConfig(max_iters=50))
        values = [r.objective for r in trace.records]
        assert all(b >= a for a, b in zip(values, values[1:]))


def W_feasible(W, spec):
    return W.feasible(spec.params.P, tol=1e-12)
