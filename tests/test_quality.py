import importlib.util
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mimo_precoding import (
    BaselineConfig,
    DegenerateChannelError,
    InfiniteSusinrError,
    OptimizerConfig,
    PrecodingMatrix,
    SystemDims,
    SystemParams,
    UndefinedSinrError,
    build_channel_set,
    compute_baseline,
    generate_channels,
    se_conjugate,
    spectral_efficiency_irc,
    susinr,
    symbol_sinr,
)

from conftest import calibrated_params, complex_randn, random_channel
from reference import conjugate, effective_sinr, sinr_conjugate


class TestPrecodingMatrix:
    def test_row_power_and_feasibility(self):
        W = PrecodingMatrix(np.array([[0.5 + 0j, 0.0], [0.0, 2.0 + 0j]]))
        np.testing.assert_allclose(W.row_power(), [0.25, 4.0])
        assert not W.feasible()
        np.testing.assert_array_equal(W.feasible_rows(), [True, False])
        assert PrecodingMatrix(W.W / 4).feasible()

    @pytest.mark.parametrize("seed", range(10))
    def test_baselines_feasible_at_large_budget(self, seed):
        # At P = 1e6 the precoder still lives on the unit budget 1/T.
        channel = generate_channels(SystemDims.uniform(K=8, T=64, R=4, L=2), seed=seed)
        params = calibrated_params(channel, P=1e6)
        for kind in ("MRT", "ZF", "RZF", "ARZF"):
            assert compute_baseline(channel, BaselineConfig(kind=kind, params=params)).feasible()

    @pytest.mark.parametrize("T", [1, 4, 1024])
    def test_tolerance_is_relative_to_the_cap(self, T):
        cap = 1.0 / T
        on_cap = np.full((T, 1), np.sqrt(cap), dtype=complex)
        assert PrecodingMatrix(on_cap).feasible(tol=0.0)
        over = on_cap.copy()
        over[T // 2, 0] *= np.sqrt(1.0 + 1e-9)
        W = PrecodingMatrix(over)
        assert not W.feasible()
        np.testing.assert_array_equal(W.feasible_rows(), np.arange(T) != T // 2)
        assert W.feasible(tol=1e-8)

    def test_tolerance_is_keyword_only(self):
        # A station power passed by position fails loudly instead of
        # being read as the tolerance.
        W = PrecodingMatrix(np.full((4, 1), 0.5 + 0j))
        with pytest.raises(TypeError):
            W.feasible(1.0)
        with pytest.raises(TypeError):
            W.feasible_rows(1.0)

    def test_immutable(self):
        W = PrecodingMatrix(np.zeros((2, 2), dtype=complex))
        with pytest.raises(ValueError):
            W.W[0, 0] = 1.0


class TestSymbolSinr:
    def test_scalar_system(self):
        # T = R = L = 1, H = W = g = 1 and sigma2/P = 1 gives 1 / (0 + 1).
        assert symbol_sinr([[1.0]], [[1.0]], [1.0], 1.0, 1.0, 0) == pytest.approx(1.0)

    def test_zero_interference(self):
        # Detector orthogonal to the interfering column: signal 4, noise 2.
        H = np.eye(2)
        W = np.array([[2.0, 0.0], [0.0, 5.0]], dtype=complex)
        g = np.array([1.0, 0.0])
        assert symbol_sinr(W, H, g, 2.0, 1.0, 0) == pytest.approx(2.0)

    def test_matrix_product_oracle(self):
        ch = random_channel(0, K=2, T=8, R=2, L=1)
        params = calibrated_params(ch)
        rng = np.random.default_rng(1)
        W = complex_randn(rng, (8, 2))
        # Oracle: split diagonal vs off-diagonal energy of the detector outputs.
        rows = [conjugate(user)[0] for user in ch.users]  # user l has stream l
        Z = np.stack([g @ user.H for g, user in zip(rows, ch.users)]) @ W
        power = np.abs(Z) ** 2
        for l, (g, user) in enumerate(zip(rows, ch.users)):
            noise = np.vdot(g, g).real * params.sigma2 / params.P
            expected = power[l, l] / (power[l].sum() - power[l, l] + noise)
            got = symbol_sinr(W, user.H, g, params.sigma2, params.P, l)
            assert got == pytest.approx(expected, rel=1e-12)

    def test_zero_denominator(self):
        with pytest.raises(UndefinedSinrError):
            symbol_sinr([[1.0]], [[1.0]], [0.0], 1.0, 1.0, 0)


class TestEffectiveSinr:
    def test_single_value(self):
        assert effective_sinr([3.7]) == pytest.approx(3.7)

    def test_geometric_mean(self):
        assert effective_sinr([1.0, 4.0]) == pytest.approx(2.0)

    def test_zero_absorbs(self):
        assert effective_sinr([0.0, 9.0]) == 0.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            effective_sinr([-1.0, 2.0])

    @pytest.mark.parametrize("values", [[np.nan, 2.0], [2.0, np.nan], [np.nan]])
    def test_nan_rejected(self, values):
        # A NaN is not read as an SINR of one.
        with pytest.raises(ValueError, match="NaN"):
            effective_sinr(values)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(1e-6, 1e6), min_size=1, max_size=8))
    def test_between_min_and_max(self, values):
        g = effective_sinr(values)
        assert min(values) * (1 - 1e-9) <= g <= max(values) * (1 + 1e-9)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(1e-3, 1e3), min_size=1, max_size=6), st.floats(1e-3, 1e3))
    def test_scale_covariance(self, values, c):
        scaled = effective_sinr([c * v for v in values])
        assert scaled == pytest.approx(c * effective_sinr(values), rel=1e-9)


class TestSpectralEfficiency:
    def test_unit_sinr_single_stream(self):
        ch = build_channel_set([np.eye(1)], [1])
        params = SystemParams(P=1.0, sigma2=1.0, L=1)
        report = spectral_efficiency_irc([[1.0]], ch, params)
        assert report.se_bits == pytest.approx(1.0)
        np.testing.assert_allclose(report.per_symbol, [1.0])

    def test_two_streams_sinr_three(self):
        # Diagonal system with per-symbol SINRs (3, 3): SE = 2 log2(4) = 4.
        ch = build_channel_set([np.eye(2)], [2])
        params = SystemParams(P=1.0, sigma2=1.0, L=2)
        W = np.sqrt(3.0) * np.eye(2, dtype=complex)
        report = spectral_efficiency_irc(W, ch, params)
        assert report.se_bits == pytest.approx(4.0)
        assert report.per_user_effective[0] == pytest.approx(3.0)


def load_benchmark_check():
    """perfbench/check.py, loaded by path as the benchmark loads it."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "check.py"
    spec = importlib.util.spec_from_file_location("benchmark_check", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestBenchmarkOracle:
    """The benchmark's independent SE-IRC oracle still imports and agrees with
    the library on a small ragged cell, so an export change that breaks it
    fails here too."""

    @pytest.mark.parametrize("algorithm", ["ARZF", "QN-IRC-ARZF"])
    def test_reference_se_matches_spectral_efficiency_irc(self, algorithm):
        check = load_benchmark_check()
        dims = SystemDims(K=3, T=8, R_k=(2, 2, 3), L_k=(1, 2, 2))
        channel = generate_channels(dims, seed=1)
        params = calibrated_params(channel, susinr_db=12.0)
        W = check.rebuild(algorithm, channel, params, OptimizerConfig(max_iters=5))
        se = spectral_efficiency_irc(W, channel, params).se_bits
        assert abs(check.reference_se(W, channel, params) - se) <= check.SE_REL_TOL * se
        assert check.check_row(W, channel, params, se) == []


class TestSusinr:
    def test_zero_db(self):
        ch = build_channel_set([np.eye(1)], [1])
        assert susinr(ch, 1.0) == pytest.approx(0.0, abs=1e-12)

    def test_singular_value_two(self):
        ch = build_channel_set([np.diag([2.0, 1.0])], [1])
        assert susinr(ch, 1.0) == pytest.approx(10.0 * np.log10(4.0), abs=1e-12)

    def test_zero_noise(self):
        ch = build_channel_set([np.eye(1)], [1])
        with pytest.raises(InfiniteSusinrError):
            susinr(ch, 0.0)

    # A NaN noise-to-signal ratio returned NaN.
    @pytest.mark.parametrize("noise_to_signal", [np.nan, np.inf, -1.0])
    def test_non_finite_or_negative_ratio_rejected(self, noise_to_signal):
        ch = build_channel_set([np.eye(1)], [1])
        with pytest.raises(ValueError, match="^sigma2 must be"):
            susinr(ch, noise_to_signal)


class TestConjugateQuality:
    def test_scalar_case(self):
        assert sinr_conjugate([[1.0]], [1.0], 1.0, 1.0, 1.0, 0) == pytest.approx(1.0)

    def test_orthogonal_rows_give_zero(self):
        W = np.array([[0.0, 0.0], [1.0, 1.0]], dtype=complex)
        v = np.array([1.0, 0.0])
        assert sinr_conjugate(W, v, 2.0, 1.0, 1.0, 0) == 0.0

    def test_zero_singular_value(self):
        with pytest.raises(DegenerateChannelError):
            sinr_conjugate([[1.0]], [1.0], 0.0, 1.0, 1.0, 0)

    def test_matches_symbol_sinr_under_conjugate_detection(self):
        # g_l H_k = v_l and ||g_l||^2 = 1/s_l^2 make the two formulas equal for
        # every stream count, not only L_k = 1.
        ch = random_channel(6, K=2, T=12, R=4, L=2)
        params = calibrated_params(ch)
        rng = np.random.default_rng(7)
        W = complex_randn(rng, (12, 4))
        for k, user in enumerate(ch.users):
            G = conjugate(user)
            sl = ch.dims.layer_slice(k)
            for j in range(ch.dims.L_k[k]):
                l = sl.start + j
                a = symbol_sinr(W, user.H, G[j], params.sigma2, params.P, l)
                b = sinr_conjugate(W, ch.V_tilde[l], ch.S_tilde[l], params.sigma2, params.P, l)
                assert a == pytest.approx(b, rel=1e-10)


class TestSeConjugate:
    def test_zero_precoder_is_exactly_zero(self):
        ch = random_channel(8, K=2, T=8, R=2, L=2)
        W = np.zeros((8, 4), dtype=complex)
        assert se_conjugate(W, ch.V_tilde, ch.S_tilde, 0.3) == 0.0

    def test_single_stream_matches_shannon(self):
        ch = random_channel(9, K=1, T=4, R=1, L=1)
        rng = np.random.default_rng(10)
        W = complex_randn(rng, (4, 1))
        sinr = sinr_conjugate(W, ch.V_tilde[0], ch.S_tilde[0], 0.5, 1.0, 0)
        got = se_conjugate(W, ch.V_tilde, ch.S_tilde, 0.5)
        assert got == pytest.approx(np.log2(1.0 + sinr), rel=1e-12)

    def test_equals_spectral_efficiency_for_single_stream_users(self):
        ch = random_channel(11, K=3, T=8, R=2, L=1)
        params = calibrated_params(ch)
        rng = np.random.default_rng(12)
        W = complex_randn(rng, (8, 3))
        approx = se_conjugate(W, ch.V_tilde, ch.S_tilde, params.noise_to_signal)
        exact = sum(np.log2(1.0 + symbol_sinr(W, user.H, conjugate(user)[0],
                                              params.sigma2, params.P, k))
                    for k, user in enumerate(ch.users))
        assert approx == pytest.approx(exact, rel=1e-10)

    def test_per_stream_phase_rotation_invariance(self):
        ch = random_channel(13, K=2, T=8, R=2, L=2)
        params = calibrated_params(ch)
        rng = np.random.default_rng(14)
        W = complex_randn(rng, (8, 4))
        phases = np.exp(1j * rng.uniform(0, 2 * np.pi, size=4))
        a = se_conjugate(W, ch.V_tilde, ch.S_tilde, params.noise_to_signal)
        b = se_conjugate(W * phases[None, :], ch.V_tilde, ch.S_tilde,
                         params.noise_to_signal)
        assert b == pytest.approx(a, rel=1e-10)

    def test_noise_monotonicity(self):
        ch = random_channel(15, K=2, T=8, R=2, L=2)
        rng = np.random.default_rng(16)
        W = complex_randn(rng, (8, 4))
        values = [se_conjugate(W, ch.V_tilde, ch.S_tilde, s2)
                  for s2 in (1e-4, 1e-2, 1.0, 100.0)]
        assert all(a >= b for a, b in zip(values, values[1:]))
