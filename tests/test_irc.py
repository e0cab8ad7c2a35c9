"""The batched MMSE-IRC kernel against per-user loop references.

The references below are the scalar oracle (covariance-checked `mmse_irc`
detector rows scored one symbol at a time by `symbol_sinr`) and the per-user
loop gradient the kernel replaced, kept here verbatim as the reference.
"""

import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from mimo_precoding import (
    ObjectiveSpec,
    SingularMatrixError,
    SystemDims,
    SystemParams,
    UndefinedSinrError,
    build_channel_set,
    generate_channels,
    gradient,
    mmse_irc,
    objective,
    spectral_efficiency_irc,
    symbol_sinr,
)
from mimo_precoding.irc import irc_backward, irc_forward, irc_scores

from conftest import calibrated_params, complex_randn, embed, fd_gradient, mixed_rows_precoder

_LN2 = math.log(2.0)

RAGGED_CORR = SystemDims(K=8, T=64, R_k=(1, 2, 2, 4, 4, 4, 8, 8), L_k=(1, 1, 2, 1, 2, 4, 2, 4))


def oracle_se(W, channel, params):
    """Per-symbol SINRs and SE-IRC, one user and one symbol at a time."""
    dims = channel.dims
    lam = params.noise_to_signal
    per_symbol = np.empty(dims.L)
    se = 0.0
    for k, user in enumerate(channel.users):
        G = mmse_irc(user.H, W, k, dims, lam, check_covariance_form=True)
        sl = dims.layer_slice(k)
        sinr = [symbol_sinr(W, user.H, G[j], params.sigma2, params.P, sl.start + j)
                for j in range(dims.L_k[k])]
        per_symbol[sl] = sinr
        geo = 0.0 if min(sinr) == 0.0 else math.exp(sum(map(math.log, sinr)) / len(sinr))
        se += dims.L_k[k] * math.log1p(geo) / _LN2
    return se, per_symbol


def loop_gradient(Wp, channel, params):
    """Per-user loop gradient of SE-IRC: the implementation before batching."""
    dims = channel.dims
    lam = params.noise_to_signal
    D_W = np.zeros((dims.T, dims.L), dtype=np.complex128)
    for k, user in enumerate(channel.users):
        sl = dims.layer_slice(k)
        L_k = dims.L_k[k]
        B = user.H @ Wp
        A = B[:, sl]
        Q = B @ B.conj().T + lam * np.eye(user.R_k)
        cho = scipy.linalg.cho_factor(Q, check_finite=False)
        G = scipy.linalg.cho_solve(cho, A, check_finite=False).conj().T
        Z = G @ B
        power = np.abs(Z) ** 2
        g_power = np.einsum("lr,lr->l", G, G.conj()).real
        local = np.arange(L_k)
        cols = np.arange(sl.start, sl.stop)
        signal = power[local, cols]
        off = power.copy()
        off[local, cols] = 0.0
        den = off.sum(axis=1) + g_power * lam
        sinr = signal / den
        geo = float(np.exp(np.mean(np.log(sinr))))
        c = geo / ((1.0 + geo) * _LN2 * sinr)
        u_w = c / den
        v_w = c * sinr / den
        D_Z = -v_w[:, None] * Z
        D_Z[local, cols] = u_w * Z[local, cols]
        nu = -v_w * lam
        D_G = D_Z @ B.conj().T + nu[:, None] * G
        D_A = scipy.linalg.cho_solve(cho, D_G.conj().T, check_finite=False)
        Y = D_A @ G
        D_B = G.conj().T @ D_Z - Y.conj().T @ B - Y @ B
        D_B[:, sl] += D_A
        D_W += user.H.conj().T @ D_B
    return 2.0 * D_W


def rel(a, b):
    return float(np.linalg.norm(np.asarray(a) - np.asarray(b)) / np.linalg.norm(b))


@st.composite
def ragged_case(draw, max_users=4, max_rx=4):
    K = draw(st.integers(1, max_users))
    R_k = tuple(draw(st.integers(1, max_rx)) for _ in range(K))
    L_k = tuple(draw(st.integers(1, r)) for r in R_k)
    T = draw(st.integers(max(R_k), 8))
    dims = SystemDims(K=K, T=T, R_k=R_k, L_k=L_k)
    model = draw(st.sampled_from(["iid-gaussian", "exp-correlated"]))
    channel = generate_channels(dims, seed=draw(st.integers(0, 2**16)), model=model,
                                rho=0.9 if model == "exp-correlated" else 0.0)
    params = calibrated_params(channel, susinr_db=draw(st.floats(-10.0, 40.0)))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    W = mixed_rows_precoder(rng, T, dims.L, params.P)
    return channel, params, W


def ragged_corr_case(seed):
    channel = generate_channels(RAGGED_CORR, seed=seed, model="exp-correlated", rho=0.9)
    params = calibrated_params(channel, susinr_db=20.0)
    W = mixed_rows_precoder(np.random.default_rng(seed), RAGGED_CORR.T, RAGGED_CORR.L,
                            params.P, exterior_fraction=0.0)
    return channel, params, W


class TestForward:
    @settings(max_examples=60, deadline=None)
    @given(ragged_case())
    def test_matches_scalar_oracle_on_ragged_dims(self, case):
        channel, params, W = case
        se, per_symbol = oracle_se(W, channel, params)
        report = spectral_efficiency_irc(W, channel, params)
        assert abs(report.se_bits - se) <= 1e-12 * abs(se)
        np.testing.assert_allclose(report.per_symbol, per_symbol, rtol=1e-12)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_scalar_oracle_on_ragged_corr_dims(self, seed):
        channel, params, W = ragged_corr_case(seed)
        se, per_symbol = oracle_se(W, channel, params)
        report = spectral_efficiency_irc(W, channel, params)
        assert abs(report.se_bits - se) <= 1e-12 * abs(se)
        np.testing.assert_allclose(report.per_symbol, per_symbol, rtol=1e-12)
        assert irc_forward(W, channel, params)[0] == report.se_bits

    def test_detection_set_matches_per_user_detectors(self):
        channel, params, W = ragged_corr_case(3)
        passes = irc_forward(W, channel, params)[1].passes
        for p in passes:
            for j, k in enumerate(p.group.users):
                user = channel.users[k]
                G = mmse_irc(user.H, W, k, channel.dims, params.noise_to_signal)
                assert p.G[j].shape == (channel.dims.L_k[k], user.R_k)
                assert rel(p.G[j], G) <= 1e-12
        assert sorted(k for p in passes for k in p.group.users) == list(range(channel.dims.K))

    def test_zero_noise_rank_deficient_is_singular(self):
        channel = generate_channels(SystemDims.uniform(K=2, T=8, R=2, L=1), seed=1)
        params = SystemParams(P=1.0, sigma2=0.0, L=2)
        with pytest.raises(SingularMatrixError):
            irc_forward(np.zeros((8, 2), dtype=complex), channel, params)

    def test_zero_denominator_is_undefined(self):
        # One single-stream user and no noise: no interference, no effective noise.
        channel = build_channel_set([np.array([[2.0]])], [1])
        params = SystemParams(P=1.0, sigma2=0.0, L=1)
        with pytest.raises(UndefinedSinrError):
            irc_forward(np.eye(1, dtype=complex), channel, params)

    def test_silent_user_is_undefined(self):
        # A user with no signal gets a zero detector, hence a zero denominator.
        channel = generate_channels(SystemDims.uniform(K=2, T=8, R=2, L=1), seed=2)
        params = calibrated_params(channel)
        W = complex_randn(np.random.default_rng(3), (8, 2))
        W[:, 1] = 0.0
        with pytest.raises(UndefinedSinrError, match="symbol 1"):
            spectral_efficiency_irc(W, channel, params)


class TestScores:
    @settings(max_examples=60, deadline=None)
    @given(ragged_case(max_users=7), st.integers(1, 8), st.data())
    def test_batch_equals_single_scoring_bit_for_bit(self, case, b, data):
        channel, params, W = case
        T, L = W.shape
        rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
        Ws = np.stack([W] + [mixed_rows_precoder(rng, T, L, params.P) for _ in range(b - 1)])
        if T > 1:  # one silent antenna; at T = 1 it would silence every stream
            Ws[data.draw(st.integers(0, b - 1)), data.draw(st.integers(0, T - 1))] = 0.0
        se = irc_scores(Ws, channel, params)
        assert se.shape == (b,)
        for W_j, se_j in zip(Ws, se):
            assert se_j == spectral_efficiency_irc(W_j, channel, params).se_bits

    def test_one_undefined_precoder_fails_the_pass(self):
        channel = generate_channels(SystemDims.uniform(K=2, T=8, R=2, L=1), seed=2)
        params = calibrated_params(channel)
        Ws = complex_randn(np.random.default_rng(3), (3, 8, 2))
        Ws[1, :, 1] = 0.0
        with pytest.raises(UndefinedSinrError, match="symbol 1"):
            irc_scores(Ws, channel, params)


class TestBackward:
    @settings(max_examples=60, deadline=None)
    @given(ragged_case())
    def test_matches_loop_reference_on_ragged_dims(self, case):
        channel, params, W = case
        _, cache = irc_forward(W, channel, params)
        assert rel(irc_backward(cache), loop_gradient(W, channel, params)) <= 1e-12

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_loop_reference_on_ragged_corr_dims(self, seed):
        channel, params, W = ragged_corr_case(seed)
        _, cache = irc_forward(W, channel, params)
        assert rel(irc_backward(cache), loop_gradient(W, channel, params)) <= 1e-12

    @settings(max_examples=10, deadline=None)
    @given(ragged_case(max_users=3, max_rx=3))
    def test_matches_finite_differences_on_ragged_dims(self, case):
        channel, params, W = case
        spec = ObjectiveSpec(kind="irc", channel=channel, params=params)
        g = embed(gradient(W, spec))
        fd = fd_gradient(lambda M: objective(M, spec), W)
        # The absolute term covers the ~1e-10 roundoff of central differences
        # where the gradient vanishes (e.g. a single row outside the ball).
        assert np.linalg.norm(g - fd) <= 1e-5 * np.linalg.norm(fd) + 1e-8
