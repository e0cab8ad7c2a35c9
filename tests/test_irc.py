"""The batched MMSE-IRC kernel against per-user loop references.

The references below are the scalar oracle (covariance-checked `mmse_irc`
detector rows scored one symbol at a time by `symbol_sinr`) and the per-user
loop gradient the kernel replaced, kept here verbatim as the reference.
"""

import math
import warnings
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mimo_precoding import (
    BaselineConfig,
    NumericalFailureError,
    ObjectiveSpec,
    PrecodingMatrix,
    ScenarioConfig,
    SingularMatrixError,
    SystemDims,
    SystemParams,
    UndefinedSinrError,
    arzf,
    build_channel_set,
    generate_channels,
    gradient,
    mmse_irc,
    mrt,
    objective,
    spectral_efficiency_irc,
    symbol_sinr,
)
from mimo_precoding import irc
from mimo_precoding.harness import cell, run_algorithm
from mimo_precoding.irc import irc_backward, irc_forward

import reference
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
    W = mixed_rows_precoder(rng, T, dims.L)
    return channel, params, W


def ragged_corr_case(seed):
    channel = generate_channels(RAGGED_CORR, seed=seed, model="exp-correlated", rho=0.9)
    params = calibrated_params(channel, susinr_db=20.0)
    W = mixed_rows_precoder(np.random.default_rng(seed), RAGGED_CORR.T, RAGGED_CORR.L,
                            exterior_fraction=0.0)
    return channel, params, W


class TestGeometricMeans:
    @pytest.mark.parametrize("setting", ["iid", "ragged-corr"])
    def test_zero_sinr_branch_matches_masked_reference(self, setting):
        # One stream of one precoder scaled by 1e-150: its SINR underflows to
        # zero, so score_group takes its silenced-log branch for the stack.
        channel, params, Ws = TestStackErrors().stack(setting)
        stream, user = TestStackErrors.STREAM[setting]
        Ws[1, :, stream] *= 1e-150
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, cache = irc_forward(Ws, channel, params)
        assert not all(p.positive for p in cache.passes)
        for p in cache.passes:
            expected = reference.geometric_means(p.sinr)
            assert p.eff.shape == expected.shape and p.eff.tobytes() == expected.tobytes()
            if user in p.group.users:
                assert p.eff[1, list(p.group.users).index(user)] == 0.0


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

    def test_nan_precoder_entry_is_a_numerical_failure(self):
        # A NaN reaching the SINRs used to be read as SINR 1: 16.0 bit/s/Hz.
        channel = generate_channels(SystemDims.uniform(K=8, T=64, R=4, L=2), seed=0)
        params = SystemParams(P=1.0, sigma2=0.1, L=16)
        W = mrt(channel, BaselineConfig(kind="MRT", params=params)).W.copy()
        W[0, 0] = np.nan
        with pytest.raises(NumericalFailureError, match="denominator is nan"):
            spectral_efficiency_irc(W, channel, params)

    def test_nan_noise_is_a_numerical_failure(self):
        # SystemParams rejects a NaN sigma2; the kernel's gate holds without it.
        channel = generate_channels(SystemDims.uniform(K=8, T=64, R=4, L=2), seed=0)
        W = mrt(channel, BaselineConfig(kind="MRT", params=calibrated_params(channel))).W
        with pytest.raises(NumericalFailureError, match="denominator is nan"):
            irc_forward(W, channel, SimpleNamespace(noise_to_signal=math.nan))

    def test_silent_user_is_undefined(self):
        # A user with no signal gets a zero detector, hence a zero denominator.
        channel = generate_channels(SystemDims.uniform(K=2, T=8, R=2, L=1), seed=2)
        params = calibrated_params(channel)
        W = complex_randn(np.random.default_rng(3), (8, 2))
        W[:, 1] = 0.0
        with pytest.raises(UndefinedSinrError, match="symbol 1"):
            spectral_efficiency_irc(W, channel, params)


def counting_cholesky():
    """Wrap the np.linalg.cholesky that irc calls, counting its calls."""
    return mock.patch.object(irc.np.linalg, "cholesky", wraps=irc.np.linalg.cholesky)


class TestPositiveDefiniteness:
    # Two proportional nonzero columns make every B = H_k W rank one, so at
    # these noise powers each Q is singular to working precision. With the
    # Cholesky test removed most draws end in UndefinedSinrError instead.
    @pytest.mark.parametrize("sigma2", [1e-16, 1e-20, 1e-30])
    def test_rank_one_products_are_singular(self, sigma2):
        dims = SystemDims.uniform(K=2, T=8, R=4, L=2)
        params = SystemParams(P=1.0, sigma2=sigma2, L=4)
        for draw in range(5):
            w = complex_randn(np.random.default_rng(draw), 8)
            W = np.zeros((8, 4), dtype=complex)
            W[:, 0], W[:, 2] = w, (0.3 - 0.7j) * w
            with pytest.raises(SingularMatrixError, match=r"users \[0, 1\]"):
                irc_forward(W, generate_channels(dims, seed=draw), params)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 3), st.integers(1, 8), st.integers(1, 16), st.integers(1, 8),
           st.floats(-30.0, 0.0), st.floats(-100.0, 100.0), st.integers(0, 2**16))
    # Cholesky accepts this Q + lam I, and LU meets an exact zero pivot.
    @example(n=1, R=2, L=1, rank=1, log_ratio=-17.0, log_scale=27.0, seed=200)
    def test_skipped_only_where_cholesky_succeeds(self, n, R, L, rank, log_ratio,
                                                  log_scale, seed):
        # B of any rank up to min(R, L), lam from 1e-30 to 1 times max Q_ii.
        rng = np.random.default_rng(seed)
        rank = min(rank, R, L)
        B = (complex_randn(rng, (n, R, rank)) @ complex_randn(rng, (n, rank, L))
             * 10.0 ** log_scale)
        Q = B @ B.conj().swapaxes(-1, -2)
        lam = 10.0 ** log_ratio * Q.reshape(n, R * R)[:, ::R + 1].real.max()
        with counting_cholesky() as chol:
            try:
                irc._hpd_inverse(Q, lam, L, np.arange(n))
            except SingularMatrixError:
                assert chol.called
        if not chol.called:
            np.linalg.cholesky(Q)  # Q now holds Q + lam I

    def test_bound_at_default_dims(self):
        # 4 R (L + R + 5) u = 400 * 2^-53, about 4.44e-14, at R = 4, L = 16.
        B = complex_randn(np.random.default_rng(0), (2, 4, 16))
        M = (B @ B.conj().swapaxes(-1, -2)).reshape(2, 16)[:, ::5].real.max()
        for ratio, calls in ((4.5e-14, 0), (4.4e-14, 1), (0.0, 1)):
            with counting_cholesky() as chol:
                irc._hpd_inverse(B @ B.conj().swapaxes(-1, -2), ratio * M, 16, np.arange(2))
            assert chol.call_count == calls, ratio

    @pytest.mark.parametrize("susinr_db, tested", [(-4.0, False), (40.0, False), (200.0, True)])
    def test_qn_run_factors_each_detector_once(self, susinr_db, tested):
        cfg = ScenarioConfig()
        channel, params = cell(cfg, 0, susinr_db)
        with counting_cholesky() as chol:
            run_algorithm("QN-IRC-ARZF", channel, params, cfg.optimizer)
        assert chol.called == tested


class TestCompiledEntryPoints:
    """The library calls the compiled routines behind np.linalg.inv and
    np.einsum directly; each must give the public function's bytes on the
    operands the library hands it."""

    @pytest.mark.parametrize("R", [1, 4, 8])
    @pytest.mark.parametrize("n", [1, 8, 32])
    def test_inv_is_np_linalg_inv(self, n, R):
        rng = np.random.default_rng(10 * n + R)
        B = complex_randn(rng, (n, R, max(1, R // 2)))  # rank-deficient for R > 1
        Q0 = B @ B.conj().swapaxes(1, 2)
        top = Q0.reshape(n, R * R)[:, ::R + 1].real.max()
        for ratio in (1e-12, 1e-9, 1e-6, 1e-3, 1.0):
            Q = Q0 + ratio * top * np.eye(R)
            got = irc._umath_linalg.inv(Q, signature="D->D")
            assert got.tobytes() == np.linalg.inv(Q).tobytes(), ratio

    @pytest.mark.parametrize("shape", [(1, 1, 1), (8, 2, 4), (32, 4, 8), (96, 16, 4)], ids=str)
    def test_einsum_of_detector_rows(self, shape):
        G = complex_randn(np.random.default_rng(shape[0]), shape)
        got = irc.c_einsum("nlr,nlr->nl", G, G.conj())
        assert got.tobytes() == np.einsum("nlr,nlr->nl", G, G.conj()).tobytes()

    @pytest.mark.parametrize("shape", [(1, 1), (64, 2), (64, 16), (256, 64)], ids=str)
    def test_einsum_of_rows(self, shape):
        rng = np.random.default_rng(shape[1])
        W, D = complex_randn(rng, shape), complex_randn(rng, shape)
        Wf = W.view(np.float64)
        assert (irc.c_einsum("ml,ml->m", Wf, Wf).tobytes()
                == np.einsum("ml,ml->m", Wf, Wf).tobytes())
        assert (irc.c_einsum("ml,ml->m", D, W.conj()).tobytes()
                == np.einsum("ml,ml->m", D, W.conj()).tobytes())


class TestScores:
    @settings(max_examples=60, deadline=None)
    @given(ragged_case(max_users=7), st.integers(1, 8), st.data())
    def test_batch_equals_single_scoring_bit_for_bit(self, case, b, data):
        channel, params, W = case
        T, L = W.shape
        rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
        Ws = np.stack([W] + [mixed_rows_precoder(rng, T, L) for _ in range(b - 1)])
        if T > 1:  # one silent antenna; at T = 1 it would silence every stream
            Ws[data.draw(st.integers(0, b - 1)), data.draw(st.integers(0, T - 1))] = 0.0
        se, cache = irc_forward(Ws, channel, params)
        grad = irc_backward(cache)
        assert se.shape == (b,) and grad.shape == (b, T, L)
        for W_j, se_j, grad_j in zip(Ws, se, grad):
            assert se_j == spectral_efficiency_irc(W_j, channel, params).se_bits
            lone_se, lone_cache = irc_forward(W_j, channel, params)
            assert type(lone_se) is float and se_j.tobytes() == np.float64(lone_se).tobytes()
            assert grad_j.tobytes() == irc_backward(lone_cache).tobytes()

    def test_one_undefined_precoder_fails_the_pass(self):
        channel = generate_channels(SystemDims.uniform(K=2, T=8, R=2, L=1), seed=2)
        params = calibrated_params(channel)
        Ws = complex_randn(np.random.default_rng(3), (3, 8, 2))
        Ws[1, :, 1] = 0.0
        with pytest.raises(UndefinedSinrError, match="user 1, symbol 1"):
            irc_forward(Ws, channel, params)[0]


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

    def test_zero_sinr_passes_the_forward_but_not_the_backward(self):
        # Stream 0 scaled by 1e-150 has a denominator of about 3e-302 and a
        # signal power that underflows: SINR 0, a finite value, no gradient.
        channel = generate_channels(SystemDims.uniform(K=8, T=64, R=4, L=2), seed=0)
        params = calibrated_params(channel, susinr_db=-4.0)
        W = arzf(channel, BaselineConfig(kind="ARZF", params=params)).W.copy()
        W[:, 0] *= 1e-150
        se, cache = irc_forward(W, channel, params)
        assert se == pytest.approx(0.5505, abs=1e-4)
        assert cache.passes[0].sinr[0, 0] == 0.0 < cache.passes[0].den[0, 0] < 1e-300
        assert spectral_efficiency_irc(W, channel, params).zero_sinr_users == (0,)
        with pytest.raises(NumericalFailureError,
                           match="^user 0: spectral efficiency not differentiable "):
            irc_backward(cache)


class TestStackErrors:
    """A stack's failures name the user and symbol at fault, as a lone pass
    of that precoder would, and scoring fails only that precoder's row."""

    SETTINGS = {
        "iid": (SystemDims.uniform(K=8, T=64, R=4, L=2), "iid-gaussian", 0.0),
        "ragged-corr": (RAGGED_CORR, "exp-correlated", 0.9),
    }
    # A stream of a group with several users in the iid layout, one of a
    # user with four streams in the ragged one: (stream, its user).
    STREAM = {"iid": (9, 4), "ragged-corr": (9, 5)}

    def stack(self, setting):
        dims, model, rho = self.SETTINGS[setting]
        channel = generate_channels(dims, seed=0, model=model, rho=rho)
        params = calibrated_params(channel, susinr_db=-4.0)
        Ws = np.stack([run_algorithm(a, channel, params, None)[0].W
                       for a in ("ARZF", "RZF", "MRT")])
        return channel, params, Ws

    @pytest.mark.parametrize("setting", sorted(SETTINGS))
    def test_zeroed_stream_of_one_precoder_names_its_user_and_symbol(self, setting):
        channel, params, Ws = self.stack(setting)
        stream, user = self.STREAM[setting]
        Ws[2, :, stream] = 0.0
        with pytest.raises(UndefinedSinrError, match=f"^user {user}, symbol {stream}: "):
            irc_forward(Ws, channel, params)

    @pytest.mark.parametrize("setting", sorted(SETTINGS))
    def test_zero_sinr_of_one_precoder_fails_only_the_backward(self, setting):
        channel, params, Ws = self.stack(setting)
        stream, user = self.STREAM[setting]
        Ws[1, :, stream] *= 1e-150
        se, cache = irc_forward(Ws, channel, params)
        assert se.shape == (3,) and np.isfinite(se).all()
        with pytest.raises(NumericalFailureError,
                           match=f"^user {user}: spectral efficiency not differentiable "):
            irc_backward(cache)

    @pytest.mark.parametrize("setting", sorted(SETTINGS))
    def test_scoring_fails_only_the_precoder_at_fault(self, setting):
        from mimo_precoding.harness import _score

        channel, params, Ws = self.stack(setting)
        stream, user = self.STREAM[setting]
        Ws[2, :, stream] = 0.0
        scores = _score([PrecodingMatrix(W) for W in Ws], channel, params)
        assert scores[2].startswith(f"UndefinedSinrError: user {user}, symbol {stream}: ")
        for W, got in zip(Ws[:2], scores[:2]):
            lone = irc_forward(W, channel, params)[0]
            assert type(got) is float and np.float64(got).tobytes() == np.float64(lone).tobytes()
