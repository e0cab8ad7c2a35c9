import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import mimo_precoding.baselines as baselines
from mimo_precoding import (
    BaselineConfig,
    DimensionError,
    PrecodingMatrix,
    ScenarioConfig,
    SingularMatrixError,
    SystemDims,
    SystemParams,
    ZeroPrecoderError,
    arzf,
    build_channel_set,
    compute_baseline,
    generate_channels,
    mrt,
    normalize_power,
    project,
    run_scenario,
    rzf,
    zf,
)
from mimo_precoding.baselines import KINDS, _regularized_inverse_precoder
from mimo_precoding.quality import _inside, row_power

from conftest import calibrated_params, complex_randn, random_channel


def unit_singular_channel(seed, K=2, T=8, R=2, L=2):
    """Channel whose leading singular values are all exactly one."""
    base = random_channel(seed, K=K, T=T, R=R, L=L)
    flat = [u.U.conj().T @ u.V for u in base.users]  # drop the singular values
    return build_channel_set(flat, [L] * K)


class TestNormalizePower:
    def test_already_on_boundary(self):
        # max row norm 0.5 = sqrt(1/T)
        W = np.array([[0.5, 0.0], [0.25, 0.25], [0.0, 0.5], [0.1, 0.0]], dtype=complex)
        out = normalize_power(W)
        np.testing.assert_allclose(out.W, W, atol=1e-15)

    def test_uniform_scaling(self):
        out = normalize_power(2.0 * np.eye(4))
        np.testing.assert_allclose(np.linalg.norm(out.W, axis=1), [0.5] * 4, atol=1e-15)

    def test_row_norm_scan_oracle(self):
        rng = np.random.default_rng(0)
        out = normalize_power(complex_randn(rng, (6, 3)))
        norms = np.linalg.norm(out.W, axis=1)
        cap = np.sqrt(1.0 / 6.0)
        assert np.all(norms <= cap + 1e-12)
        assert norms.max() == pytest.approx(cap, abs=1e-12)

    def test_zero_matrix(self):
        with pytest.raises(ZeroPrecoderError):
            normalize_power(np.zeros((2, 2)))

    @pytest.mark.parametrize("order", ["C", "F"])
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), T=st.integers(1, 9), L=st.integers(1, 5))
    def test_equals_public_constructor_on_scaled_input(self, order, seed, T, L):
        W = np.asarray(complex_randn(np.random.default_rng(seed), (T, L)), order=order)
        top = row_power(W).max()
        expected = PrecodingMatrix(W * np.sqrt(1.0 / T * _inside(L) / top)).W
        got = normalize_power(W).W
        assert got.tobytes() == expected.tobytes()
        assert got.flags.c_contiguous and not got.flags.writeable
        assert W.flags.writeable  # the input is left alone

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(1.0, np.nan)])
    def test_non_finite_entry_rejected(self, order, bad):
        W = np.asarray(complex_randn(np.random.default_rng(1), (5, 3)), order=order)
        W[2, 1] = bad
        with pytest.raises(ValueError, match="^precoder has non-finite entries$"):
            normalize_power(W)

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_zero_matrix_either_order(self, order):
        with pytest.raises(ZeroPrecoderError):
            normalize_power(np.zeros((4, 3), dtype=complex, order=order))

    # At 1e-155 the largest row's power is below the range the margin is
    # proven for; at 1e-160 it is subnormal, and 1/T over it overflows. RZF
    # reaches such inputs near -1600 dB.
    @pytest.mark.parametrize("c", [1e-155, 1e-160])
    def test_tiny_input_meets_the_budget_exactly(self, c):
        W = complex_randn(np.random.default_rng(0), (8, 4))
        out = normalize_power(c * W)
        assert out.feasible(tol=0.0)
        assert project(out).tobytes() == out.W.tobytes()
        np.testing.assert_allclose(out.W, normalize_power(W).W, rtol=0, atol=1e-15)

    # Finite and nonzero, but at 1e160 a row's power overflows, at 1e-165 it
    # underflows to zero, and 1e-310 is subnormal.
    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("c", [1e160, 1e300, 1e-165, 1e-300, 1e-310])
    def test_extreme_input_normalizes_like_the_unscaled_one(self, c, order):
        for seed in range(5):
            W = complex_randn(np.random.default_rng(seed), (8, 4))
            out = normalize_power(np.asarray(c * W, order=order))
            assert out.feasible(tol=0.0)
            assert project(out).tobytes() == out.W.tobytes()
            np.testing.assert_allclose(out.W, normalize_power(W).W, rtol=0, atol=1e-14)

    def test_far_below_the_noise_every_baseline_fails_at_scoring(self):
        # At -1620 dB the RZF and ARZF precoders are normalized like MRT's and
        # ZF's, and every row fails where MRT's does: its SINR is 0 / 0.
        cfg = ScenarioConfig(seeds=(0,), susinr_grid_db=(-1620.0,), algorithms=KINDS)
        errors = [r.error for r in run_scenario(cfg).rows]
        assert all(e.startswith("UndefinedSinrError: user 0, symbol 0: zero denominator")
                   for e in errors), errors

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.floats(0.1, 10.0))
    def test_scale_absorbed(self, seed, c):
        rng = np.random.default_rng(seed)
        W = complex_randn(rng, (4, 2))
        a = normalize_power(W).W
        b = normalize_power(c * W).W
        np.testing.assert_allclose(a, b, atol=1e-12)


class TestMrt:
    def test_single_direction(self):
        ch = build_channel_set([np.array([[0.0, 2.0, 0.0]])], [1])
        cfg = BaselineConfig(kind="MRT", params=SystemParams(P=1.0, sigma2=0.1, L=1))
        W = mrt(ch, cfg).W
        # Beam along the only right singular vector e_2.
        assert abs(W[1, 0]) > 0
        np.testing.assert_allclose(W[[0, 2], 0], 0.0, atol=1e-12)

    def test_orthogonal_columns_for_orthonormal_rows(self):
        # Users carved from disjoint rows of one unitary: the stacked singular
        # vectors form a single orthonormal set.
        rng = np.random.default_rng(1)
        Q, _ = np.linalg.qr(complex_randn(rng, (8, 8)))
        ch = build_channel_set([Q[:2], Q[2:4]], [2, 2])
        cfg = BaselineConfig(kind="MRT", params=SystemParams(P=1.0, sigma2=0.1, L=4))
        W = mrt(ch, cfg).W
        gram = W.conj().T @ W
        off = gram - np.diag(np.diag(gram))
        assert np.linalg.norm(off) <= 1e-10 * np.linalg.norm(gram)

    def test_cosine_similarity_oracle(self):
        ch = random_channel(2, K=2, T=8, R=2, L=2)
        params = calibrated_params(ch)
        W = mrt(ch, BaselineConfig(kind="MRT", params=params)).W
        target = ch.V_tilde.conj().T
        for l in range(ch.dims.L):
            cos = abs(np.vdot(target[:, l], W[:, l])) / (
                np.linalg.norm(target[:, l]) * np.linalg.norm(W[:, l]))
            assert cos == pytest.approx(1.0, abs=1e-12)


class TestZf:
    def test_interference_nulling_oracle(self):
        ch = random_channel(3, K=2, T=12, R=3, L=2)
        params = calibrated_params(ch)
        W = zf(ch, BaselineConfig(kind="ZF", params=params)).W
        coupled = ch.V_tilde @ W
        off = coupled - np.diag(np.diag(coupled))
        assert np.linalg.norm(off) <= 1e-10 * np.linalg.norm(np.diag(np.diag(coupled)))

    def test_equals_mrt_for_orthonormal_rows(self):
        rng = np.random.default_rng(4)
        Q, _ = np.linalg.qr(complex_randn(rng, (8, 8)))
        ch = build_channel_set([Q[:2], Q[2:4]], [2, 2])
        params = SystemParams(P=1.0, sigma2=0.2, L=4)
        a = zf(ch, BaselineConfig(kind="ZF", params=params)).W
        b = mrt(ch, BaselineConfig(kind="MRT", params=params)).W
        np.testing.assert_allclose(a, b, atol=1e-10)

    def test_single_stream_equals_mrt(self):
        ch = random_channel(5, K=1, T=8, R=2, L=1)
        params = calibrated_params(ch)
        a = zf(ch, BaselineConfig(kind="ZF", params=params)).W
        b = mrt(ch, BaselineConfig(kind="MRT", params=params)).W
        np.testing.assert_allclose(a, b, atol=1e-12)


def near_dependent_channel(delta):
    """Three users, the third a copy of the first perturbed by delta, so two
    pairs of streams are nearly dependent: the Gram matrix's condition number
    grows like 1 / delta^2."""
    mats = [u.H for u in random_channel(20, K=2, T=8, R=2, L=2).users]
    noise = complex_randn(np.random.default_rng(21), mats[0].shape)
    return build_channel_set(mats + [mats[0] + delta * noise], [2, 2, 2])


def zf_cfg():
    return BaselineConfig(kind="ZF", params=SystemParams(P=1.0, sigma2=0.1, L=6))


class TestZfConditioning:
    """Above 1e14 the Gram matrix is singular, between 1e12 and 1e14 ZF warns,
    below it is silent, whether or not the exact condition number is taken."""

    @pytest.mark.parametrize("delta,low,high", [(1e-4, 1e9, 1e10), (1e-5, 1e11, 1e12)])
    def test_silent_below_warning_threshold(self, delta, low, high):
        ch = near_dependent_channel(delta)
        assert low < np.linalg.cond(ch.gram) < high
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            W = zf(ch, zf_cfg())
        assert W.feasible(tol=0.0)

    def test_one_warning_between_thresholds(self):
        ch = near_dependent_channel(1e-6)
        assert 1e12 < np.linalg.cond(ch.gram) < 1e14
        with pytest.warns(RuntimeWarning) as record:
            zf(ch, zf_cfg())
        assert len(record) == 1
        assert str(record[0].message) == (
            "zero-forcing: stream correlation matrix condition number above 1e+12")
        assert record[0].filename == __file__  # reported at the caller of zf

    @pytest.mark.parametrize("delta,cholesky_info", [(1e-7, 0), (1e-8, 6)])
    def test_singular_above_1e14_names_the_cond(self, delta, cholesky_info):
        # The first Gram matrix still factors; the error must not depend on it.
        ch = near_dependent_channel(delta)
        assert np.linalg.cond(ch.gram) > 1e14
        assert baselines.zpotrf(ch.gram, clean=False)[1] == cholesky_info
        with pytest.raises(SingularMatrixError, match=r"^zero-forcing: stream correlation "
                                                      r"matrix is singular \(cond [0-9.e+]+\)$"):
            zf(ch, zf_cfg())

    def test_failed_cholesky_below_1e14_names_the_leading_minor(self, monkeypatch):
        ch = random_channel(22, K=3, T=8, R=2, L=2)
        real = baselines.zpotrf
        monkeypatch.setattr(baselines, "zpotrf", lambda *a, **kw: (real(*a, **kw)[0], 2))
        with pytest.raises(SingularMatrixError, match=r"^zero-forcing: 2-th leading minor "
                                                      r"of the array is not positive definite$"):
            zf(ch, zf_cfg())

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_bound_norm_is_np_linalg_norm(self, order):
        # The bound reads the C-ordered Gram matrix and zpotrs' F-ordered X.
        a = np.asarray(complex_randn(np.random.default_rng(5), (16, 16)), order=order)
        assert baselines._frobenius(a) == np.linalg.norm(a)

    def test_well_conditioned_zf_takes_no_svd(self, monkeypatch):
        calls = []
        real = np.linalg.cond
        monkeypatch.setattr(np.linalg, "cond", lambda *a, **kw: calls.append(1) or real(*a, **kw))
        dims = SystemDims.uniform(K=8, T=64, R=4, L=2)
        for seed in range(4):
            ch = generate_channels(dims, seed)
            zf(ch, BaselineConfig(kind="ZF", params=calibrated_params(ch)))
        assert calls == []
        zf(near_dependent_channel(1e-5), zf_cfg())  # near the threshold: exact
        assert calls == [1]


class TestRzf:
    def test_zero_noise_equals_zf(self):
        ch = random_channel(6, K=2, T=8, R=2, L=2)
        params = SystemParams(P=1.0, sigma2=0.0, L=4)
        a = rzf(ch, BaselineConfig(kind="RZF", params=params)).W
        b = zf(ch, BaselineConfig(kind="ZF", params=params)).W
        np.testing.assert_allclose(a, b, atol=1e-10)

    def test_large_regularizer_approaches_mrt(self):
        ch = random_channel(7, K=2, T=8, R=2, L=2)
        params = SystemParams(P=1.0, sigma2=1e8, L=4)
        W = rzf(ch, BaselineConfig(kind="RZF", params=params)).W
        M = mrt(ch, BaselineConfig(kind="MRT", params=params)).W
        for l in range(4):
            cos = abs(np.vdot(M[:, l], W[:, l])) / (
                np.linalg.norm(M[:, l]) * np.linalg.norm(W[:, l]))
            assert cos >= 1.0 - 1e-6

    def test_solve_residual_oracle(self):
        ch = random_channel(8, K=2, T=8, R=2, L=2)
        params = calibrated_params(ch)
        Wn = rzf(ch, BaselineConfig(kind="RZF", params=params)).W
        # Recover the unnormalized solve: columns of V^H X with X solving
        # (gram + reg) X = I, so gram @ X + reg X - I must vanish.
        gram = ch.V_tilde @ ch.V_tilde.conj().T
        lhs = gram + params.regularizer * np.eye(ch.dims.L)
        X = np.linalg.solve(lhs, np.eye(ch.dims.L))
        assert np.linalg.norm(lhs @ X - np.eye(ch.dims.L)) <= 1e-10
        expected = normalize_power(ch.V_tilde.conj().T @ X).W
        np.testing.assert_allclose(Wn, expected, atol=1e-12)


class TestArzf:
    def test_unit_singular_values_equal_rzf(self):
        ch = unit_singular_channel(9)
        params = SystemParams(P=1.0, sigma2=0.3, L=4)
        a = arzf(ch, BaselineConfig(kind="ARZF", params=params)).W
        b = rzf(ch, BaselineConfig(kind="RZF", params=params)).W
        np.testing.assert_allclose(a, b, atol=1e-10)

    def test_zero_noise_equals_zf(self):
        ch = random_channel(10, K=2, T=8, R=2, L=2)
        params = SystemParams(P=1.0, sigma2=0.0, L=4)
        a = arzf(ch, BaselineConfig(kind="ARZF", params=params)).W
        b = zf(ch, BaselineConfig(kind="ZF", params=params)).W
        np.testing.assert_allclose(a, b, atol=1e-10)

    def test_solve_residual_oracle(self):
        ch = random_channel(11, K=2, T=8, R=2, L=2)
        params = calibrated_params(ch)
        Wn = arzf(ch, BaselineConfig(kind="ARZF", params=params)).W
        gram = ch.V_tilde @ ch.V_tilde.conj().T
        lhs = gram + np.diag(params.regularizer / ch.S_tilde**2)
        X = np.linalg.solve(lhs, np.eye(ch.dims.L))
        assert np.linalg.norm(lhs @ X - np.eye(ch.dims.L)) <= 1e-10
        expected = normalize_power(ch.V_tilde.conj().T @ X).W
        np.testing.assert_allclose(Wn, expected, atol=1e-12)


@pytest.mark.parametrize("builder,kind", [(rzf, "RZF"), (arzf, "ARZF")])
def test_stream_count_must_match_the_channel(builder, kind):
    # params.L sets the regularizer; a count other than the channel's used to
    # move RZF on the default dims from 53.42 to 66.32 bit/s/Hz unnoticed.
    ch = generate_channels(SystemDims.uniform(K=8, T=64, R=4, L=2), seed=0)
    params = SystemParams(P=1.0, sigma2=0.1, L=4)
    with pytest.raises(DimensionError, match="params.L=4 but the channel carries 16 streams"):
        builder(ch, BaselineConfig(kind=kind, params=params))


class TestSharedContracts:
    @pytest.mark.parametrize("builder,kind", [(mrt, "MRT"), (zf, "ZF"), (rzf, "RZF"), (arzf, "ARZF")])
    def test_per_antenna_feasibility_with_boundary_row(self, builder, kind):
        ch = random_channel(12, K=2, T=8, R=2, L=2)
        params = calibrated_params(ch)
        W = builder(ch, BaselineConfig(kind=kind, params=params))
        assert W.feasible(tol=0.0)
        cap = 1.0 / ch.dims.T
        assert W.row_power().max() == pytest.approx(cap, abs=1e-12)

    @pytest.mark.parametrize("dims,model,rho", [
        (SystemDims.uniform(K=8, T=64, R=4, L=2), "iid-gaussian", 0.0),
        (SystemDims(K=8, T=64, R_k=(1, 2, 2, 4, 4, 4, 8, 8), L_k=(1, 1, 2, 1, 2, 4, 2, 4)),
         "exp-correlated", 0.9),
    ], ids=["uniform", "ragged"])
    def test_exactly_feasible_and_fixed_by_the_projection(self, dims, model, rho):
        # A largest row put on 1/T to rounding reads over it in about a fifth
        # of these 720 precoders; only the projection's margin meets the
        # budget with no tolerance.
        for seed in range(10):
            ch = generate_channels(dims, seed, model, rho)
            for P in (1e-3, 1.0, 1e6):
                for susinr_db in (-4.0, 12.0, 40.0):
                    params = calibrated_params(ch, susinr_db, P)
                    for kind in KINDS:
                        W = compute_baseline(ch, BaselineConfig(kind=kind, params=params))
                        assert W.feasible(tol=0.0), (seed, P, susinr_db, kind)
                        assert project(W).tobytes() == W.W.tobytes(), (seed, P, susinr_db, kind)


def scipy_reference(channel, cfg):
    """ZF/RZF/ARZF through scipy's cho_factor/cho_solve, as the builders
    computed them before calling LAPACK directly."""
    p = cfg.params
    Vt = channel.V_tilde
    gram = Vt @ Vt.conj().T
    reg = {"ZF": None, "RZF": np.full(channel.dims.L, p.regularizer),
           "ARZF": p.regularizer / channel.S_tilde**2}[cfg.kind]
    lhs = gram if reg is None else gram + np.diag(reg)
    c, low = scipy.linalg.cho_factor(lhs, check_finite=False)
    X = scipy.linalg.cho_solve((c, low), np.eye(len(Vt), dtype=np.complex128),
                               check_finite=False)
    return normalize_power(Vt.conj().T @ X).W


class TestDirectLapack:
    @pytest.mark.parametrize("dims,model,rho", [
        (SystemDims.uniform(K=8, T=64, R=4, L=2), "iid-gaussian", 0.0),
        (SystemDims(K=8, T=64, R_k=(1, 2, 2, 4, 4, 4, 8, 8), L_k=(1, 1, 2, 1, 2, 4, 2, 4)),
         "exp-correlated", 0.9),
    ], ids=["uniform", "ragged"])
    @pytest.mark.parametrize("kind", ["ZF", "RZF", "ARZF"])
    def test_equals_scipy_cholesky_bitwise(self, dims, model, rho, kind):
        for seed in range(4):
            ch = generate_channels(dims, seed, model, rho)
            for susinr_db in (-4.0, 12.0, 40.0):
                cfg = BaselineConfig(kind=kind, params=calibrated_params(ch, susinr_db))
                got = compute_baseline(ch, cfg).W
                assert got.tobytes() == scipy_reference(ch, cfg).tobytes()

    def test_gram_is_cached_and_read_only(self):
        ch = random_channel(13, K=3, T=8, R=2, L=2)
        assert ch.gram is ch.gram
        assert not ch.gram.flags.writeable
        assert ch.gram.tobytes() == (ch.V_tilde @ ch.V_tilde.conj().T).tobytes()

    def test_indefinite_system_raises_singular_matrix_error(self):
        ch = random_channel(14, K=2, T=8, R=2, L=2)
        with pytest.raises(SingularMatrixError, match=r"^test context: 1-th leading minor "
                                                      r"of the array is not positive definite$"):
            _regularized_inverse_precoder(ch, np.full(ch.dims.L, -10.0), "test context")

    @pytest.mark.parametrize("routine", ["zpotrf", "zpotrs"])
    def test_illegal_argument_is_a_programming_error(self, monkeypatch, routine):
        # LAPACK's info < 0 flags a bad call, not a bad channel: it must not
        # become a failed row.
        real = getattr(baselines, routine)
        monkeypatch.setattr(baselines, routine, lambda *a, **kw: (real(*a, **kw)[0], -3))
        cfg = ScenarioConfig(dims=SystemDims.uniform(K=2, T=8, R=2, L=2), seeds=(0,),
                             susinr_grid_db=(12.0,), algorithms=("MRT", "RZF"))
        with pytest.raises(ValueError, match="illegal value in argument 3"):
            run_scenario(cfg)
