import numpy as np
import pytest

from mimo_precoding import (
    DegenerateChannelError,
    SingularMatrixError,
    SystemDims,
    build_channel_set,
    mmse_irc,
)

from conftest import calibrated_params, complex_randn, random_channel
from reference import conjugate


def mmse_oracle(A, lam):
    """The plain MMSE detector A^H (A A^H + lam I)^{-1}."""
    return A.conj().T @ np.linalg.inv(A @ A.conj().T + lam * np.eye(A.shape[0]))


class TestMmseIrc:
    def test_reduces_to_mmse_when_other_users_silent(self):
        ch = random_channel(2, K=2, T=8, R=2, L=1)
        params = calibrated_params(ch)
        rng = np.random.default_rng(3)
        W = np.zeros((8, 2), dtype=complex)
        W[:, 0] = complex_randn(rng, 8)
        G_irc = mmse_irc(ch.users[0].H, W, 0, ch.dims, params.noise_to_signal)
        G_mmse = mmse_oracle(ch.users[0].H @ W[:, :1], params.noise_to_signal)
        np.testing.assert_allclose(G_irc, G_mmse, atol=1e-12)

    def test_single_user_equals_mmse(self):
        ch = random_channel(4, K=1, T=8, R=3, L=2)
        params = calibrated_params(ch)
        rng = np.random.default_rng(5)
        W = complex_randn(rng, (8, 2))
        G_irc = mmse_irc(ch.users[0].H, W, 0, ch.dims, params.noise_to_signal)
        G_mmse = mmse_oracle(ch.users[0].H @ W, params.noise_to_signal)
        np.testing.assert_allclose(G_irc, G_mmse, atol=1e-12)

    def test_covariance_form_cross_check(self):
        ch = random_channel(6, K=2, T=8, R=3, L=2)
        params = calibrated_params(ch)
        rng = np.random.default_rng(7)
        W = complex_randn(rng, (8, 4))
        for k in range(2):
            user = ch.users[k]
            cols = ch.dims.layer_slice(k)
            lam = params.noise_to_signal
            # Explicit-covariance oracle.
            W_k = W[:, cols]
            A = user.H @ W_k
            R_uu = user.H @ (W @ W.conj().T - W_k @ W_k.conj().T) @ user.H.conj().T
            G_cov = A.conj().T @ np.linalg.inv(A @ A.conj().T + R_uu + lam * np.eye(user.R_k))
            G = mmse_irc(user.H, W, k, ch.dims, lam, check_covariance_form=True)
            assert np.linalg.norm(G - G_cov) / np.linalg.norm(G_cov) <= 1e-10

    def test_zero_noise_rank_deficient_is_singular(self):
        # Two streams through a rank-one channel leave Q = B B^H singular.
        H = np.ones((2, 4), dtype=complex)
        W = complex_randn(np.random.default_rng(8), (4, 2))
        dims = SystemDims(K=1, T=4, R_k=(2,), L_k=(2,))
        with pytest.raises(SingularMatrixError, match="user 0"):
            mmse_irc(H, W, 0, dims, 0.0)


class TestConjugate:
    def test_identity_channel(self):
        user = build_channel_set([np.eye(2)], [2]).users[0]
        np.testing.assert_allclose(conjugate(user), np.eye(2), atol=1e-12)

    def test_diagonal_channel(self):
        user = build_channel_set([np.diag([2.0, 1.0])], [1]).users[0]
        np.testing.assert_allclose(conjugate(user), [[0.5, 0.0]], atol=1e-12)

    def test_product_oracle_and_row_norms(self):
        rng = np.random.default_rng(10)
        user = build_channel_set([complex_randn(rng, (4, 8))], [2]).users[0]
        G = conjugate(user)
        np.testing.assert_allclose(G @ user.H, user.V_tilde, atol=1e-10)
        norms = np.linalg.norm(G, axis=1)
        np.testing.assert_allclose(norms, 1.0 / user.S_tilde, rtol=1e-10)

    def test_zero_leading_singular_value(self):
        from mimo_precoding import UserChannel

        broken = UserChannel(H=np.zeros((2, 2), dtype=complex), U=np.eye(2, dtype=complex),
                             S=np.zeros(2), V=np.eye(2, dtype=complex), L_k=1)
        with pytest.raises(DegenerateChannelError):
            conjugate(broken)
