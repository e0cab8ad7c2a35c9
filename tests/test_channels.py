import numpy as np
import pytest

from mimo_precoding import ConfigError, SystemDims, generate_channels
from mimo_precoding.channels import _exp_correlation_sqrt, _user_rng

from conftest import stacked


class TestDeterminism:
    def test_same_seed_same_bits(self):
        dims = SystemDims.uniform(K=1, T=2, R=1, L=1)
        a = generate_channels(dims, seed=5)
        b = generate_channels(dims, seed=5)
        np.testing.assert_array_equal(stacked(a), stacked(b))

    def test_different_seeds_differ(self):
        dims = SystemDims.uniform(K=2, T=4, R=2, L=1)
        a = generate_channels(dims, seed=0)
        b = generate_channels(dims, seed=1)
        assert not np.array_equal(stacked(a), stacked(b))

    def test_adding_users_preserves_earlier_streams(self):
        small = generate_channels(SystemDims.uniform(K=2, T=8, R=2, L=1), seed=3)
        large = generate_channels(SystemDims.uniform(K=5, T=8, R=2, L=1), seed=3)
        for k in range(2):
            np.testing.assert_array_equal(small.users[k].H, large.users[k].H)

    @pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**32, 2**64 + 3])
    def test_user_streams_are_seed_sequence_of_seed_and_user(self, seed):
        # One-, two- and three-word seeds: each user's draws are those of
        # SeedSequence([seed, user]) byte for byte.
        for user in range(10):
            want = np.random.default_rng(np.random.SeedSequence([seed, user]))
            got = _user_rng(seed, user)
            assert got.standard_normal(64).tobytes() == want.standard_normal(64).tobytes()
            assert got.integers(0, 2**63, 8).tobytes() == want.integers(0, 2**63, 8).tobytes()

    def test_rho_zero_equals_iid_bitwise(self):
        dims = SystemDims.uniform(K=2, T=8, R=2, L=1)
        a = generate_channels(dims, seed=4, model="iid-gaussian")
        b = generate_channels(dims, seed=4, model="exp-correlated", rho=0.0)
        np.testing.assert_array_equal(stacked(a), stacked(b))


class TestStatistics:
    def test_iid_row_covariance_oracle(self):
        # Pool >= 1e4 channel rows and compare their sample covariance with the
        # identity, entrywise.
        dims = SystemDims.uniform(K=8, T=64, R=4, L=2)
        n_sets = 313  # 313 * 32 rows > 1e4
        rows = np.vstack([stacked(generate_channels(dims, seed=s)) for s in range(n_sets)])
        cov = rows.conj().T @ rows / rows.shape[0]
        delta = np.abs(cov - np.eye(64))
        assert delta.max() <= 0.05

    def test_correlated_transmit_covariance_oracle(self):
        # For H = Cr^1/2 X Ct^1/2 the expectation of H^H H is tr(Cr) * Ct.
        rho = 0.6
        T, R = 8, 4
        dims = SystemDims.uniform(K=1, T=T, R=R, L=1)
        acc = np.zeros((T, T), dtype=complex)
        n = 3000
        for s in range(n):
            H = stacked(generate_channels(dims, seed=s, model="exp-correlated", rho=rho))
            acc += H.conj().T @ H
        idx = np.arange(T)
        C_t = rho ** np.abs(idx[:, None] - idx[None, :])
        C_r = rho ** np.abs(np.arange(R)[:, None] - np.arange(R)[None, :])
        expected = np.trace(C_r) * C_t
        got = acc / n
        assert np.linalg.norm(got - expected) / np.linalg.norm(expected) <= 0.05

    def test_unit_entry_variance(self):
        dims = SystemDims.uniform(K=4, T=32, R=4, L=1)
        H = np.vstack([stacked(generate_channels(dims, seed=s)) for s in range(50)])
        assert np.mean(np.abs(H) ** 2) == pytest.approx(1.0, rel=0.05)


class TestValidation:
    def test_unknown_model(self):
        dims = SystemDims.uniform(K=1, T=2, R=1, L=1)
        with pytest.raises(ConfigError):
            generate_channels(dims, seed=0, model="rayleigh")

    def test_rho_range(self):
        dims = SystemDims.uniform(K=1, T=2, R=1, L=1)
        with pytest.raises(ConfigError):
            generate_channels(dims, seed=0, model="exp-correlated", rho=1.0)

    def test_negative_seed(self):
        dims = SystemDims.uniform(K=1, T=2, R=1, L=1)
        with pytest.raises(ConfigError):
            generate_channels(dims, seed=-1)

    # True used to draw seed 1, and 1.5 to raise numpy's bare TypeError.
    @pytest.mark.parametrize("seed", [True, 1.5, np.float64(2.0), "3"])
    def test_non_integer_seed(self, seed):
        dims = SystemDims.uniform(K=1, T=2, R=1, L=1)
        with pytest.raises(ConfigError, match="seed must be a nonnegative integer"):
            generate_channels(dims, seed)


def _reference_decompose(H, L_k):
    """The per-user decomposition the batched one replaced: one SVD of H^H,
    descending sort and phase fix per matrix."""
    a, s, b = np.linalg.svd(H.conj().T, full_matrices=False)
    u, vh = b.conj().T, a.conj().T  # H = u diag(s) vh
    order = np.argsort(-s, kind="stable")
    u, s, vh = u[:, order], s[order], vh[order]
    peak = np.argmax(np.abs(vh), axis=1)
    anchor = vh[np.arange(H.shape[0]), peak]
    mag = np.abs(anchor)
    phase = np.where(mag > 0, anchor / np.where(mag > 0, mag, 1.0), 1.0)
    return u.conj().T * np.conj(phase)[:, None], s, vh * np.conj(phase)[:, None]


def _reference_generate(dims, seed, model, rho):
    """The per-user loop: each user's draw, coloring and SVD on its own."""
    colored = model == "exp-correlated" and rho > 0.0
    out = []
    for k in range(dims.K):
        R_k = dims.R_k[k]
        rng = np.random.default_rng(np.random.SeedSequence([seed, k]))
        H = (rng.standard_normal((R_k, dims.T))
             + 1j * rng.standard_normal((R_k, dims.T))) / np.sqrt(2.0)
        if colored:
            H = _exp_correlation_sqrt(R_k, rho) @ H @ _exp_correlation_sqrt(dims.T, rho)
        out.append((H, *_reference_decompose(H, dims.L_k[k])))
    return out


class TestBatchedDecomposition:
    @pytest.mark.parametrize("dims", [
        SystemDims.uniform(K=8, T=64, R=4, L=2),
        SystemDims(K=6, T=16, R_k=(2, 4, 2, 3, 4, 1), L_k=(1, 2, 2, 1, 3, 1)),
    ], ids=["uniform", "ragged"])
    @pytest.mark.parametrize("model,rho", [("iid-gaussian", 0.0), ("exp-correlated", 0.9)])
    def test_factors_equal_per_user_loop_bitwise(self, dims, model, rho):
        for seed in range(5):
            channel = generate_channels(dims, seed, model, rho)
            reference = _reference_generate(dims, seed, model, rho)
            for k, (user, (H, U, S, V)) in enumerate(zip(channel.users, reference)):
                assert user.L_k == dims.L_k[k]
                for got, want in ((user.H, H), (user.U, U), (user.S, S), (user.V, V)):
                    assert got.tobytes() == want.tobytes()
            assert channel.S_tilde.tobytes() == np.concatenate(
                [S[:l] for (_, _, S, _), l in zip(reference, dims.L_k)]).tobytes()
            assert channel.V_tilde.tobytes() == np.vstack(
                [V[:l] for (_, _, _, V), l in zip(reference, dims.L_k)]).tobytes()

    def test_user_arrays_are_read_only(self):
        channel = generate_channels(SystemDims.uniform(K=3, T=8, R=2, L=1), seed=0)
        for user in channel.users:
            for a in (user.H, user.U, user.S, user.V):
                assert not a.flags.writeable
