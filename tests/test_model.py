import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mimo_precoding import (
    DegenerateChannelError,
    DimensionError,
    SystemDims,
    SystemParams,
    build_channel_set,
    decompose_user,
    decompose_users,
    generate_channels,
    noise_from_susinr,
    read_channels,
    susinr,
    write_channels,
)
from mimo_precoding.model import susinr_gain

from conftest import complex_randn, random_channel


class TestSystemDims:
    def test_totals(self):
        dims = SystemDims(K=2, T=8, R_k=(4, 2), L_k=(2, 1))
        assert dims.R == 6
        assert dims.L == 3

    def test_uniform(self):
        dims = SystemDims.uniform(K=8, T=64, R=4, L=2)
        assert dims.R_k == (4,) * 8
        assert dims.L == 16

    def test_layer_slice(self):
        dims = SystemDims(K=3, T=8, R_k=(2, 4, 3), L_k=(1, 2, 3))
        assert dims.layer_slice(1) == slice(1, 3)
        assert dims.layer_slice(2) == slice(3, 6)

    @pytest.mark.parametrize("kwargs", [
        dict(K=1, T=4, R_k=(5,), L_k=(1,)),       # R_k > T
        dict(K=1, T=4, R_k=(2,), L_k=(3,)),       # L_k > R_k
        dict(K=1, T=4, R_k=(2,), L_k=(0,)),       # L_k < 1
        dict(K=2, T=4, R_k=(2,), L_k=(1, 1)),     # length mismatch
        dict(K=0, T=4, R_k=(), L_k=()),
        dict(K=1, T=4, R_k=(2.5,), L_k=(1,)),    # non-integer counts
        dict(K=1, T=4.0, R_k=(2,), L_k=(1,)),
        dict(K=True, T=4, R_k=(2,), L_k=(1,)),    # booleans are not counts
        dict(K=1, T=4, R_k=(2,), L_k=(True,)),
    ])
    def test_invalid(self, kwargs):
        with pytest.raises(DimensionError):
            SystemDims(**kwargs)


class TestSystemParams:
    def test_derived_constants_exact(self):
        p = SystemParams(P=2.0, sigma2=0.5, L=16)
        assert p.regularizer == 0.5 * 16 / 2.0
        assert p.noise_to_signal == 0.25

    def test_validation(self):
        with pytest.raises(ValueError):
            SystemParams(P=0.0, sigma2=1.0, L=1)
        with pytest.raises(ValueError):
            SystemParams(P=1.0, sigma2=-1.0, L=1)


class TestDecomposeUser:
    def test_identity_channel(self):
        user = decompose_user(np.eye(2), L_k=2)
        np.testing.assert_allclose(user.U, np.eye(2), atol=1e-12)
        np.testing.assert_allclose(user.S, [1.0, 1.0], atol=1e-12)
        np.testing.assert_allclose(user.V, np.eye(2), atol=1e-12)

    def test_diagonal_channel_descending_truncation(self):
        user = decompose_user(np.diag([3.0, 1.0]), L_k=1)
        np.testing.assert_allclose(user.S_tilde, [3.0], atol=1e-12)
        np.testing.assert_allclose(user.V_tilde, [[1.0, 0.0]], atol=1e-12)

    def test_reconstruction_oracle(self):
        rng = np.random.default_rng(0)
        H = complex_randn(rng, (4, 8))
        user = decompose_user(H, L_k=2)
        rebuilt = user.U.conj().T @ np.diag(user.S) @ user.V
        assert np.linalg.norm(rebuilt - H) / np.linalg.norm(H) <= 1e-10

    def test_factor_invariants(self):
        rng = np.random.default_rng(1)
        user = decompose_user(complex_randn(rng, (3, 6)), L_k=2)
        np.testing.assert_allclose(user.U @ user.U.conj().T, np.eye(3), atol=1e-10)
        np.testing.assert_allclose(user.V @ user.V.conj().T, np.eye(3), atol=1e-10)
        assert np.all(np.diff(user.S) <= 0)
        np.testing.assert_array_equal(user.S_tilde, user.S[:2])
        np.testing.assert_array_equal(user.V_tilde, user.V[:2])

    def test_phase_canonicalization(self):
        rng = np.random.default_rng(2)
        user = decompose_user(complex_randn(rng, (3, 5)), L_k=3)
        for row in user.V:
            anchor = row[np.argmax(np.abs(row))]
            assert abs(anchor.imag) <= 1e-12
            assert anchor.real > 0

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        H = complex_randn(rng, (4, 8))
        a = decompose_user(H, L_k=2)
        b = decompose_user(H, L_k=2)
        np.testing.assert_array_equal(a.V, b.V)
        np.testing.assert_array_equal(a.U, b.U)

    def test_rank_deficient_names_user(self):
        col = np.array([[1.0], [2.0]])
        row = np.array([[1.0, -1.0, 0.5]])
        with pytest.raises(DegenerateChannelError, match="user 7"):
            decompose_user(col @ row, L_k=2, user=7)

    def test_shape_errors(self):
        with pytest.raises(DimensionError):
            decompose_user(np.ones((5, 3)), L_k=1)  # R_k > T
        with pytest.raises(DimensionError):
            decompose_user(np.ones((2, 4)), L_k=3)  # L_k > R_k
        with pytest.raises(ValueError):
            decompose_user(np.array([[np.nan, 0.0]]), L_k=1)

    @pytest.mark.parametrize("L_k", [1.5, True, 2.0, "2"])
    def test_non_integer_layer_count(self, L_k):
        H = complex_randn(np.random.default_rng(4), (2, 4))
        with pytest.raises(DimensionError, match="layer count must be an integer"):
            decompose_user(H, L_k=L_k)
        with pytest.raises(DimensionError, match="layer count must be an integer"):
            decompose_users(H[None], L_k, [0])

    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 4), st.integers(0, 2**32 - 1))
    def test_reconstruction_property(self, R_k, seed):
        rng = np.random.default_rng(seed)
        T = R_k + int(rng.integers(0, 5))
        H = complex_randn(rng, (R_k, T))
        user = decompose_user(H, L_k=1)
        rebuilt = user.U.conj().T @ np.diag(user.S) @ user.V
        assert np.linalg.norm(rebuilt - H) <= 1e-10 * max(np.linalg.norm(H), 1.0)


class TestBuildChannelSet:
    def test_rank_deficient_user_in_batch_is_named(self):
        rng = np.random.default_rng(11)
        mats = [complex_randn(rng, (4, 8)) for _ in range(8)]
        mats[5] = np.outer(complex_randn(rng, 4), complex_randn(rng, 8))  # rank 1
        with pytest.raises(DegenerateChannelError, match="^user 5: "):
            build_channel_set(mats, [2] * 8)

    def test_non_finite_entry_in_batch_rejected(self):
        rng = np.random.default_rng(12)
        mats = [complex_randn(rng, (4, 8)) for _ in range(8)]
        mats[3][2, 6] = np.inf
        with pytest.raises(ValueError, match="non-finite"):
            build_channel_set(mats, [2] * 8)

    def test_out_of_order_singular_values_are_sorted(self, monkeypatch):
        rng = np.random.default_rng(14)
        H = complex_randn(rng, (3, 3, 6))
        expected = decompose_users(H, 2, [0, 1, 2])
        svd = np.linalg.svd

        def ascending_svd(a, full_matrices=True):
            u, s, vh = svd(a, full_matrices=full_matrices)
            return u[..., ::-1], s[..., ::-1], vh[..., ::-1, :]

        monkeypatch.setattr(np.linalg, "svd", ascending_svd)
        got = decompose_users(H, 2, [0, 1, 2])
        for a, b in zip(got, expected):
            for x, y in ((a.U, b.U), (a.S, b.S), (a.V, b.V)):
                assert x.tobytes() == y.tobytes()

    def test_mixed_shapes_keep_list_order(self):
        rng = np.random.default_rng(13)
        mats = [complex_randn(rng, (r, 8)) for r in (3, 1, 3, 2, 1)]
        layers = [2, 1, 3, 1, 1]
        ch = build_channel_set(mats, layers)
        assert ch.dims.R_k == (3, 1, 3, 2, 1) and ch.dims.L_k == tuple(layers)
        for H, L, user in zip(mats, layers, ch.users):
            alone = decompose_user(H, L)
            for got, want in ((user.H, alone.H), (user.U, alone.U),
                              (user.S, alone.S), (user.V, alone.V)):
                assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("layers, user", [
        ([1], 1),             # fewer layer counts than matrices
        ([1, 1, 1, 1], 3),    # more layer counts than matrices
        ([1, 1.5, 1], 1),     # would be floored to 1
        ([1, True, 1], 1),
    ])
    def test_bad_layer_counts_name_the_user(self, layers, user):
        with pytest.raises(DimensionError, match=f"^user {user}: "):
            build_channel_set([np.eye(2)] * 3, layers)

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.tuples(st.integers(1, 4), st.integers(0, 3)), min_size=1, max_size=7),
           st.integers(0, 2**32 - 1))
    def test_groups(self, tmp_path_factory, shapes, seed):
        R_k = tuple(r for r, _ in shapes)
        L_k = tuple(1 + l % r for r, l in shapes)
        dims = SystemDims(K=len(shapes), T=5, R_k=R_k, L_k=L_k)
        ch = generate_channels(dims, seed)

        members = [k for g in ch.groups for k in g.users]
        assert sorted(members) == list(range(dims.K))
        keys = list(zip(R_k, L_k))
        assert [keys[g.users[0]] for g in ch.groups] == list(dict.fromkeys(keys))
        for g in ch.groups:
            assert [keys[k] for k in g.users] == [keys[g.users[0]]] * len(g.users)
            assert list(g.users) == sorted(g.users)
            for i, k in enumerate(g.users):
                assert g.H[i].tobytes() == ch.users[k].H.tobytes()
                assert list(g.cols[i]) == list(range(dims.L))[dims.layer_slice(k)]
            n, L_g = g.cols.shape
            Z = np.random.default_rng(seed).random((n, L_g, dims.L))
            i, l = np.arange(n)[:, None], np.arange(L_g)
            assert np.array_equal(Z.reshape(-1)[g.own], Z[i, l, g.cols])
            t = g.tiled(3, dims.L)  # precoder j's rows follow precoder j - 1's
            assert t.H is g.H
            assert t.users.tolist() == [g.users.tolist()] * 3
            assert t.cols.tobytes() == np.concatenate([g.cols] * 3).tobytes()
            Z3 = np.random.default_rng(seed).random((3 * n, L_g, dims.L))
            i3 = np.arange(3 * n)[:, None]
            assert np.array_equal(Z3.reshape(-1)[t.own], Z3[i3, l, t.cols])

        path = tmp_path_factory.mktemp("groups") / "ch.bin"
        write_channels(ch, path)
        back = read_channels(path)
        assert len(back.groups) == len(ch.groups)
        for a, b in zip(back.groups, ch.groups):
            for name in ("users", "H", "cols", "own"):
                x, y = getattr(a, name), getattr(b, name)
                assert x.shape == y.shape and x.tobytes() == y.tobytes(), name


class TestStack:
    def test_single_user_matches_own_factors(self):
        rng = np.random.default_rng(4)
        H = complex_randn(rng, (3, 6))
        user = decompose_user(H, L_k=2)
        ch = build_channel_set([H], [2])
        np.testing.assert_array_equal(ch.users[0].H, user.H)
        np.testing.assert_array_equal(ch.users[0].U, user.U)
        np.testing.assert_array_equal(ch.V_tilde, user.V_tilde)

    def test_user_order_preserved(self):
        # Users 0 and 2 share a group, so grouping must not reorder them.
        rng = np.random.default_rng(1)
        mats = [complex_randn(rng, (R, 8)) for R in (2, 3, 2)]
        ch = build_channel_set(mats, [1, 2, 1])
        for k, user in enumerate(ch.users):
            np.testing.assert_array_equal(user.H, mats[k])
            np.testing.assert_array_equal(ch.V_tilde[ch.dims.layer_slice(k)], user.V_tilde)

    def test_mismatched_T(self):
        rng = np.random.default_rng(5)
        mats = [complex_randn(rng, (2, 4)), complex_randn(rng, (2, 6))]
        with pytest.raises(DimensionError, match="^user 1 has T=6, expected 4$"):
            build_channel_set(mats, [1, 1])


class TestNoiseCalibration:
    def test_hand_inverted_single_user(self):
        # One user, one stream with singular value 2: gain = 4, so a target of
        # 10*log10(4) dB at P = 1 needs sigma2 = 1.
        ch = build_channel_set([np.diag([2.0, 1.0])], [1])
        target = 10.0 * np.log10(4.0)
        assert noise_from_susinr(ch, 1.0, target) == pytest.approx(1.0, abs=1e-12)

    def test_zero_db_unit_channel(self):
        ch = build_channel_set([np.eye(2)], [1])
        assert noise_from_susinr(ch, 1.0, 0.0) == pytest.approx(1.0, abs=1e-12)

    def test_round_trip_oracle(self):
        ch = random_channel(7, K=8, T=16, R=4, L=2)
        sigma2 = noise_from_susinr(ch, 1.0, 12.0)
        assert susinr(ch, sigma2, 1.0) == pytest.approx(12.0, abs=1e-9)

    @pytest.mark.parametrize("target", [-4.0, 0.0, 23.5, 40.0])
    def test_round_trip_many_targets(self, target):
        ch = random_channel(8, K=3, T=8, R=2, L=2)
        sigma2 = noise_from_susinr(ch, 2.0, target)
        assert susinr(ch, sigma2, 2.0) == pytest.approx(target, abs=1e-9)

    def test_zero_singular_value_rejected(self):
        dims = SystemDims(K=1, T=2, R_k=(1,), L_k=(1,))
        with pytest.raises(DegenerateChannelError):
            susinr_gain(dims, np.array([0.0]))

    def test_gain_formula_includes_stream_count_factor(self):
        # Two streams with squared singular values 4 and 1: the gain is the
        # per-user factor (1/2) * sqrt(4 * 1) = 1, not the bare geometric mean 2.
        dims = SystemDims(K=1, T=4, R_k=(2,), L_k=(2,))
        assert susinr_gain(dims, np.array([2.0, 1.0])) == pytest.approx(1.0, rel=1e-12)
