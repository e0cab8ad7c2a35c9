import math
import warnings

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
    generate_channels,
    noise_from_susinr,
    read_channels,
    susinr,
    write_channels,
)
from mimo_precoding.model import susinr_gain

from conftest import complex_randn, random_channel


def decompose(H, L_k):
    """One user's channel and factors, as build_channel_set makes them."""
    return build_channel_set([H], [L_k]).users[0]


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
            SystemParams(P=-1.0, sigma2=1.0, L=1)
        with pytest.raises(ValueError):
            SystemParams(P=1.0, sigma2=-1.0, L=1)

    @pytest.mark.parametrize("kwargs", [dict(P=math.inf), dict(P=math.nan),
                                        dict(sigma2=math.inf), dict(sigma2=math.nan)])
    def test_non_finite_power_or_noise_rejected(self, kwargs):
        with pytest.raises(ValueError, match="finite"):
            SystemParams(**{"P": 1.0, "sigma2": 0.1, "L": 2, **kwargs})

    # Both used to construct, a boolean power reading as 0 or 1.
    @pytest.mark.parametrize("kwargs", [dict(P=True), dict(sigma2=False), dict(P=np.True_)],
                             ids=["P", "sigma2", "numpy-P"])
    def test_boolean_power_or_noise_rejected_by_name(self, kwargs):
        name = next(iter(kwargs))
        with pytest.raises(ValueError, match=f"^{name} must be a"):
            SystemParams(**{"P": 1.0, "sigma2": 0.1, "L": 16, **kwargs})

    @pytest.mark.parametrize("L", [True, 2.5, 2.0, "2"])
    def test_non_integer_stream_count_rejected(self, L):
        with pytest.raises(DimensionError, match="integer"):
            SystemParams(P=1.0, sigma2=0.1, L=L)


class TestDecomposeUser:
    def test_identity_channel(self):
        user = decompose(np.eye(2), L_k=2)
        np.testing.assert_allclose(user.U, np.eye(2), atol=1e-12)
        np.testing.assert_allclose(user.S, [1.0, 1.0], atol=1e-12)
        np.testing.assert_allclose(user.V, np.eye(2), atol=1e-12)

    def test_diagonal_channel_descending_truncation(self):
        user = decompose(np.diag([3.0, 1.0]), L_k=1)
        np.testing.assert_allclose(user.S_tilde, [3.0], atol=1e-12)
        np.testing.assert_allclose(user.V_tilde, [[1.0, 0.0]], atol=1e-12)

    def test_reconstruction_oracle(self):
        rng = np.random.default_rng(0)
        H = complex_randn(rng, (4, 8))
        user = decompose(H, L_k=2)
        rebuilt = user.U.conj().T @ np.diag(user.S) @ user.V
        assert np.linalg.norm(rebuilt - H) / np.linalg.norm(H) <= 1e-10

    def test_factor_invariants(self):
        rng = np.random.default_rng(1)
        user = decompose(complex_randn(rng, (3, 6)), L_k=2)
        np.testing.assert_allclose(user.U @ user.U.conj().T, np.eye(3), atol=1e-10)
        np.testing.assert_allclose(user.V @ user.V.conj().T, np.eye(3), atol=1e-10)
        assert np.all(np.diff(user.S) <= 0)
        np.testing.assert_array_equal(user.S_tilde, user.S[:2])
        np.testing.assert_array_equal(user.V_tilde, user.V[:2])

    def test_phase_canonicalization(self):
        rng = np.random.default_rng(2)
        user = decompose(complex_randn(rng, (3, 5)), L_k=3)
        for row in user.V:
            anchor = row[np.argmax(np.abs(row))]
            assert abs(anchor.imag) <= 1e-12
            assert anchor.real > 0

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        H = complex_randn(rng, (4, 8))
        a = decompose(H, L_k=2)
        b = decompose(H, L_k=2)
        np.testing.assert_array_equal(a.V, b.V)
        np.testing.assert_array_equal(a.U, b.U)

    def test_rank_deficient_names_user(self):
        col = np.array([[1.0], [2.0]])
        row = np.array([[1.0, -1.0, 0.5]])
        mats = [complex_randn(np.random.default_rng(k), (2, 3)) for k in range(7)]
        with pytest.raises(DegenerateChannelError, match="^user 7: "):
            build_channel_set(mats + [col @ row], [2] * 8)

    def test_shape_errors(self):
        with pytest.raises(DimensionError):
            decompose(np.ones((5, 3)), L_k=1)  # R_k > T
        with pytest.raises(DimensionError):
            decompose(np.ones((2, 4)), L_k=3)  # L_k > R_k
        with pytest.raises(ValueError):
            decompose(np.array([[np.nan, 0.0]]), L_k=1)

    @pytest.mark.parametrize("L_k", [1.5, True, 2.0, "2"])
    def test_non_integer_layer_count(self, L_k):
        H = complex_randn(np.random.default_rng(4), (2, 4))
        with pytest.raises(DimensionError, match="layer count must be an integer"):
            decompose(H, L_k=L_k)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 4), st.integers(0, 2**32 - 1))
    def test_reconstruction_property(self, R_k, seed):
        rng = np.random.default_rng(seed)
        T = R_k + int(rng.integers(0, 5))
        H = complex_randn(rng, (R_k, T))
        user = decompose(H, L_k=1)
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

    def test_mixed_shapes_keep_list_order(self):
        rng = np.random.default_rng(13)
        mats = [complex_randn(rng, (r, 8)) for r in (3, 1, 3, 2, 1)]
        layers = [2, 1, 3, 1, 1]
        ch = build_channel_set(mats, layers)
        assert ch.dims.R_k == (3, 1, 3, 2, 1) and ch.dims.L_k == tuple(layers)
        for H, L, user in zip(mats, layers, ch.users):
            alone = decompose(H, L)
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

    def test_conjugate_transpose_is_cached_and_read_only(self):
        dims = SystemDims(K=8, T=16, R_k=(1, 2, 2, 4, 4, 4, 8, 8), L_k=(1, 1, 2, 1, 2, 4, 2, 4))
        for g in generate_channels(dims, 0).groups:
            n, R, T = g.H.shape
            assert g.H_h is g.H_h and not g.H_h.flags.writeable
            assert g.H_h.shape == (T, n * R)
            assert g.H_h.tobytes() == g.H.reshape(n * R, T).conj().T.tobytes()

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
            B = np.random.default_rng(seed).random(g.H.shape[:2] + (dims.L,))
            assert g.own_cols.shape == (n, L_g, g.H.shape[1])
            # Entry (i, l, r) of own_cols is the position of B[i, r, cols[i, l]].
            assert np.array_equal(B.reshape(-1)[g.own_cols], B[i, :, g.cols])
            assert not g.own_cols.flags.writeable

        path = tmp_path_factory.mktemp("groups") / "ch.bin"
        write_channels(ch, path)
        back = read_channels(path)
        assert len(back.groups) == len(ch.groups)
        for a, b in zip(back.groups, ch.groups):
            for name in ("users", "H", "cols", "own", "own_cols"):
                x, y = getattr(a, name), getattr(b, name)
                assert x.shape == y.shape and x.tobytes() == y.tobytes(), name


class TestPhaseFix:
    # The phase anchor is the largest entry of a unit-norm row of V, so it is
    # never zero: degenerate channels reach the rank check without a warning.
    CASES = {
        "zero": (np.zeros((4, 8), dtype=complex), 1),
        "zero-row": (np.vstack([complex_randn(np.random.default_rng(13), (3, 8)),
                                np.zeros((1, 8))]), 4),
        "rank-one": (np.outer(complex_randn(np.random.default_rng(14), 4),
                              complex_randn(np.random.default_rng(15), 8)), 2),
        "tiny-rank-one": (1e-300 * np.outer(complex_randn(np.random.default_rng(16), 4),
                                            complex_randn(np.random.default_rng(17), 8)), 2),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_degenerate_channel_raises_without_warnings(self, case):
        H, L_k = self.CASES[case]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DegenerateChannelError, match="^user 0: rank below"):
                decompose(H, L_k=L_k)


class TestStack:
    def test_single_user_matches_own_factors(self):
        rng = np.random.default_rng(4)
        H = complex_randn(rng, (3, 6))
        ch = build_channel_set([H], [2])
        user = ch.users[0]
        np.testing.assert_array_equal(user.H, H)
        np.testing.assert_array_equal(ch.S_tilde, user.S[:2])
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


def per_user_loop_noise(ch, P, target_db):
    """noise_from_susinr as a loop over users, each user's log sum on its own."""
    dims, s = ch.dims, ch.S_tilde
    terms = [-math.log(dims.L_k[k])
             + (2.0 / dims.L_k[k]) * float(np.sum(np.log(s[dims.layer_slice(k)])))
             for k in range(dims.K)]
    return P * math.exp(sum(terms) / dims.K) * 10.0 ** (-target_db / 10.0)


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
        assert susinr(ch, sigma2) == pytest.approx(12.0, abs=1e-9)

    @pytest.mark.parametrize("target", [-4.0, 0.0, 23.5, 40.0])
    def test_round_trip_many_targets(self, target):
        ch = random_channel(8, K=3, T=8, R=2, L=2)
        sigma2 = noise_from_susinr(ch, 2.0, target)
        assert susinr(ch, sigma2 / 2.0) == pytest.approx(target, abs=1e-9)

    def test_equals_per_user_loop_bitwise(self):
        # The users with 16 and 9 streams sum enough logs for numpy's pairwise
        # summation to unroll; at these dims a plain left-to-right sum changes
        # 6 of the 15 values below.
        dims = SystemDims(K=3, T=24, R_k=(2, 16, 12), L_k=(1, 16, 9))
        for seed in range(5):
            ch = generate_channels(dims, seed, "exp-correlated", 0.5)
            for target in (-4.0, 12.0, 40.0):
                got = noise_from_susinr(ch, 2.0, target)
                assert got.hex() == per_user_loop_noise(ch, 2.0, target).hex()

    @pytest.mark.parametrize("dims", [
        SystemDims.uniform(K=8, T=24, R=4, L=2),
        SystemDims(K=8, T=24, R_k=(1, 2, 2, 4, 4, 4, 8, 8), L_k=(1, 1, 2, 1, 2, 4, 2, 4)),
    ], ids=["uniform", "ragged"])
    def test_groups_of_several_users_equal_per_user_loop_bitwise(self, dims):
        for seed in range(5):
            ch = generate_channels(dims, seed, "exp-correlated", 0.5)
            for target in (-4.0, 12.0, 40.0):
                got = noise_from_susinr(ch, 2.0, target)
                assert got.hex() == per_user_loop_noise(ch, 2.0, target).hex()

    # Each returned NaN (or 0 or inf for an infinite target).
    @pytest.mark.parametrize("P, target, name", [
        (1.0, math.nan, "target_db"), (1.0, math.inf, "target_db"), (1.0, -math.inf, "target_db"),
        (math.nan, 10.0, "P"), (math.inf, 10.0, "P"), (0.0, 10.0, "P"), (-1.0, 10.0, "P"),
    ])
    def test_non_finite_target_or_power_rejected(self, P, target, name):
        ch = random_channel(9, K=2, T=8, R=2, L=2)
        with pytest.raises(ValueError, match=f"^{name} must be"):
            noise_from_susinr(ch, P, target)

    def test_zero_singular_value_rejected(self):
        dims = SystemDims(K=1, T=2, R_k=(1,), L_k=(1,))
        with pytest.raises(DegenerateChannelError):
            susinr_gain(dims, np.array([0.0]))

    def test_gain_formula_includes_stream_count_factor(self):
        # Two streams with squared singular values 4 and 1: the gain is the
        # per-user factor (1/2) * sqrt(4 * 1) = 1, not the bare geometric mean 2.
        dims = SystemDims(K=1, T=4, R_k=(2,), L_k=(2,))
        assert susinr_gain(dims, np.array([2.0, 1.0])) == pytest.approx(1.0, rel=1e-12)
