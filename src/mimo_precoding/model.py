"""System model: dimensions, per-user channel SVD factors, user groups and
noise calibration from a target single-user SINR.

Conventions. User k has channel H_k of shape (R_k, T) and is served L_k symbol
streams. The reduced SVD is stored as H_k = U^H S V with U (R_k, R_k) unitary,
S the vector of singular values sorted descending, and V (R_k, T) with
orthonormal rows. Truncated factors keep the leading L_k rows/values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import DegenerateChannelError, DimensionError, NumericalFailureError

# Singular values below this fraction of the largest one count as zero.
RANK_TOL = 1e-12


def is_count(x) -> bool:
    """True for an integer (numpy's included) that is not a boolean."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def check_power(P) -> None:
    """Reject a station power P that is not a positive finite number."""
    if isinstance(P, (bool, np.bool_)) or not (P > 0 and math.isfinite(P)):
        raise ValueError(f"P must be a positive finite number, got {P!r}")


def check_noise(value, name: str) -> None:
    """Reject a noise level that is not a nonnegative finite number: the noise
    power "sigma2" or the ratio "noise_to_signal" (sigma2 / P), named so."""
    if isinstance(value, (bool, np.bool_)) or not (value >= 0 and math.isfinite(value)):
        raise ValueError(f"{name} must be a nonnegative finite number, got {value!r}")


def _read_only(a: np.ndarray) -> np.ndarray:
    """Mark an array this module made, and hands out, read-only."""
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class SystemDims:
    """Counts of users, antennas and symbol streams.

    K users, T transmit antennas, per-user receive antenna counts R_k and
    stream counts L_k with 1 <= L_k <= R_k <= T.
    """

    K: int
    T: int
    R_k: tuple[int, ...]
    L_k: tuple[int, ...]

    def __post_init__(self):
        R_k, L_k = tuple(self.R_k), tuple(self.L_k)
        if not all(map(is_count, (self.K, self.T, *R_k, *L_k))):
            raise DimensionError(
                f"K, T, R_k and L_k must be integers, got K={self.K!r}, T={self.T!r}, "
                f"R_k={R_k!r}, L_k={L_k!r}")
        object.__setattr__(self, "R_k", tuple(map(int, R_k)))
        object.__setattr__(self, "L_k", tuple(map(int, L_k)))
        if self.K < 1 or self.T < 1:
            raise DimensionError(f"K and T must be positive, got K={self.K}, T={self.T}")
        if len(self.R_k) != self.K or len(self.L_k) != self.K:
            raise DimensionError(
                f"R_k and L_k must have length K={self.K}, "
                f"got {len(self.R_k)} and {len(self.L_k)}"
            )
        for k, (r, l) in enumerate(zip(self.R_k, self.L_k)):
            if not 1 <= l <= r <= self.T:
                raise DimensionError(
                    f"user {k}: need 1 <= L_k <= R_k <= T, got L_k={l}, R_k={r}, T={self.T}"
                )

    @classmethod
    def uniform(cls, K: int, T: int, R: int, L: int) -> "SystemDims":
        return cls(K=K, T=T, R_k=(R,) * K, L_k=(L,) * K)

    @property
    def R(self) -> int:
        """Total receive antennas."""
        return sum(self.R_k)

    @property
    def L(self) -> int:
        """Total symbol streams."""
        return sum(self.L_k)

    def layer_slice(self, k: int) -> slice:
        """Slice of user k's streams within the stacked L dimension."""
        start = sum(self.L_k[:k])
        return slice(start, start + self.L_k[k])


@dataclass(frozen=True)
class SystemParams:
    """Station power, noise power and the constants derived from them.

    The one owner of P. Precoders live on the unit per-antenna budget 1/T
    and the station transmits sqrt(P) W, so P acts only through sigma2 / P.
    `noise_to_signal` (sigma2 / P) scales the noise term of per-symbol SINRs and
    regularizes detection. `regularizer` (sigma2 * L / P) is the distinct,
    larger constant used by the regularized precoders.
    """

    P: float
    sigma2: float
    L: int

    def __post_init__(self):
        check_power(self.P)
        check_noise(self.sigma2, "sigma2")
        if not is_count(self.L):
            raise DimensionError(f"L must be an integer, got {self.L!r}")
        if self.L < 1:
            raise DimensionError(f"L must be positive, got {self.L}")

    @property
    def noise_to_signal(self) -> float:
        return self.sigma2 / self.P

    @property
    def regularizer(self) -> float:
        return self.sigma2 * self.L / self.P


@dataclass(frozen=True)
class UserChannel:
    """One user's channel together with its reduced SVD, H = U^H diag(S) V."""

    H: np.ndarray  # (R_k, T)
    U: np.ndarray  # (R_k, R_k), unitary
    S: np.ndarray  # (R_k,), descending
    V: np.ndarray  # (R_k, T), orthonormal rows
    L_k: int

    @property
    def R_k(self) -> int:
        return self.H.shape[0]

    @property
    def T(self) -> int:
        return self.H.shape[1]

    @property
    def S_tilde(self) -> np.ndarray:
        """(L_k,) leading singular values."""
        return self.S[: self.L_k]

    @property
    def V_tilde(self) -> np.ndarray:
        """(L_k, T) leading rows of V."""
        return self.V[: self.L_k]


@dataclass(frozen=True)
class UserGroup:
    """Users sharing one (R_k, L_k) shape, stacked for batched linear algebra.

    H, U, S and V stack the group's channels and their reduced SVD factors in
    the order of users. own[i, l] is the flat index of entry (i, l, cols[i, l])
    in an (n, L_k, L) array: the position of user users[i]'s own stream l
    among all L. own_cols[i, l, r] is that of entry (i, r, cols[i, l]) in an
    (n, R_k, L) array such as H W: row r of the user's own column l.
    """

    users: np.ndarray  # (n,) user indices, ascending
    H: np.ndarray      # (n, R_k, T)
    cols: np.ndarray   # (n, L_k) stacked stream indices of each user
    own: np.ndarray    # (n, L_k) flat indices of cols in an (n, L_k, L) array
    own_cols: np.ndarray  # (n, L_k, R_k) flat indices of own columns in (n, R_k, L)
    U: np.ndarray      # (n, R_k, R_k)
    S: np.ndarray      # (n, R_k)
    V: np.ndarray      # (n, R_k, T)

    @cached_property
    def H_h(self) -> np.ndarray:
        """(T, n R_k) conjugate transpose of the stacked rows of H, read-only."""
        return _read_only(self.H.reshape(-1, self.H.shape[2]).conj().T)


@dataclass(frozen=True)
class ChannelSet:
    """All users' channels, their user groups and the truncated factors.

    S_tilde and V_tilde stack the users' leading singular values and right
    singular vectors in user order, contiguous per user. users and gram are
    computed on first use. All arrays are read-only. Build one with
    build_channel_set.
    """

    dims: SystemDims
    groups: tuple[UserGroup, ...]  # users bucketed by (R_k, L_k)
    S_tilde: np.ndarray  # (L,)
    V_tilde: np.ndarray  # (L, T)

    @cached_property
    def users(self) -> tuple[UserChannel, ...]:
        """Each user's channel and factors in user order, views of the groups'."""
        users: list = [None] * self.dims.K
        for g in self.groups:
            L_k = g.cols.shape[1]
            for i, k in enumerate(g.users.tolist()):
                users[k] = UserChannel(H=g.H[i], U=g.U[i], S=g.S[i], V=g.V[i], L_k=L_k)
        return tuple(users)

    @cached_property
    def gram(self) -> np.ndarray:
        """(L, L) stream Gram matrix V_tilde V_tilde^H, read-only."""
        return _read_only(self.V_tilde @ self.V_tilde.conj().T)


def _factors(H: np.ndarray, L_k: int, users) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only reduced SVD factors U, S, V of a complex (n, R_k, T) stack of
    same-shape user channels that carry L_k streams each, in one batched call.

    users gives the user index of each matrix, which errors name. The factors
    come from the SVD of the tall H^H = A diag(S) B, the cheaper orientation
    for LAPACK when R_k < T: U is B and V is A^H. The phase of each row of V is
    fixed so that its largest-magnitude entry is real and positive (the
    matching row of U absorbs the conjugate phase), which makes decompositions
    reproducible across runs. The factors equal those of per-matrix SVDs of
    H^H bit for bit.

    Raises DegenerateChannelError if a channel's rank is below its L_k, since a
    zero leading singular value cannot be inverted by conjugate detection.
    """
    if not np.isfinite(H).all():
        raise ValueError("channel matrix has non-finite entries")
    # s sorted descending per matrix
    a, s, b = np.linalg.svd(H.conj().transpose(0, 2, 1), full_matrices=False)
    vh = np.conj(a.transpose(0, 2, 1), order="C")

    # Phase fix: one unitary diagonal applied to the rows of both U and V
    # leaves U^H S V unchanged. A row of V has unit norm, so its largest
    # entry, the anchor, has magnitude at least 1/sqrt(T): never zero.
    n, R_k, T = vh.shape
    rows = vh.reshape(n * R_k, T)
    anchor = rows[np.arange(n * R_k), np.abs(rows).argmax(axis=1)].reshape(n, R_k)
    conj_phase = np.conj(anchor / np.abs(anchor))[:, :, None]
    V = vh * conj_phase
    U = b * conj_phase

    s_max = s[:, 0]
    weak = (s_max == 0.0) | (s[:, L_k - 1] <= RANK_TOL * s_max)
    if weak.any():
        i = int(np.argmax(weak))
        raise DegenerateChannelError(
            f"user {users[i]}: rank below requested stream count L_k={L_k} "
            f"(leading singular values {s[i, :L_k]})"
        )
    return _read_only(U), _read_only(s), _read_only(V)


@lru_cache(maxsize=64)
def _layout(T: int, R_k: tuple[int, ...], L_k: tuple[int, ...]):
    """Dimensions and user groups of a channel set, which depend on the
    shapes alone: SystemDims, then (L_k, users, cols, own, own_cols) per group,
    groups in order of first appearance. All arrays are read-only."""
    dims = SystemDims(K=len(R_k), T=T, R_k=R_k, L_k=L_k)
    buckets: dict[tuple[int, int], list[int]] = {}
    for k, key in enumerate(zip(R_k, L_k)):
        buckets.setdefault(key, []).append(k)
    starts = np.cumsum((0,) + L_k)
    groups = []
    for (R, L), idx in buckets.items():
        cols = starts[idx][:, None] + np.arange(L)
        rows = np.arange(len(idx))[:, None]
        own = (rows * L + np.arange(L)) * starts[-1] + cols
        own_cols = (rows[:, :, None] * R + np.arange(R)) * starts[-1] + cols[:, :, None]
        groups.append((L, *map(_read_only, (np.array(idx), cols, own, own_cols))))
    return dims, tuple(groups)


def build_channel_set(channels, layer_counts) -> ChannelSet:
    """Decompose per-user channel matrices and keep them in list order.

    Users are bucketed by (R_k, L_k), buckets in order of first appearance;
    each bucket is one batched SVD and becomes one UserGroup.
    """
    mats = [np.asarray(H, dtype=np.complex128) for H in channels]
    layer_counts = tuple(layer_counts)
    if len(layer_counts) != len(mats):
        raise DimensionError(
            f"user {min(len(mats), len(layer_counts))}: got {len(mats)} channel "
            f"matrices but {len(layer_counts)} layer counts"
        )
    if not mats:
        raise DimensionError("at least one user required")
    for k, (H, L_k) in enumerate(zip(mats, layer_counts)):
        if H.ndim != 2:
            raise DimensionError(f"channel must be a matrix, got ndim={H.ndim}")
        if H.shape[1] != mats[0].shape[1]:
            raise DimensionError(f"user {k} has T={H.shape[1]}, expected {mats[0].shape[1]}")
        if not is_count(L_k):
            raise DimensionError(f"user {k}: layer count must be an integer, got {L_k!r}")

    T = mats[0].shape[1]
    dims, layout = _layout(T, tuple(H.shape[0] for H in mats), tuple(map(int, layer_counts)))
    S_tilde = np.empty(dims.L)
    V_tilde = np.empty((dims.L, T), dtype=np.complex128)
    groups = []
    for L, users, cols, own, own_cols in layout:
        H = np.stack([mats[k] for k in users.tolist()])
        U, S, V = _factors(H, L, users)
        S_tilde[cols] = S[:, :L]
        V_tilde[cols] = V[:, :L]
        groups.append(UserGroup(users=users, H=_read_only(H), cols=cols, own=own,
                                own_cols=own_cols, U=U, S=S, V=V))
    return ChannelSet(dims=dims, groups=tuple(groups),
                      S_tilde=_read_only(S_tilde), V_tilde=_read_only(V_tilde))


def susinr_gain(dims: SystemDims, s_tilde: np.ndarray) -> float:
    """Channel-quality factor of the single-user SINR.

    Geometric mean over users of (1/L_k) * geomean_l(s_l^2), with the 1/L_k
    factor multiplying inside the outer mean. Evaluated in log space.
    """
    s = np.asarray(s_tilde, dtype=float)
    if (s <= 0).any():
        raise DegenerateChannelError("singular values must be positive")
    logs = np.log(s)
    # One row sum per user, taken a user group at a time, then summed over
    # users in user order: the bits of a per-user loop.
    log_terms = np.empty(dims.K)
    for L_k, users, cols, *_ in _layout(dims.T, dims.R_k, dims.L_k)[1]:
        log_terms[users] = (2.0 / L_k) * logs[cols].sum(axis=1) - math.log(L_k)
    return math.exp(sum(log_terms.tolist()) / dims.K)


def noise_from_susinr(channel: ChannelSet, P: float, target_db: float) -> float:
    """Noise power sigma2 such that the channel's single-user SINR is target_db.

    Inverts susinr(channel, sigma2 / P) = target_db in closed form. A target
    so low, or a P so high, that sigma2 overflows raises NumericalFailureError.
    """
    check_power(P)
    if not math.isfinite(target_db):
        raise ValueError(f"target_db must be finite, got {target_db!r}")
    gain = susinr_gain(channel.dims, channel.S_tilde)
    try:
        sigma2 = P * gain * 10.0 ** (-target_db / 10.0)
    except OverflowError:  # 10.0 ** x beyond the float range
        sigma2 = math.inf
    if not math.isfinite(sigma2):
        raise NumericalFailureError(
            f"noise power for {target_db:g} dB SUSINR at P={P:g} overflows")
    return sigma2
