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

import numpy as np

from .errors import DegenerateChannelError, DimensionError

# Singular values below this fraction of the largest one count as zero.
RANK_TOL = 1e-12


def is_count(x) -> bool:
    """True for an integer (numpy's included) that is not a boolean."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def _frozen(a: np.ndarray) -> np.ndarray:
    out = np.ascontiguousarray(a)
    if out is a:
        out = a.copy()
    out.setflags(write=False)
    return out


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

    `noise_to_signal` (sigma2 / P) scales the noise term of per-symbol SINRs and
    regularizes detection. `regularizer` (sigma2 * L / P) is the distinct,
    larger constant used by the regularized precoders.
    """

    P: float
    sigma2: float
    L: int

    def __post_init__(self):
        if self.P <= 0:
            raise ValueError(f"P must be positive, got {self.P}")
        if self.sigma2 < 0:
            raise ValueError(f"sigma2 must be nonnegative, got {self.sigma2}")
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
    def U_tilde(self) -> np.ndarray:
        """(L_k, R_k) leading rows of U."""
        return self.U[: self.L_k]

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

    own[i, l] is the flat index of entry (i, l, cols[i, l]) in an (n, L_k, L)
    array: the position of user users[i]'s own stream l among all L.
    """

    users: np.ndarray  # (n,) user indices, ascending
    H: np.ndarray      # (n, R_k, T)
    cols: np.ndarray   # (n, L_k) stacked stream indices of each user
    own: np.ndarray    # (n, L_k) flat indices of cols in an (n, L_k, L) array

    def tiled(self, b: int, L: int) -> "UserGroup":
        """The group repeated for a stack of b precoders with L streams each.

        Row j * n + i of cols and own stands for user users[i] under precoder
        j, so a (b * n, L_k, L) array holds the b precoders' arrays one after
        another; own is offset by j * n * L_k * L accordingly. users becomes
        (b, n), row j for precoder j, which is how per-user results split into
        precoders. H is shared, not repeated: H_i W_j is row j * n + i of the
        stacked product.
        """
        offsets = np.arange(b)[:, None, None] * self.own.size * L
        return UserGroup(users=np.tile(self.users, (b, 1)), H=self.H,
                         cols=np.tile(self.cols, (b, 1)),
                         own=(self.own + offsets).reshape(-1, self.own.shape[1]))


@dataclass(frozen=True)
class ChannelSet:
    """All users' channels, their user groups and the truncated factors.

    S_tilde and V_tilde stack the users' leading singular values and right
    singular vectors in user order, contiguous per user. All arrays are
    read-only. Build one with build_channel_set.
    """

    dims: SystemDims
    users: tuple[UserChannel, ...]
    groups: tuple[UserGroup, ...]  # users bucketed by (R_k, L_k)
    S_tilde: np.ndarray  # (L,)
    V_tilde: np.ndarray  # (L, T)


def decompose_user(H_k: np.ndarray, L_k: int, user: int | None = None) -> UserChannel:
    """Reduced SVD of one user channel: decompose_users on a batch of one."""
    H = np.asarray(H_k, dtype=np.complex128)
    return decompose_users(H[None], L_k, (user,))[0]


def decompose_users(H: np.ndarray, L_k: int, users) -> list[UserChannel]:
    """Reduced SVDs of a stack of same-shape user channels in one batched call.

    H has shape (n, R_k, T) and every matrix carries L_k streams; users gives
    the user index that errors name (None reads "channel"). The phase of each
    row of V is fixed so that its largest-magnitude entry is real and positive
    (the matching row of U absorbs the conjugate phase), which makes
    decompositions reproducible across runs. The factors equal those of
    per-matrix SVDs bit for bit, and each user's arrays are read-only views of
    the batch.

    Raises DegenerateChannelError if a channel's rank is below its L_k, since a
    zero leading singular value cannot be inverted by conjugate detection.
    """
    H = np.asarray(H, dtype=np.complex128)
    if H.ndim != 3:
        raise DimensionError(f"channel must be a matrix, got ndim={H.ndim - 1}")
    n, R_k, T = H.shape
    if R_k > T:
        raise DimensionError(f"need R_k <= T, got R_k={R_k}, T={T}")
    if not is_count(L_k):
        raise DimensionError(f"layer count must be an integer, got {L_k!r}")
    L_k = int(L_k)
    if not 1 <= L_k <= R_k:
        raise DimensionError(f"need 1 <= L_k <= R_k, got L_k={L_k}, R_k={R_k}")
    if not np.all(np.isfinite(H)):
        raise ValueError("channel matrix has non-finite entries")

    u, s, vh = np.linalg.svd(H, full_matrices=False)
    # LAPACK returns s descending, so the stable reorder is the identity and
    # is skipped unless some row is out of order.
    if np.any(s[:, 1:] > s[:, :-1]):
        order = np.argsort(-s, kind="stable", axis=1)
        u = np.take_along_axis(u, order[:, None, :], axis=2)
        s = np.take_along_axis(s, order, axis=1)
        vh = np.take_along_axis(vh, order[:, :, None], axis=1)

    # Phase fix: one unitary diagonal applied to the rows of both U and V
    # leaves U^H S V unchanged.
    peak = np.argmax(np.abs(vh), axis=2)
    anchor = np.take_along_axis(vh, peak[:, :, None], axis=2)[:, :, 0]
    mag = np.abs(anchor)
    phase = np.where(mag > 0, anchor / np.where(mag > 0, mag, 1.0), 1.0)
    vh = vh * np.conj(phase)[:, :, None]
    U = u.conj().transpose(0, 2, 1) * np.conj(phase)[:, :, None]

    s_max = s[:, 0]
    weak = (s_max == 0.0) | (s[:, L_k - 1] <= RANK_TOL * s_max)
    if weak.any():
        i = int(np.argmax(weak))
        who = f"user {users[i]}" if users[i] is not None else "channel"
        raise DegenerateChannelError(
            f"{who}: rank below requested stream count L_k={L_k} "
            f"(leading singular values {s[i, :L_k]})"
        )

    H, U, s, vh = _frozen(H), _frozen(U), _frozen(s), _frozen(vh)
    return [UserChannel(H=H[i], U=U[i], S=s[i], V=vh[i], L_k=L_k) for i in range(n)]


def build_channel_set(channels, layer_counts) -> ChannelSet:
    """Decompose per-user channel matrices and keep them in list order.

    Users are bucketed by (R_k, L_k), buckets in order of first appearance;
    each bucket is one decompose_users call and becomes one UserGroup.
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
    buckets: dict[tuple[int, int], list[int]] = {}
    for k, (H, L_k) in enumerate(zip(mats, layer_counts)):
        if H.ndim != 2:
            raise DimensionError(f"channel must be a matrix, got ndim={H.ndim}")
        if H.shape[1] != mats[0].shape[1]:
            raise DimensionError(f"user {k} has T={H.shape[1]}, expected {mats[0].shape[1]}")
        if not is_count(L_k):
            raise DimensionError(f"user {k}: layer count must be an integer, got {L_k!r}")
        buckets.setdefault((H.shape[0], int(L_k)), []).append(k)

    L_k = tuple(int(l) for l in layer_counts)
    starts = np.cumsum((0,) + L_k)
    users: list = [None] * len(mats)
    groups = []
    for (_, L), idx in buckets.items():
        H = np.stack([mats[k] for k in idx])
        for k, user in zip(idx, decompose_users(H, L, idx)):
            users[k] = user
        cols = starts[idx][:, None] + np.arange(L)
        own = (np.arange(len(idx))[:, None] * L + np.arange(L)) * starts[-1] + cols
        groups.append(UserGroup(users=_frozen(np.array(idx)), H=_frozen(H),
                                cols=_frozen(cols), own=_frozen(own)))
    dims = SystemDims(K=len(mats), T=mats[0].shape[1],
                      R_k=tuple(H.shape[0] for H in mats), L_k=L_k)
    return ChannelSet(
        dims=dims,
        users=tuple(users),
        groups=tuple(groups),
        S_tilde=_frozen(np.concatenate([u.S_tilde for u in users])),
        V_tilde=_frozen(np.vstack([u.V_tilde for u in users])),
    )


def susinr_gain(dims: SystemDims, s_tilde: np.ndarray) -> float:
    """Channel-quality factor of the single-user SINR.

    Geometric mean over users of (1/L_k) * geomean_l(s_l^2), with the 1/L_k
    factor multiplying inside the outer mean. Evaluated in log space.
    """
    s = np.asarray(s_tilde, dtype=float)
    if np.any(s <= 0):
        raise DegenerateChannelError("singular values must be positive")
    log_terms = []
    for k in range(dims.K):
        sl = s[dims.layer_slice(k)]
        L_k = dims.L_k[k]
        log_terms.append(-math.log(L_k) + (2.0 / L_k) * float(np.sum(np.log(sl))))
    return math.exp(sum(log_terms) / dims.K)


def noise_from_susinr(channel: ChannelSet, P: float, target_db: float) -> float:
    """Noise power sigma2 such that the channel's single-user SINR is target_db.

    Inverts susinr(channel, sigma2, P) = target_db in closed form.
    """
    if P <= 0:
        raise ValueError(f"P must be positive, got {P}")
    gain = susinr_gain(channel.dims, channel.S_tilde)
    return P * gain * 10.0 ** (-target_db / 10.0)
