"""Batched MMSE-IRC spectral efficiency and its gradient in the precoder.

`build_channel_set` stacks users with the same (R_k, L_k) into one
`UserGroup` of `ChannelSet.groups`, so each step is one batched array
operation per group rather than a loop over users. A group's `cols` index
each user's own streams among all L, and `own` holds the flat positions of
those streams in an (n, L_k, L) array such as Z, so the signal terms are
gathered, and their adjoints scattered, without a mask. For each user, with
lam = sigma2 / P,

    B = H_k W,  Q = B B^H + lam I,  G = A^H Q^{-1}  (A = user k's columns of B),
    Z = G B,    SINR_l = |Z_ll|^2 / (sum_{i != l} |Z_li|^2 + lam ||g_l||^2),

the effective SINR is the geometric mean of the user's SINRs and the spectral
efficiency sums L_k log2(1 + effective SINR) over users. `irc_forward` returns
that value with a cache from which `irc_backward` pulls the gradient back
through the detector without repeating the forward pass. `irc_scores` values
a stack of precoders in one pass by folding them into each group's user axis
(`UserGroup.tiled`); every value equals irc_forward's bit for bit.

`mmse_irc` is the per-user reference detector the batched kernel is checked
against: one user, one Cholesky solve, with an optional cross-check against
the explicit interference-covariance form of the same detector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import NumericalFailureError, SingularMatrixError, UndefinedSinrError
from .model import ChannelSet, SystemDims, SystemParams, UserGroup

_LN2 = math.log(2.0)

# Above this condition number an unregularized normal matrix counts as
# singular; roundoff can otherwise let Cholesky "succeed" on a defective one.
COND_LIMIT = 1e14


def _h(X: np.ndarray) -> np.ndarray:
    """Conjugate transpose of the trailing two axes."""
    return X.conj().swapaxes(-1, -2)


def _hpd_inverse(Q: np.ndarray, users: np.ndarray, check_singular: bool) -> np.ndarray:
    """Inverse of a stack of Hermitian positive-definite Q, one per user.

    The batched Cholesky factorization is the positive-definiteness test; the
    inverse itself is batched LU, since numpy has no batched triangular solve.
    """
    if check_singular and np.any(np.linalg.cond(Q) > COND_LIMIT):
        raise SingularMatrixError(
            f"mmse-irc detection, users {users.tolist()}: system matrix is singular")
    try:
        np.linalg.cholesky(Q)
        return np.linalg.inv(Q)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError(f"mmse-irc detection, users {users.tolist()}: {exc}") from exc


def score_group(Z: np.ndarray, G: np.ndarray, group: UserGroup, lam: float):
    """Per-symbol SINRs of one group's detector outputs Z = G H W, and what
    they add up to.

    Z is (n, L_k, L) and G the (n, L_k, R_k) detector rows. Returns the SINRs
    and their denominators, both (n, L_k), the effective SINRs shaped like
    group.users and the group's spectral efficiency in bit/s/Hz: a scalar,
    or one per precoder for a group tiled over a stack of precoders. A zero
    denominator (no interference and no effective noise) raises
    UndefinedSinrError.
    """
    power = np.abs(Z) ** 2
    signal = power.take(group.own)
    np.put(power, group.own, 0.0)  # what is left of each row is interference
    g_power = np.einsum("nlr,nlr->nl", G, G.conj()).real
    den = power.sum(axis=2) + g_power * lam
    if not den.all():
        bad = int(group.cols[den == 0.0][0])
        raise UndefinedSinrError(
            f"symbol {bad}: zero denominator (no interference and no effective noise)"
        )
    sinr = signal / den
    eff = geometric_means(sinr).reshape(group.users.shape)
    return sinr, den, eff, group.cols.shape[1] * np.log1p(eff).sum(axis=-1) / _LN2


def geometric_means(sinr: np.ndarray) -> np.ndarray:
    """Geometric mean over the last axis; a zero anywhere collapses it to zero."""
    logs = np.log(np.where(sinr > 0.0, sinr, 1.0))
    means = np.exp(logs.sum(axis=-1) / sinr.shape[-1])
    return np.where((sinr == 0.0).any(axis=-1), 0.0, means)


def detect(W: np.ndarray, group: UserGroup, lam: float):
    """MMSE-IRC detectors of one group: returns B = H W, Q^{-1} and G = A^H Q^{-1}.

    W is one (T, L) precoder, or a (b, T, L) stack for a group tiled over b.
    """
    n, R, T = group.H.shape
    # One GEMM per precoder, of the shape a lone precoder gets, keeps each
    # precoder's B bit-identical; one (n R, T) x (T, b L) GEMM would not be,
    # since BLAS blocks the product differently as its width grows.
    B = (group.H.reshape(n * R, T) @ W).reshape(-1, R, W.shape[-1])
    Q = B @ _h(B)
    diag = np.arange(R)
    Q[:, diag, diag] += lam
    Q_inv = _hpd_inverse(Q, group.users, check_singular=lam == 0.0)
    A_t = B[np.arange(len(B))[:, None], :, group.cols]  # (n, L_k, R_k): A transposed
    return B, Q_inv, A_t.conj() @ Q_inv


def _hermitian_solve(Q: np.ndarray, rhs: np.ndarray, context: str,
                     check_singular: bool = False) -> np.ndarray:
    # Cholesky of the Hermitian positive-definite normal matrix; cheaper and
    # more stable than forming the inverse.
    if check_singular and np.linalg.cond(Q) > COND_LIMIT:
        raise SingularMatrixError(f"{context}: system matrix is singular")
    try:
        c, low = scipy.linalg.cho_factor(Q, check_finite=False)
        return scipy.linalg.cho_solve((c, low), rhs, check_finite=False)
    except (np.linalg.LinAlgError, scipy.linalg.LinAlgError) as exc:
        raise SingularMatrixError(f"{context}: {exc}") from exc


def mmse_irc(H_k: np.ndarray, W: np.ndarray, k: int, dims: SystemDims,
             noise_to_signal: float, check_covariance_form: bool = False) -> np.ndarray:
    """Interference-aware MMSE detector for user k given the full precoder.

    Computed in the simplified form (H_k W_k)^H (H_k W (H_k W)^H + lam I)^{-1},
    which folds the other-user covariance into the Gram matrix of the full
    product. With check_covariance_form the explicit-covariance expression is
    evaluated too and a mismatch beyond 1e-10 raises.
    """
    H = np.asarray(H_k, dtype=np.complex128)
    Wm = np.asarray(W, dtype=np.complex128)
    cols = dims.layer_slice(k)
    B = H @ Wm                      # (R_k, L)
    A = B[:, cols]                  # (R_k, L_k)
    R_k = H.shape[0]
    Q = B @ B.conj().T + noise_to_signal * np.eye(R_k)
    G = _hermitian_solve(Q, A, f"mmse-irc detection, user {k}",
                         check_singular=noise_to_signal == 0.0).conj().T

    if check_covariance_form:
        W_k = Wm[:, cols]
        R_uu = H @ (Wm @ Wm.conj().T - W_k @ W_k.conj().T) @ H.conj().T
        Q_cov = A @ A.conj().T + R_uu + noise_to_signal * np.eye(R_k)
        G_cov = _hermitian_solve(Q_cov, A, f"mmse-irc covariance form, user {k}").conj().T
        scale = max(np.linalg.norm(G), 1e-300)
        if np.linalg.norm(G - G_cov) / scale > 1e-10:
            raise NumericalFailureError(
                f"user {k}: simplified and covariance-form MMSE-IRC disagree"
            )
    return G


@dataclass(frozen=True)
class GroupPass:
    """Forward-pass arrays of one user group."""

    group: UserGroup
    B: np.ndarray     # (n, R_k, L)
    Q_inv: np.ndarray  # (n, R_k, R_k) inverse of Q = B B^H + lam I
    G: np.ndarray     # (n, L_k, R_k)
    Z: np.ndarray     # (n, L_k, L)
    sinr: np.ndarray  # (n, L_k)
    den: np.ndarray   # (n, L_k)
    eff: np.ndarray   # (n,) effective SINRs


@dataclass(frozen=True)
class IrcCache:
    """What irc_backward needs from one irc_forward call."""

    lam: float
    shape: tuple[int, int]  # (T, L) of the precoder
    passes: tuple[GroupPass, ...]


def irc_forward(Wp, channel: ChannelSet, params: SystemParams) -> tuple[float, IrcCache]:
    """MMSE-IRC spectral efficiency of the precoder Wp, and the cache that
    irc_backward differentiates it from."""
    W = np.asarray(Wp, dtype=np.complex128)
    lam = params.noise_to_signal
    passes = []
    se = 0.0
    for group in channel.groups:
        B, Q_inv, G = detect(W, group, lam)
        Z = G @ B
        sinr, den, eff, se_group = score_group(Z, G, group, lam)
        se += float(se_group)
        passes.append(GroupPass(group, B, Q_inv, G, Z, sinr, den, eff))
    return se, IrcCache(lam, W.shape, tuple(passes))


def irc_scores(Ws, channel: ChannelSet, params: SystemParams) -> np.ndarray:
    """MMSE-IRC spectral efficiencies of a (b, T, L) stack of precoders in one
    pass; entry j equals irc_forward(Ws[j])[0] bit for bit.

    An error of any precoder fails the whole pass.
    """
    W = np.asarray(Ws, dtype=np.complex128)
    lam = params.noise_to_signal
    se = np.zeros(len(W))
    for group in channel.groups:
        tiled = group.tiled(len(W), W.shape[-1])
        B, _, G = detect(W, tiled, lam)
        se += score_group(G @ B, G, tiled, lam)[3]
    return se


def irc_backward(cache: IrcCache) -> np.ndarray:
    """Complex ascent gradient (twice the derivative in conj(W)) of the
    spectral efficiency at the precoder of the forward pass.

    Adjoints flow from the SINRs to Z, then to the detector G = A^H Q^{-1}
    with Q = B B^H + lam I, and through both into B = H_k W. The forward
    pass already inverted Q, so nothing is factored here.
    """
    lam = cache.lam
    D_W = np.zeros(cache.shape, dtype=np.complex128)
    for p in cache.passes:
        bad = (p.den <= 0.0) | (p.sinr <= 0.0)
        if bad.any():
            raise NumericalFailureError(
                f"user {int(p.group.users[np.argmax(bad.any(axis=1))])}: spectral "
                "efficiency not differentiable (zero per-symbol SINR or denominator)"
            )
        geo = p.eff[:, None]
        # Twice d SE_k / d sinr_l for SE_k = L_k log2(1 + geomean(sinr)); the
        # factor 2 of the ascent gradient is exact here and carries through.
        c = 2.0 * geo / ((1.0 + geo) * _LN2 * p.sinr)
        v_w = (c * p.sinr / p.den)[:, :, None]
        own = p.group.own
        D_Z = -v_w * p.Z
        np.put(D_Z, own, c / p.den * p.Z.take(own))
        D_G = D_Z @ _h(p.B) - lam * v_w * p.G    # detector row powers enter via lam
        D_A = p.Q_inv @ _h(D_G)                   # (n, R_k, L_k)
        Y = D_A @ p.G                             # (n, R_k, R_k)
        D_B = _h(p.G) @ D_Z - (Y + _h(Y)) @ p.B
        n, R, T = p.group.H.shape
        D_B[np.arange(n)[:, None], :, p.group.cols] += D_A.swapaxes(1, 2)  # A = own cols of B
        D_W += p.group.H.reshape(n * R, T).conj().T @ D_B.reshape(n * R, -1)
    return D_W
