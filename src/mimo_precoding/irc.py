"""Batched MMSE-IRC spectral efficiency and its gradient in the precoder.

`build_channel_set` stacks users with the same (R_k, L_k) into one
`UserGroup` of `ChannelSet.groups`, so each step is one batched array
operation per group rather than a loop over users. A group's `cols` index
each user's own streams among all L, and `own` and `own_cols` hold their
flat positions in an (n, L_k, L) array such as Z and in an (n, R_k, L) array
such as B, so the signal terms and A^H are gathered, and their adjoints
scattered, by flat take and put. For each user, with lam = sigma2 / P,

    B = H_k W,  Q = B B^H + lam I,  G = A^H Q^{-1}  (A = user k's columns of B),
    Z = G B,    SINR_l = |Z_ll|^2 / (sum_{i != l} |Z_li|^2 + lam ||g_l||^2),

the effective SINR is the geometric mean of the user's SINRs and the spectral
efficiency sums L_k log2(1 + effective SINR) over users. `irc_forward` returns
that value with a cache (B, B^H, Q^{-1}, G, Z) from which `irc_backward` pulls
the gradient back through the detector. Q is factored once, by LU, unless a
rounding bound cannot prove it positive definite (`_hpd_inverse`).

Both take one (T, L) precoder or a (b, T, L) stack. A stack is folded into
each group's user axis by reshape, precoder j's rows after precoder j - 1's,
so its flat positions are the group's shifted by j times the size of one
precoder's array. Every product keeps the shape a lone precoder gets, so each
entry of a stack's value and each slice of its gradient equals that
precoder's lone pass bit for bit. The gradient keeps the adjoint through the
detector G: it is zero in exact arithmetic, but it cancels the detector's
roundoff to first order.

`mmse_irc` is the per-user reference detector the batched kernel is checked
against: one user, one Cholesky solve, with an optional cross-check against
the explicit interference-covariance form of the same detector. The library
does not call it; it stays exported because perfbench/check.py imports it,
with quality.symbol_sinr, as the benchmark's independent oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg
from numpy._core.multiarray import c_einsum  # np.einsum's C routine, without its dispatch
from numpy.linalg import _umath_linalg  # np.linalg.inv's LAPACK call, without its checks

from .errors import NumericalFailureError, SingularMatrixError, UndefinedSinrError
from .model import ChannelSet, SystemDims, SystemParams, UserGroup

_LN2 = math.log(2.0)
_U = 2.0 ** -53  # unit roundoff

# Above this condition number an unregularized normal matrix counts as
# singular; roundoff can otherwise let Cholesky "succeed" on a defective one.
COND_LIMIT = 1e14


def _h(X: np.ndarray) -> np.ndarray:
    """Conjugate transpose of the trailing two axes."""
    return X.conj().swapaxes(-1, -2)


def _hpd_inverse(Q: np.ndarray, lam: float, L: int, users: np.ndarray) -> np.ndarray:
    """(Q + lam I)^-1 for a stack of Gram matrices Q = B B^H, B with L columns,
    one per user; lam is added to Q in place.

    The inverse is batched LU (numpy has no batched triangular solve). A
    batched Cholesky tests positive definiteness unless lam > c u M proves it
    passes: u = 2^-53, M is the largest diagonal entry with lam added and
    c = 4 R (L + R + 5) (c u = 4.4e-14 at R = 4, L = 16). Rounding B B^H moves
    an entry by at most sqrt(2) gamma_{L+2} |b_i| |b_j| (Higham, Accuracy and
    Stability of Numerical Algorithms, 2nd ed., 3.5-3.6), the 2-norm by
    sqrt(2) gamma_{L+2} R M, and adding lam a diagonal entry by u M. Cholesky
    completes once the diagonally scaled matrix, with lam_min at least
    lam_min(Q + lam I) / M, has lam_min > R g / (1 - R g), g = sqrt(2)
    gamma_{R+3} in complex arithmetic (ibid., Thm 10.7). So lam > (1 + sqrt(2)
    R (L + R + 5)) u M suffices to first order; c doubles it. The test runs for
    lam = 0, lam outside (2^-969, 2^900) (underflow, overflow) or a NaN or inf
    in Q, which fails the comparison.

    The inverse is the LAPACK zgesv call np.linalg.inv makes, without its
    wrapper's checks. Where the bound holds, no errstate either: LU's pivots
    stay away from zero. LU rounds differently from Cholesky, so a Q that only
    Cholesky accepted can still meet an exact zero pivot (a rank-one Q near
    1e53 with lam = 1e-17 M does), which zgesv flags as an invalid value;
    there the flag raises SingularMatrixError, as np.linalg.inv's errstate
    would raise LinAlgError.
    """
    n, R, _ = Q.shape
    diag = Q.reshape(n, R * R)[:, ::R + 1]
    diag += lam
    if lam == 0.0 and np.any(np.linalg.cond(Q) > COND_LIMIT):
        raise SingularMatrixError(
            f"mmse-irc detection, users {users.tolist()}: system matrix is singular")
    proven = (2.0 ** -969 < lam < 2.0 ** 900
              and lam > 4 * R * (L + R + 5) * _U * np.maximum.reduce(diag.real, axis=None))
    if proven:
        return _umath_linalg.inv(Q, signature="D->D")
    try:
        np.linalg.cholesky(Q)
        with np.errstate(invalid="raise"):
            return _umath_linalg.inv(Q, signature="D->D")
    except (np.linalg.LinAlgError, FloatingPointError) as exc:
        raise SingularMatrixError(f"mmse-irc detection, users {users.tolist()}: {exc}") from exc


def score_group(Z: np.ndarray, G: np.ndarray, group: UserGroup, own: np.ndarray, lam: float):
    """Per-symbol SINRs of one group's detector outputs Z = G H W, and what
    they add up to.

    Z is (m, L_k, L) and G the (m, L_k, R_k) detector rows, m = n, or b n for
    a stack of b precoders (row j n + i: user i under precoder j); own holds
    the flat positions of the own streams in Z, (n, L_k) or (b, n, L_k).
    Returns the SINRs and their denominators, shaped like own, the effective
    SINRs, (n,) or (b, n), the group's spectral efficiency in bit/s/Hz, a
    scalar or one per precoder, and whether every SINR is positive, which
    irc_backward reads instead of rescanning. Each validity test is one
    reduction; a NaN carries through the minimum to the failing branch. The
    sums and minima are ufunc reductions (np.add.reduce, np.minimum.reduce)
    and the detector row powers c_einsum: what ndarray.sum and min and
    np.einsum call, without their Python layer, on every evaluation. A zero
    denominator (no interference and no effective noise) raises
    UndefinedSinrError, a NaN one (from a NaN or an overflow in the precoder,
    or a NaN noise) NumericalFailureError; both name the user and the symbol.
    """
    power = np.abs(Z) ** 2
    signal = power.take(own)
    power.put(own, 0.0)  # what is left of each row is interference
    g_power = c_einsum("nlr,nlr->nl", G, G.conj()).real
    den = (np.add.reduce(power, axis=2) + g_power * lam).reshape(own.shape)
    if not np.minimum.reduce(den, axis=None) > 0.0:  # sums of nonnegative terms: 0 or NaN
        i = np.argmin(den > 0.0)
        j = i % group.cols.size  # the same entry in the precoder's lone pass
        bad = f"user {group.users[j // own.shape[-1]]}, symbol {group.cols.flat[j]}"
        if den.flat[i] == 0.0:
            raise UndefinedSinrError(
                f"{bad}: zero denominator (no interference and no effective noise)"
            )
        raise NumericalFailureError(f"{bad}: SINR denominator is {den.flat[i]}")
    sinr = signal / den
    positive = bool(np.minimum.reduce(sinr, axis=None) > 0.0)
    eff = _unmasked_geometric_means(sinr) if positive else geometric_means(sinr)
    return sinr, den, eff, own.shape[-1] * np.add.reduce(np.log1p(eff), axis=-1) / _LN2, positive


def _unmasked_geometric_means(sinr: np.ndarray) -> np.ndarray:
    # For positive SINRs only; the same bits as geometric_means there.
    return np.exp(np.add.reduce(np.log(sinr), axis=-1) / sinr.shape[-1])


def geometric_means(sinr: np.ndarray) -> np.ndarray:
    """Geometric mean over the last axis; a zero anywhere collapses it to zero.
    score_group calls it only when some SINR is not positive."""
    logs = np.log(np.where(sinr > 0.0, sinr, 1.0))
    means = np.exp(logs.sum(axis=-1) / sinr.shape[-1])
    return np.where((sinr == 0.0).any(axis=-1), 0.0, means)


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
    """Forward-pass arrays of one user group; m is n, or b n for a stack of b
    precoders, whose per-symbol arrays gain a leading precoder axis."""

    group: UserGroup
    own: np.ndarray   # flat positions of the own streams in Z, see score_group
    own_cols: np.ndarray  # (m, L_k, R_k) flat positions of A^H's entries in B
    B: np.ndarray     # (m, R_k, L)
    Bh: np.ndarray    # (m, L, R_k) conjugate transpose of B
    Q_inv: np.ndarray  # (m, R_k, R_k) inverse of Q = B B^H + lam I
    G: np.ndarray     # (m, L_k, R_k)
    Z: np.ndarray     # (m, L_k, L)
    sinr: np.ndarray  # shaped like own: (n, L_k), or (b, n, L_k) for a stack
    den: np.ndarray   # shaped like own
    eff: np.ndarray   # (n,) effective SINRs, or (b, n) for a stack
    positive: bool    # every SINR > 0, decided by score_group


@dataclass(frozen=True)
class IrcCache:
    """What irc_backward needs from one irc_forward call."""

    lam: float
    shape: tuple[int, ...]  # (T, L) of the precoder, or (b, T, L) of a stack
    passes: tuple[GroupPass, ...]


def irc_forward(Wp, channel: ChannelSet,
                params: SystemParams) -> tuple[float | np.ndarray, IrcCache]:
    """MMSE-IRC spectral efficiency of the precoder Wp, and the cache that
    irc_backward differentiates it from.

    Wp is one (T, L) precoder, whose value is a float, or a (b, T, L) stack,
    whose value is a (b,) array; an error of any precoder fails the whole pass.
    """
    W = np.asarray(Wp, dtype=np.complex128)
    lam = params.noise_to_signal
    L = W.shape[-1]
    passes = []
    se = None
    for group in channel.groups:
        n, R, T = group.H.shape
        # One GEMM per precoder, of the shape a lone precoder gets, keeps each
        # precoder's B bit-identical; one (n R, T) x (T, b L) GEMM would not be,
        # since BLAS blocks the product differently as its width grows.
        B = (group.H.reshape(n * R, T) @ W).reshape(-1, R, L)
        B_conj = B.conj()
        Bh = B_conj.swapaxes(1, 2)
        Q_inv = _hpd_inverse(B @ Bh, lam, L, group.users)
        own, own_cols = group.own, group.own_cols
        if W.ndim == 3:  # precoder j's arrays follow precoder j - 1's
            j = np.arange(len(W))[:, None, None]
            own = own + j * (own.size * L)
            own_cols = (own_cols + j[..., None] * (n * R * L)).reshape(-1, own_cols.shape[1], R)
        G = B_conj.take(own_cols) @ Q_inv  # A^H from B's own columns
        Z = G @ B
        sinr, den, eff, se_group, positive = score_group(Z, G, group, own, lam)
        se = se_group if se is None else se + se_group
        passes.append(GroupPass(group, own, own_cols, B, Bh, Q_inv, G, Z, sinr, den, eff, positive))
    return (se if W.ndim == 3 else float(se)), IrcCache(lam, W.shape, tuple(passes))


def irc_backward(cache: IrcCache) -> np.ndarray:
    """Complex ascent gradient (twice the derivative in conj(W)) of the
    spectral efficiency at the precoder of the forward pass: (T, L), or
    (b, T, L) for a stacked pass, slice j that of precoder j alone.

    Adjoints flow from the SINRs to Z, then to the detector G = A^H Q^{-1}
    with Q = B B^H + lam I, and through both into B = H_k W, from the forward
    pass's B^H and Q^{-1}, so nothing is factored here. Whether every SINR is
    positive is the forward's decision (GroupPass.positive); a zero SINR
    raises NumericalFailureError naming the first such user. The detector
    branch (D_G to D_A and Y) is zero in exact arithmetic, since each MMSE-IRC
    row maximizes its stream's SINR, but it cancels the detector's roundoff
    to first order; without it the gradient loses four to five digits.
    """
    lam = cache.lam
    D_W = None
    for p in cache.passes:
        if not p.positive:  # the forward pass rejected den <= 0 or NaN
            users = p.group.users  # row i of a stack is user users[i % n]
            i = np.argmin((p.sinr > 0.0).all(axis=-1)) % len(users)
            raise NumericalFailureError(
                f"user {users[i]}: spectral efficiency not differentiable "
                "(zero per-symbol SINR or denominator)")
        geo = p.eff[..., None]
        # Twice d SE_k / d sinr_l for SE_k = L_k log2(1 + geomean(sinr)); the
        # factor 2 of the ascent gradient is exact here and carries through.
        c = 2.0 * geo / ((1.0 + geo) * _LN2 * p.sinr)
        v_w = (c * p.sinr / p.den).reshape(*p.Z.shape[:2], 1)
        D_Z = -v_w * p.Z
        D_Z.put(p.own, c / p.den * p.Z.take(p.own))
        D_G = D_Z @ p.Bh - lam * v_w * p.G       # detector row powers enter via lam
        D_A = p.Q_inv @ _h(D_G)                   # (m, R_k, L_k)
        Y = D_A @ p.G                             # (m, R_k, R_k)
        D_B = _h(p.G) @ D_Z - (Y + _h(Y)) @ p.B
        D_B.put(p.own_cols, D_B.take(p.own_cols) + D_A.swapaxes(1, 2))  # A = own cols
        # One (T, n R) x (n R, L) GEMM per precoder, as detect's forward GEMM.
        part = p.group.H_h @ D_B.reshape(*cache.shape[:-2], p.group.H_h.shape[1], -1)
        D_W = part if D_W is None else D_W + part
    return D_W
