"""Batched MMSE-IRC spectral efficiency and its gradient in the precoder.

Users with the same (R_k, L_k) are stacked (`ChannelSet.groups`), so each
step is one batched array operation per group rather than a loop over users.
For each user, with lam = sigma2 / P,

    B = H_k W,  Q = B B^H + lam I,  G = A^H Q^{-1}  (A = user k's columns of B),
    Z = G B,    SINR_l = |Z_ll|^2 / (sum_{i != l} |Z_li|^2 + lam ||g_l||^2),

the effective SINR is the geometric mean of the user's SINRs and the spectral
efficiency sums L_k log2(1 + effective SINR) over users. `irc_forward` returns
that value with a cache from which `irc_backward` pulls the gradient back
through the detector without repeating the forward pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalFailureError, SingularMatrixError, UndefinedSinrError
from .model import ChannelSet, SystemParams, UserGroup

_LN2 = math.log(2.0)

# Above this condition number an unregularized normal matrix counts as
# singular; roundoff can otherwise let Cholesky "succeed" on a defective one.
COND_LIMIT = 1e14


def _h(X: np.ndarray) -> np.ndarray:
    """Conjugate transpose of the trailing two axes."""
    return X.conj().swapaxes(-1, -2)


def _hpd_solve(Q: np.ndarray, rhs: np.ndarray, context: str,
               check_singular: bool) -> np.ndarray:
    """Solve Q X = rhs for a stack of Hermitian positive-definite Q.

    The batched Cholesky factorization is the positive-definiteness test; the
    solve itself is batched LU, since numpy has no batched triangular solve.
    """
    if check_singular and np.any(np.linalg.cond(Q) > COND_LIMIT):
        raise SingularMatrixError(f"{context}: system matrix is singular")
    try:
        np.linalg.cholesky(Q)
        return np.linalg.solve(Q, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError(f"{context}: {exc}") from exc


def score_group(Z: np.ndarray, G: np.ndarray, group: UserGroup, lam: float):
    """Per-symbol SINRs of one group's detector outputs Z = G H W, and what
    they add up to.

    Z is (n, L_k, L) and G the (n, L_k, R_k) detector rows. Returns the SINRs
    and their denominators, both (n, L_k), the (n,) effective SINRs and the
    group's spectral efficiency in bit/s/Hz. A zero denominator (no
    interference and no effective noise) raises UndefinedSinrError.
    """
    power = np.abs(Z) ** 2
    own = group.select
    signal = np.sum(power * own, axis=2)
    g_power = np.einsum("nlr,nlr->nl", G, G.conj()).real
    den = np.where(own, 0.0, power).sum(axis=2) + g_power * lam
    zero = den == 0.0
    if np.any(zero):
        bad = int(group.cols[zero][0])
        raise UndefinedSinrError(
            f"symbol {bad}: zero denominator (no interference and no effective noise)"
        )
    sinr = signal / den
    eff = geometric_means(sinr)
    return sinr, den, eff, float(own.shape[1] * np.sum(np.log1p(eff)) / _LN2)


def geometric_means(sinr: np.ndarray) -> np.ndarray:
    """Geometric mean over the last axis; a zero anywhere collapses it to zero."""
    zero = np.any(sinr == 0.0, axis=-1)
    logs = np.log(np.where(sinr > 0.0, sinr, 1.0))
    return np.where(zero, 0.0, np.exp(np.mean(logs, axis=-1)))


def detect(W: np.ndarray, group: UserGroup, lam: float):
    """MMSE-IRC detectors of one group: returns B = H W, Q and G = A^H Q^{-1}."""
    B = group.H @ W                                   # (n, R_k, L)
    A = B @ group.select.swapaxes(1, 2)               # (n, R_k, L_k)
    Q = B @ _h(B) + lam * np.eye(B.shape[1])
    G = _h(_hpd_solve(Q, A, f"mmse-irc detection, users {group.users.tolist()}",
                      check_singular=lam == 0.0))
    return B, Q, G


@dataclass(frozen=True)
class GroupPass:
    """Forward-pass arrays of one user group."""

    group: UserGroup
    B: np.ndarray     # (n, R_k, L)
    Q: np.ndarray     # (n, R_k, R_k)
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
        B, Q, G = detect(W, group, lam)
        Z = G @ B
        sinr, den, eff, se_group = score_group(Z, G, group, lam)
        se += se_group
        passes.append(GroupPass(group, B, Q, G, Z, sinr, den, eff))
    return se, IrcCache(lam, W.shape, tuple(passes))


def irc_backward(cache: IrcCache) -> np.ndarray:
    """Complex ascent gradient (twice the derivative in conj(W)) of the
    spectral efficiency at the precoder of the forward pass.

    Adjoints flow from the SINRs to Z, then to the detector G = A^H Q^{-1}
    with Q = B B^H + lam I, and through both into B = H_k W.
    """
    lam = cache.lam
    D_W = np.zeros(cache.shape, dtype=np.complex128)
    for p in cache.passes:
        bad = np.any((p.den <= 0.0) | (p.sinr <= 0.0), axis=1)
        if np.any(bad):
            raise NumericalFailureError(
                f"user {int(p.group.users[np.argmax(bad)])}: spectral efficiency not "
                "differentiable (zero per-symbol SINR or denominator)"
            )
        geo = p.eff[:, None]
        # d SE_k / d sinr_l for SE_k = L_k log2(1 + geomean(sinr))
        c = geo / ((1.0 + geo) * _LN2 * p.sinr)
        u_w = (c / p.den)[:, :, None]
        v_w = (c * p.sinr / p.den)[:, :, None]
        own = p.group.select
        D_Z = np.where(own, u_w, -v_w) * p.Z
        D_G = D_Z @ _h(p.B) - lam * v_w * p.G    # detector row powers enter via lam
        D_A = np.linalg.solve(p.Q, _h(D_G))       # (n, R_k, L_k)
        Y = D_A @ p.G                             # (n, R_k, R_k)
        D_B = _h(p.G) @ D_Z - _h(Y) @ p.B - Y @ p.B + D_A @ own
        D_W += np.tensordot(p.group.H.conj(), D_B, axes=([0, 1], [0, 1]))
    return 2.0 * D_W
