"""Per-user linear detection matrices: MMSE, MMSE-IRC and conjugate detection.

Detection here always regularizes with the per-symbol noise-to-signal ratio
sigma2 / P; the larger constant sigma2 * L / P belongs to the regularized
precoders, not to detection.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import DegenerateChannelError, NumericalFailureError, SingularMatrixError
from .irc import COND_LIMIT, detect
from .model import ChannelSet, SystemDims, SystemParams, UserChannel

KINDS = ("mmse", "mmse-irc", "conjugate")


@dataclass(frozen=True)
class DetectionSet:
    """One detection block per user; block k has shape (L_k, R_k)."""

    kind: str
    blocks: tuple[np.ndarray, ...]

    def assembled(self) -> np.ndarray:
        """Block-diagonal (L, R) detection matrix."""
        return scipy.linalg.block_diag(*self.blocks)


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


def mmse(A_k: np.ndarray, noise_to_signal: float) -> np.ndarray:
    """MMSE detector A^H (A A^H + (sigma2/P) I)^{-1} for A = H_k W_k.

    The regularized identity is sized (R_k, R_k) to match the inverse. With
    zero regularization the system must be invertible, which requires A to
    have full row rank.
    """
    A = np.asarray(A_k, dtype=np.complex128)
    if noise_to_signal < 0:
        raise ValueError(f"noise_to_signal must be nonnegative, got {noise_to_signal}")
    R_k = A.shape[0]
    Q = A @ A.conj().T + noise_to_signal * np.eye(R_k)
    return _hermitian_solve(Q, A, "mmse detection",
                            check_singular=noise_to_signal == 0.0).conj().T


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


def conjugate(user: UserChannel) -> np.ndarray:
    """Conjugate detector S_tilde^{-1} U_tilde built from the channel's own SVD."""
    s = user.S_tilde
    if np.any(s <= 0):
        raise DegenerateChannelError("conjugate detection needs positive leading singular values")
    return user.U_tilde / s[:, None]


def irc_detection_set(channel: ChannelSet, W: np.ndarray, params: SystemParams) -> DetectionSet:
    """MMSE-IRC detectors of every user, computed batched per user group."""
    Wm = np.asarray(W, dtype=np.complex128)
    blocks = [None] * channel.dims.K
    for group in channel.groups:
        G = detect(Wm, group, params.noise_to_signal)[2]
        for k, G_k in zip(group.users, G):
            blocks[k] = G_k
    return DetectionSet(kind="mmse-irc", blocks=tuple(blocks))


def conjugate_detection_set(channel: ChannelSet) -> DetectionSet:
    return DetectionSet(kind="conjugate", blocks=tuple(conjugate(u) for u in channel.users))
