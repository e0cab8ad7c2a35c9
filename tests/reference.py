"""Scalar per-user references the library's batched SINR paths are checked
against: the conjugate detector of one user, the per-symbol SINR under
conjugate detection and the effective (geometric-mean) SINR of one user,
whose masked geometric mean is written here apart from the library's.

The library computes these quantities only in batch (irc.irc_forward for
MMSE-IRC, quality.cd_forward for the conjugate-detection surrogate); the tests
compare against the one-user, one-symbol forms here.
"""

import numpy as np

from mimo_precoding import DegenerateChannelError, DimensionError, UserChannel
from mimo_precoding.quality import as_array


def geometric_means(sinr: np.ndarray) -> np.ndarray:
    """Geometric mean over the last axis, masked: logs of positive SINRs only,
    and zero wherever a row holds a zero."""
    logs = np.log(np.where(sinr > 0.0, sinr, 1.0))
    means = np.exp(logs.sum(axis=-1) / sinr.shape[-1])
    return np.where((sinr == 0.0).any(axis=-1), 0.0, means)


def effective_sinr(per_symbol) -> float:
    """Geometric mean of a user's per-symbol SINRs; any zero collapses it to zero.

    A negative or NaN SINR raises ValueError.
    """
    x = np.asarray(per_symbol, dtype=float)
    if x.size == 0:
        raise DimensionError("need at least one per-symbol SINR")
    if not (x >= 0).all():
        raise ValueError("SINR values must be nonnegative, not NaN")
    return float(geometric_means(x))


def conjugate(user: UserChannel) -> np.ndarray:
    """Conjugate detector S_tilde^{-1} U_tilde built from the channel's own SVD,
    U_tilde being the leading L_k rows of U."""
    s = user.S_tilde
    if np.any(s <= 0):
        raise DegenerateChannelError("conjugate detection needs positive leading singular values")
    return user.U[:user.L_k] / s[:, None]


def sinr_conjugate(W, v_l: np.ndarray, s_l: float, sigma2: float, P: float, l: int) -> float:
    """Per-symbol SINR under conjugate detection.

    |v w_l|^2 / (sum_{i != l} |v w_i|^2 + sigma2 / (P s_l^2)). Identical to
    symbol_sinr evaluated at the conjugate-detection row g_l = u_l / s_l, for
    which g_l H_k = v_l and ||g_l||^2 = 1 / s_l^2.
    """
    if s_l <= 0:
        raise DegenerateChannelError(f"symbol {l}: singular value must be positive")
    Wm = as_array(W)
    a = np.asarray(v_l, dtype=np.complex128).ravel() @ Wm
    power = np.abs(a) ** 2
    signal = power[l]
    interference = float(np.sum(np.delete(power, l)))
    return float(signal / (interference + sigma2 / (P * s_l**2)))
