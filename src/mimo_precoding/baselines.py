"""Closed-form precoders: MRT, ZF, RZF and ARZF, all normalized to the unit
per-antenna power budget 1/T by one scalar that puts the largest row's power a
rounding margin inside it, so every row meets the budget exactly and the
optimizer's projection leaves the precoder unchanged."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.linalg.lapack import zpotrf, zpotrs

from .errors import DegenerateChannelError, DimensionError, SingularMatrixError, ZeroPrecoderError
from .model import ChannelSet, SystemParams
from .quality import PrecodingMatrix, _inside, row_power

KINDS = ("MRT", "ZF", "RZF", "ARZF")

_COND_WARN = 1e12
# ||G||_F ||G^{-1}||_F never reads below the 2-norm condition number; this
# margin absorbs the roundoff of the computed inverse and of the SVD, so any
# Gram matrix whose condition number could read above _COND_WARN is checked
# exactly.
_COND_MARGIN = 16.0


@dataclass(frozen=True)
class BaselineConfig:
    """Which closed-form precoder to build and with what constants."""

    kind: str
    params: SystemParams

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown baseline kind {self.kind!r}, expected one of {KINDS}")


def normalize_power(W_raw: np.ndarray) -> PrecodingMatrix:
    """Scale so the largest antenna row's power sits at the fraction
    quality._inside(L) of the unit budget 1/T.

    The factor is the one optimizer.project gives a row outside the ball, and
    _inside's margin keeps every scaled row's computed power (quality.row_power)
    at or below 1/T: the result passes feasible(tol=0.0) and project returns
    it unchanged, whatever the last bits of the input. One global scalar
    preserves the precoder direction, so normalization absorbs any positive
    scaling of the input.
    """
    W = np.asarray(W_raw, dtype=np.complex128)
    if W.ndim != 2:
        raise DimensionError(f"precoder must be a matrix, got ndim={W.ndim}")
    T, L = W.shape
    top = row_power(W).max(initial=0.0)
    if not 2.0**-500 <= top <= 2.0**500 and np.isfinite(W).all():
        # Outside the range _inside's proof covers: a row power can overflow,
        # underflow to zero or lose digits, and 1/T over it can overflow. The
        # exact power of two that puts the largest real or imaginary part in
        # [1/2, 1) brings the rows back into it, and leaves a zero matrix zero.
        Wf = np.ascontiguousarray(W).view(np.float64)
        W = np.ldexp(Wf, -math.frexp(np.abs(Wf).max(initial=0.0))[1]).view(np.complex128)
        top = row_power(W).max(initial=0.0)
    if top == 0.0:
        raise ZeroPrecoderError("cannot normalize an all-zero precoding matrix")
    scale = np.sqrt(1.0 / T * _inside(L) / top)
    # A NaN or infinite entry makes top non-finite; a finite top in
    # [2**-500, 2**500] gives a finite scale that bounds every scaled entry by
    # sqrt(1 / T), so the result needs no rescan.
    if not math.isfinite(top):
        raise ValueError("precoder has non-finite entries")
    # C order whatever the input's: MRT hands in the F-ordered V_tilde^H, and
    # the GEMMs that score a precoder round differently on an F-ordered one.
    return PrecodingMatrix._adopt(np.multiply(W, scale, order="C"))


@lru_cache(maxsize=16)
def _identity(n: int) -> np.ndarray:
    eye = np.eye(n, dtype=np.complex128)
    eye.setflags(write=False)
    return eye


def _regularized_inverse_precoder(channel: ChannelSet, reg_diag: np.ndarray | None,
                                  context: str) -> np.ndarray:
    """V^H (V V^H + diag(reg))^{-1} without forming the inverse.

    The Cholesky factorization and solve are the LAPACK calls that scipy's
    cho_factor and cho_solve make, without their wrappers' checks.

    Without regularization the Gram matrix is checked for conditioning:
    above 1e14 it counts as singular, above _COND_WARN a RuntimeWarning is
    issued. The exact 2-norm condition number takes an SVD, so it is computed
    only when LAPACK fails or when ||G||_F ||G^{-1}||_F, an upper bound on it
    from the solve already made, comes within _COND_MARGIN of _COND_WARN.
    """
    gram = channel.gram
    lhs = gram if reg_diag is None else gram + np.diag(reg_diag)
    c, info = zpotrf(lhs, clean=False)
    if info == 0:
        X, info = zpotrs(c, _identity(len(c)))
    # A failed factorization, or a bound that is NaN, takes the exact path too.
    if reg_diag is None and not (
            info == 0 and np.linalg.norm(gram) * np.linalg.norm(X) <= _COND_WARN / _COND_MARGIN):
        cond = np.linalg.cond(gram)
        if cond > 1e14:
            raise SingularMatrixError(
                f"{context}: stream correlation matrix is singular (cond {cond:.2g})"
            )
        if cond > _COND_WARN:
            warnings.warn(
                f"{context}: stream correlation matrix condition number above {_COND_WARN:g}",
                RuntimeWarning,
                stacklevel=3,
            )
    if info > 0:
        raise SingularMatrixError(
            f"{context}: {info}-th leading minor of the array is not positive definite")
    if info != 0:  # an argument LAPACK rejects is a bug here, not a bad channel
        raise ValueError(f"{context}: LAPACK reported an illegal value in argument {-info}")
    return channel.V_tilde.conj().T @ X


def _regularizer(channel: ChannelSet, params: SystemParams) -> float:
    """sigma2 L / P, with L checked against the channel's stream count."""
    if params.L != channel.dims.L:
        raise DimensionError(
            f"params.L={params.L} but the channel carries {channel.dims.L} streams")
    return params.regularizer


def mrt(channel: ChannelSet, cfg: BaselineConfig) -> PrecodingMatrix:
    """Maximum-ratio transmission: beams along the conjugated singular vectors."""
    return normalize_power(channel.V_tilde.conj().T)


def zf(channel: ChannelSet, cfg: BaselineConfig) -> PrecodingMatrix:
    """Zero-forcing: decorrelates streams through the inverse Gram matrix."""
    W = _regularized_inverse_precoder(channel, None, "zero-forcing")
    return normalize_power(W)


def rzf(channel: ChannelSet, cfg: BaselineConfig) -> PrecodingMatrix:
    """Regularized zero-forcing with the scalar regularizer sigma2 * L / P."""
    reg = np.full(channel.dims.L, _regularizer(channel, cfg.params))
    W = _regularized_inverse_precoder(channel, reg, "regularized zero-forcing")
    return normalize_power(W)


def arzf(channel: ChannelSet, cfg: BaselineConfig) -> PrecodingMatrix:
    """Adaptive RZF: per-stream regularization (sigma2 L / P) / s_l^2.

    The diagonal inverse-square singular values are the truncated L of them,
    matching the (L, L) Gram matrix.
    """
    s = channel.S_tilde
    if np.any(s <= 0):
        raise DegenerateChannelError("adaptive RZF needs positive leading singular values")
    reg = _regularizer(channel, cfg.params) / s**2
    W = _regularized_inverse_precoder(channel, reg, "adaptive regularized zero-forcing")
    return normalize_power(W)


_BUILDERS = {"MRT": mrt, "ZF": zf, "RZF": rzf, "ARZF": arzf}


def compute_baseline(channel: ChannelSet, cfg: BaselineConfig) -> PrecodingMatrix:
    return _BUILDERS[cfg.kind](channel, cfg)
