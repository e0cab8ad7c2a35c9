"""Quality measures: the precoder type, the MMSE-IRC spectral efficiency
report, single-user SINR, and the conjugate-detection surrogate se_conjugate,
which is also a forward/backward pair (cd_forward, cd_backward) for the
optimizer.

symbol_sinr is the per-symbol SINR at a given detector row, one symbol at a
time. The library does not call it: it stays exported as the independent
oracle that perfbench/check.py scores the batched irc.py path against. The
tests' other scalar references (the conjugate detector, its per-symbol SINR
and the effective SINR) live in tests/reference.py.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateChannelError,
    DimensionError,
    InfiniteSusinrError,
    UndefinedSinrError,
)
from .irc import c_einsum, irc_forward
from .model import ChannelSet, SystemParams, check_noise, susinr_gain

_LN2 = math.log(2.0)


def as_array(W) -> np.ndarray:
    """Accept a PrecodingMatrix or a bare complex array."""
    if isinstance(W, PrecodingMatrix):
        return W.W
    return np.asarray(W, dtype=np.complex128)


def as_precoder(W, shape) -> np.ndarray:
    """as_array(W), rejected with DimensionError unless its shape is (T, L) = shape."""
    Wm = as_array(W)
    if Wm.shape != tuple(shape):
        raise DimensionError(f"precoder must have shape (T, L) = {tuple(shape)}, got {Wm.shape}")
    return Wm


def row_power(W: np.ndarray) -> np.ndarray:
    """Per-row power of a complex matrix, the squared norm of each row,
    summed over its real and imaginary parts interleaved. It is the one
    row-power routine: the projection's margin is proven against it. Every
    evaluation runs it, so it calls c_einsum, np.einsum's compiled routine,
    without np.einsum's Python dispatch."""
    Wf = np.ascontiguousarray(W).view(np.float64)
    return c_einsum("ml,ml->m", Wf, Wf)


def _inside(L: int) -> float:
    """The fraction of the cap 1/T that a rescaled row's power is put at: by
    optimizer._projection for a row outside the ball, by baselines.normalize_power
    for the largest row of a closed-form precoder.

    With u = 2**-53 and g_n = n u / (1 - n u), the computed power of a row of
    n = 2L reals is within a relative g_n of the exact one, whatever the
    summation order, with or without fused multiply-adds, over the float64
    view or the complex einsum of W and conj(W) (at most L + 1 roundings per
    term). A rescaled row's computed power is then at most
    cap * inside * (1 + u)**6 (1 + g_n) / (1 - g_n): g_n for the power before
    and after the rescale, and u each for cap * inside, the divide, the
    square root (squared) and the scaling of an entry (squared). That exceeds
    cap * inside by about (4L + 6) u; the margin is twice it, so one rescale
    lands at or below the cap. The bound needs only the row's exact power
    before the rescale to be at most the computed power the factor was taken
    from over (1 - g_n). That holds for every row when normalize_power scales
    them all by the largest row's factor, so they all land at or below the
    cap. It holds while nothing overflows and the row powers stay within
    1e+-150, where an underflowing entry costs far less than the slack;
    normalize_power first brings a smaller largest power into range.
    """
    return 1.0 - (8 * L + 12) * 2.0**-53


@dataclass(frozen=True)
class PrecodingMatrix:
    """Transmit precoder of shape (T, L): rows map to antennas, columns to streams.

    W lives on the unit per-antenna budget: the station transmits sqrt(P) W,
    and P reaches every SINR only as sigma2 / P. Feasibility (row power <=
    1/T) is checked by `feasible`, never assumed. Its tolerance is relative:
    a row passes when its power is at most (1/T)(1 + tol).
    """

    W: np.ndarray

    def __post_init__(self):
        W = np.array(self.W, dtype=np.complex128, order="C")
        if W.ndim != 2:
            raise DimensionError(f"precoder must be a matrix, got ndim={W.ndim}")
        if not np.all(np.isfinite(W)):
            raise ValueError("precoder has non-finite entries")
        W.setflags(write=False)
        object.__setattr__(self, "W", W)

    @classmethod
    def _adopt(cls, W: np.ndarray) -> "PrecodingMatrix":
        """Wrap a finite, C-ordered complex matrix that no one else holds,
        without the constructor's copy and scan; W becomes read-only."""
        W.setflags(write=False)
        out = object.__new__(cls)
        object.__setattr__(out, "W", W)
        return out

    @property
    def n_antennas(self) -> int:
        return self.W.shape[0]

    def row_power(self) -> np.ndarray:
        """Per-antenna power, the squared norm of each row."""
        return row_power(self.W)

    def feasible_rows(self, *, tol: float = 1e-12) -> np.ndarray:
        return self.row_power() <= 1.0 / self.n_antennas * (1.0 + tol)

    def feasible(self, *, tol: float = 1e-12) -> bool:
        return bool(np.all(self.feasible_rows(tol=tol)))


@dataclass(frozen=True)
class SinrReport:
    """Per-symbol SINRs, per-user effective SINRs and the total spectral efficiency.

    Users whose effective SINR collapsed to zero (some per-symbol SINR was zero)
    contribute nothing to se_bits and are listed in zero_sinr_users.
    """

    per_symbol: np.ndarray         # (L,)
    per_user_effective: np.ndarray  # (K,)
    se_bits: float
    zero_sinr_users: tuple[int, ...] = ()


def symbol_sinr(W, H_k: np.ndarray, g_l: np.ndarray, sigma2: float, P: float, l: int) -> float:
    """SINR of the symbol in global column l at the detector row g_l.

    |g H w_l|^2 / (sum_{i != l} |g H w_i|^2 + ||g||^2 sigma2 / P).
    """
    Wm = as_array(W)
    g = np.asarray(g_l, dtype=np.complex128).ravel()
    a = g @ np.asarray(H_k, dtype=np.complex128) @ Wm
    power = np.abs(a) ** 2
    signal = power[l]
    noise = float(np.vdot(g, g).real) * sigma2 / P
    interference = float(np.sum(np.delete(power, l)))
    den = interference + noise
    if den == 0.0:
        raise UndefinedSinrError(
            f"symbol {l}: zero denominator (no interference and no effective noise)"
        )
    return float(signal / den)


def spectral_efficiency_irc(W, channel: ChannelSet, params: SystemParams) -> SinrReport:
    """Spectral efficiency with the MMSE-IRC detector recomputed for this precoder.

    It is the quantity maximized by the IRC objective. The benchmark harness
    scores a cell's precoders together as one stack through irc.irc_forward,
    which gives every precoder's se_bits bit for bit.
    """
    se, cache = irc_forward(as_precoder(W, (channel.dims.T, channel.dims.L)), channel, params)
    per_symbol = np.empty(channel.dims.L)
    per_user = np.empty(channel.dims.K)
    for p in cache.passes:
        per_symbol[p.group.cols] = p.sinr
        per_user[p.group.users] = p.eff
    return SinrReport(
        per_symbol=per_symbol,
        per_user_effective=per_user,
        se_bits=float(se),
        zero_sinr_users=tuple(int(k) for k in np.flatnonzero(per_user == 0.0)),
    )


def susinr(channel: ChannelSet, noise_to_signal: float) -> float:
    """Single-user SINR of the channel in dB, a per-antenna-free quality scalar.

    The double geometric mean over users of the leading squared singular
    values, with the per-user 1/L_k factor kept inside the outer mean exactly
    as susinr_gain computes it, over noise_to_signal = sigma2 / P.
    """
    check_noise(noise_to_signal, "noise_to_signal")
    if noise_to_signal == 0:
        raise InfiniteSusinrError("single-user SINR is infinite at zero noise power")
    gain = susinr_gain(channel.dims, channel.S_tilde)
    return 10.0 * math.log10(gain / noise_to_signal)


def se_conjugate(W, v_rows: np.ndarray, s_values: np.ndarray, noise_to_signal: float) -> float:
    """Approximated spectral efficiency assuming conjugate detection.

    Evaluated as sum_l log2(sum_i |v_l w_i|^2 + n_l) - sum_l log2(sum_{i!=l}
    |v_l w_i|^2 + n_l) with n_l = noise_to_signal / s_l^2. The two-sum form keeps the
    value and its gradient numerically consistent, and makes W = 0 give exactly
    zero. Aggregation is per symbol, unlike spectral_efficiency_irc's per-user
    geometric mean; the two coincide for conjugate detection when every L_k
    equals one.
    """
    return cd_forward(as_precoder(W, np.shape(v_rows)[::-1]), v_rows,
                      cd_noise(s_values, noise_to_signal))[0]


def cd_noise(s_values: np.ndarray, noise_to_signal: float) -> np.ndarray:
    """Per-symbol effective noise n_l = noise_to_signal / s_l^2 of the
    conjugate detector, fixed for a channel and noise level. A NaN, infinite
    or negative ratio raises ValueError."""
    check_noise(noise_to_signal, "noise_to_signal")
    s = np.asarray(s_values, dtype=float)
    if np.any(s <= 0):
        raise DegenerateChannelError("singular values must be positive")
    return noise_to_signal / s**2


def cd_forward(W, v_rows: np.ndarray, noise: np.ndarray):
    """se_conjugate's value, given cd_noise's per-symbol noise, together with
    what cd_backward needs: the rows V~, A = V~ W and the per-symbol sums
    totals (all i) and rest (i != l), noise included."""
    Wm = as_array(W)
    Vt = np.asarray(v_rows, dtype=np.complex128)
    A = Vt @ Wm    # (L, L), entry (l, i) = v_l w_i
    power = np.abs(A) ** 2
    off = power.copy()
    off.flat[::len(off) + 1] = 0.0  # the diagonal
    totals = np.add.reduce(power, axis=1) + noise
    rest = np.add.reduce(off, axis=1) + noise
    value = float(np.add.reduce(np.log2(totals)) - np.add.reduce(np.log2(rest)))
    return value, (Vt, A, totals, rest)


def cd_backward(cache) -> np.ndarray:
    """Complex ascent gradient of se_conjugate at the W of a cd_forward call."""
    Vt, A, totals, rest = cache
    A_off = A.copy()
    A_off.flat[::len(A_off) + 1] = 0.0
    M = A / totals[:, None] - A_off / rest[:, None]
    return (2.0 / _LN2) * (Vt.conj().T @ M)
