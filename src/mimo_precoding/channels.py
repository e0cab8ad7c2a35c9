"""Synthetic channel generation for the benchmark harness.

Streams are split per (seed, user): user k draws from a PCG64 generator keyed
by SeedSequence([seed, k]), so adding users to a scenario never perturbs the
matrices of earlier users. Within a user, the real parts of H_k are drawn
first, then the imaginary parts. The matrices are then decomposed and grouped
by build_channel_set, the same path channel files take.
"""

from __future__ import annotations

from itertools import accumulate

import numpy as np

from .errors import ConfigError
from .model import ChannelSet, SystemDims, build_channel_set, is_count

MODELS = ("iid-gaussian", "exp-correlated")


def check_model(model: str, rho: float) -> None:
    """Reject an unknown channel model, a rho outside [0, 1), and a rho > 0
    with a model that does not read it: only exp-correlated does."""
    if model not in MODELS:
        raise ConfigError(f"unknown channel model {model!r}, expected one of {MODELS}")
    if not 0.0 <= rho < 1.0:
        raise ConfigError(f"rho must be in [0, 1), got {rho}")
    if rho > 0.0 and model != "exp-correlated":
        raise ConfigError(f"rho applies only to the exp-correlated channel model, "
                          f"got rho={rho} with {model!r}")


def _user_rng(seed: int, user: int) -> np.random.Generator:
    """The generator of SeedSequence([seed, user]). SeedSequence reads each
    integer as its little-endian 32-bit words (at least one), seed's first;
    handed those words as a uint32 array it skips that per-call coercion and
    keys the same stream."""
    words = []
    for n in (int(seed), user):
        words.append(n & 0xFFFFFFFF)
        while n := n >> 32:
            words.append(n & 0xFFFFFFFF)
    return np.random.default_rng(np.random.SeedSequence(np.array(words, dtype=np.uint32)))


def _exp_correlation_sqrt(n: int, rho: float) -> np.ndarray:
    """Symmetric square root of the exponential correlation matrix rho^|i-j|."""
    idx = np.arange(n)
    C = rho ** np.abs(idx[:, None] - idx[None, :])
    w, Q = np.linalg.eigh(C)
    return (Q * np.sqrt(np.clip(w, 0.0, None))) @ Q.T


def generate_channels(dims: SystemDims, seed: int, model: str = "iid-gaussian",
                      rho: float = 0.0) -> ChannelSet:
    """Draw one channel realization and return its decomposed, stacked form.

    iid-gaussian: every entry of every H_k is circularly-symmetric complex
    Gaussian with unit variance. exp-correlated: the iid draw is colored on
    both sides, H_k = C_r^{1/2} H_iid C_t^{1/2}, with exponential correlation
    rho^|i-j| across receive and transmit antennas; rho = 0 reproduces the iid
    draw bit for bit. check_model states which (model, rho) pairs are accepted.
    """
    check_model(model, rho)
    if not (is_count(seed) and seed >= 0):
        raise ConfigError(f"seed must be a nonnegative integer, got {seed!r}")

    colored = rho > 0.0
    if colored:
        sqrt_ct = _exp_correlation_sqrt(dims.T, rho)
        sqrt_cr = {R_k: _exp_correlation_sqrt(R_k, rho) for R_k in set(dims.R_k)}

    # Each user keeps their own stream; one complex build covers every draw.
    draws = np.concatenate([_user_rng(seed, k).standard_normal((2, R_k, dims.T))
                            for k, R_k in enumerate(dims.R_k)], axis=1)
    H = (draws[0] + 1j * draws[1]) / np.sqrt(2.0)
    mats = [H[end - R_k:end] for R_k, end in zip(dims.R_k, accumulate(dims.R_k))]
    if colored:
        mats = [sqrt_cr[len(H_k)] @ H_k @ sqrt_ct for H_k in mats]
    return build_channel_set(mats, dims.L_k)
