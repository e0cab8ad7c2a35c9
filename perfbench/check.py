"""Correctness check on a sample of timed cells, run outside the timed region.

Each sampled row's precoder is rebuilt through the public `compute_baseline`
and `lbfgs_maximize` and must
- meet the per-antenna power budget to 1e-12 on every row;
- score, by an independent SE-IRC built from `symbol_sinr` on detector rows
  from `mmse_irc(..., check_covariance_form=True)`, within 1e-9 relative of
  the timed row's `se_irc_bits`;
- reproduce the timed row's SE exactly through `spectral_efficiency_irc`.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from mimo_precoding import (
    BaselineConfig,
    ObjectiveSpec,
    SystemParams,
    compute_baseline,
    generate_channels,
    lbfgs_maximize,
    mmse_irc,
    noise_from_susinr,
    spectral_efficiency_irc,
    symbol_sinr,
)

BUDGET_TOL = 1e-12
SE_REL_TOL = 1e-9


def rebuild(algorithm: str, channel, params, optimizer_cfg):
    """The precoder the harness builds for one algorithm, via the public API."""
    if not algorithm.startswith("QN-"):
        return compute_baseline(channel, BaselineConfig(kind=algorithm, params=params)).W
    _, kind, start = algorithm.split("-")
    spec = ObjectiveSpec(kind=kind.lower(), channel=channel, params=params)
    cfg = replace(optimizer_cfg, start=start.lower(), start_matrix=None)
    W, _ = lbfgs_maximize(spec, cfg)
    return W.W


def reference_se(W: np.ndarray, channel, params) -> float:
    """SE-IRC from per-symbol SINRs at covariance-checked MMSE-IRC rows."""
    dims = channel.dims
    lam = params.sigma2 / params.P
    se = 0.0
    for k, user in enumerate(channel.users):
        G = mmse_irc(user.H, W, k, dims, lam, check_covariance_form=True)
        cols = range(dims.layer_slice(k).start, dims.layer_slice(k).stop)
        sinr = [symbol_sinr(W, user.H, G[i], params.sigma2, params.P, l)
                for i, l in enumerate(cols)]
        geo = 0.0 if min(sinr) == 0.0 else math.exp(sum(map(math.log, sinr)) / len(sinr))
        se += dims.L_k[k] * math.log1p(geo) / math.log(2.0)
    return se


def check_row(W: np.ndarray, channel, params, timed_se: float) -> list[str]:
    """Problems with one rebuilt precoder against its timed row; empty if none."""
    problems = []
    row_power = np.einsum("ml,ml->m", W, W.conj()).real
    excess = float(np.max(row_power)) - params.P / W.shape[0]
    if excess > BUDGET_TOL:
        problems.append(f"row power exceeds the per-antenna budget by {excess:.3g}")
    ref = reference_se(W, channel, params)
    if not abs(ref - timed_se) <= SE_REL_TOL * abs(timed_se):
        problems.append(f"independent SE-IRC {ref!r} != timed {timed_se!r}")
    again = spectral_efficiency_irc(W, channel, params).se_bits
    if again != timed_se:
        problems.append(f"rebuilt SE-IRC {again!r} != timed {timed_se!r}")
    return problems


def check_cell(workload, channel_seed: int, susinr_db: float, rows) -> dict[str, list[str]]:
    """Problems per algorithm for one timed cell's rows."""
    cfg = workload.scenario(channel_seed, susinr_db)
    channel = generate_channels(cfg.dims, channel_seed, cfg.channel_model, cfg.rho)
    sigma2 = noise_from_susinr(channel, cfg.P, susinr_db)
    params = SystemParams(P=cfg.P, sigma2=sigma2, L=cfg.dims.L)
    out = {}
    for row in rows:
        if row.error is not None:
            out[row.algorithm] = [f"timed row failed: {row.error}"]
            continue
        W = rebuild(row.algorithm, channel, params, cfg.optimizer)
        out[row.algorithm] = check_row(W, channel, params, row.se_irc_bits)
    return out
