"""Benchmark harness: scenario sweeps over seeds and channel-quality points,
uniform SE scoring under MMSE-IRC detection and report export.
"""

from __future__ import annotations

import json
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .baselines import BaselineConfig, compute_baseline
from .channels import MODELS, generate_channels
from .errors import ConfigError, DimensionError, MimoError
from .irc import irc_forward
from .model import ChannelSet, SystemDims, SystemParams, is_count, noise_from_susinr
from .optimizer import ObjectiveSpec, OptimizerConfig, lbfgs_maximize
from .quality import PrecodingMatrix

BASELINE_ALGOS = ("MRT", "ZF", "RZF", "ARZF")
QN_ALGOS = ("QN-CD-RZF", "QN-CD-ARZF", "QN-IRC-RZF", "QN-IRC-ARZF")
ALGORITHMS = BASELINE_ALGOS + QN_ALGOS

CSV_COLUMNS = ("seed", "susinr_db", "algorithm", "se_irc_bits", "wall_ms", "iterations")


def _default_dims() -> SystemDims:
    return SystemDims.uniform(K=8, T=64, R=4, L=2)


def _number(name: str, x):
    """x itself, unless it is a boolean, which a float field would read as 0 or 1."""
    if isinstance(x, (bool, np.bool_)):
        raise ConfigError(f"{name} must be a number, got {x!r}")
    return x


@dataclass(frozen=True)
class ScenarioConfig:
    """Full description of one benchmark sweep.

    Defaults: 64 transmit antennas serving 8 users with 4 receive antennas and
    2 streams each, 40 channel seeds, channel-quality grid from -4 to 40 dB in
    4 dB steps, unit station power, all algorithms.
    """

    dims: SystemDims = field(default_factory=_default_dims)
    seeds: tuple[int, ...] = tuple(range(40))
    susinr_grid_db: tuple[float, ...] = tuple(float(x) for x in range(-4, 41, 4))
    P: float = 1.0
    algorithms: tuple[str, ...] = ALGORITHMS
    channel_model: str = "iid-gaussian"
    rho: float = 0.0
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)
    workers: int = 1

    def __post_init__(self):
        seeds = tuple(self.seeds)
        if not all(map(is_count, seeds)):
            raise ConfigError(f"seeds must be integers, got {seeds!r}")
        object.__setattr__(self, "seeds", tuple(map(int, seeds)))
        object.__setattr__(self, "susinr_grid_db",
                           tuple(float(_number("susinr_grid_db", x)) for x in self.susinr_grid_db))
        _number("P", self.P)
        _number("rho", self.rho)
        object.__setattr__(self, "algorithms", tuple(self.algorithms))
        if not self.seeds:
            raise ConfigError("seeds must be non-empty")
        if any(s < 0 for s in self.seeds):
            raise ConfigError("seeds must be nonnegative")
        if not self.susinr_grid_db:
            raise ConfigError("susinr_grid_db must be non-empty")
        if not all(map(math.isfinite, self.susinr_grid_db)):
            raise ConfigError(f"susinr_grid_db entries must be finite, got {self.susinr_grid_db}")
        if not (math.isfinite(self.P) and self.P > 0):
            raise ConfigError(f"P must be positive and finite, got {self.P}")
        if not self.algorithms:
            raise ConfigError("algorithms must be non-empty")
        for a in self.algorithms:
            if a not in ALGORITHMS:
                raise ConfigError(f"unknown algorithm {a!r}, expected one of {ALGORITHMS}")
        if self.channel_model not in MODELS:
            raise ConfigError(
                f"unknown channel model {self.channel_model!r}, expected one of {MODELS}"
            )
        if not 0.0 <= self.rho < 1.0:
            raise ConfigError(f"rho must be in [0, 1), got {self.rho}")
        if not (is_count(self.workers) and self.workers >= 1):
            raise ConfigError(f"workers must be an integer of at least 1, got {self.workers!r}")
        opt = self.optimizer
        if opt.start != OptimizerConfig.start or opt.start_matrix is not None:
            raise ConfigError("optimizer.start and optimizer.start_matrix cannot be set in a "
                              "scenario: the algorithm name (e.g. QN-IRC-ARZF) picks the start")

    @classmethod
    def from_dict(cls, raw: dict) -> "ScenarioConfig":
        """Build from a plain JSON-style dictionary, validating as it goes."""
        if not isinstance(raw, dict):
            raise ConfigError("config must be a JSON object")
        known = {
            "dims", "seeds", "susinr_grid_db", "P", "algorithms",
            "channel_model", "rho", "optimizer", "workers",
        }
        unknown = set(raw) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        kwargs = {}
        try:
            if "dims" in raw:
                d = raw["dims"]
                K = d["K"]
                R = d.get("R_k", 4)
                L = d.get("L_k", 2)
                n = K if is_count(K) else 1  # SystemDims then names the bad K
                R_k = tuple(R) if isinstance(R, (list, tuple)) else (R,) * n
                L_k = tuple(L) if isinstance(L, (list, tuple)) else (L,) * n
                kwargs["dims"] = SystemDims(K=K, T=d["T"], R_k=R_k, L_k=L_k)
            if "seeds" in raw:
                s = raw["seeds"]
                kwargs["seeds"] = tuple(range(s)) if is_count(s) else tuple(s)
            if "susinr_grid_db" in raw:
                kwargs["susinr_grid_db"] = tuple(raw["susinr_grid_db"])
            if "P" in raw:
                kwargs["P"] = float(_number("P", raw["P"]))
            if "algorithms" in raw:
                kwargs["algorithms"] = tuple(raw["algorithms"])
            if "channel_model" in raw:
                kwargs["channel_model"] = raw["channel_model"]
            if "rho" in raw:
                kwargs["rho"] = float(_number("rho", raw["rho"]))
            if "workers" in raw:
                kwargs["workers"] = raw["workers"]
            if "optimizer" in raw:
                kwargs["optimizer"] = OptimizerConfig(**raw["optimizer"])
        except ConfigError:
            raise
        except (KeyError, TypeError, ValueError, DimensionError) as exc:
            raise ConfigError(f"invalid config: {exc}") from exc
        return cls(**kwargs)


@dataclass(frozen=True)
class RunRecord:
    seed: int
    susinr_db: float
    algorithm: str
    se_irc_bits: float | None
    wall_ms: float | None
    iterations: int | None
    error: str | None = None


@dataclass(frozen=True)
class RunReport:
    rows: tuple[RunRecord, ...]

    @property
    def failures(self) -> tuple[RunRecord, ...]:
        return tuple(r for r in self.rows if r.error is not None)

    def aggregates(self) -> list[dict]:
        """Mean SE per (susinr, algorithm) over successful cells, in row order."""
        sums: dict[tuple[float, str], list[float]] = {}
        order: list[tuple[float, str]] = []
        for r in self.rows:
            key = (r.susinr_db, r.algorithm)
            if key not in sums:
                sums[key] = []
                order.append(key)
            if r.error is None:
                sums[key].append(r.se_irc_bits)
        out = []
        for key in order:
            values = sums[key]
            out.append({
                "susinr_db": key[0],
                "algorithm": key[1],
                "mean_se_irc_bits": float(np.mean(values)) if values else None,
                "cells": len(values),
            })
        return out


def parse_qn_name(name: str) -> tuple[str, str]:
    """"QN-IRC-ARZF" -> ("irc", "arzf")."""
    _, kind, start = name.split("-")
    return kind.lower(), start.lower()


def run_algorithm(name: str, channel: ChannelSet, params: SystemParams,
                  opt_cfg: OptimizerConfig) -> tuple[PrecodingMatrix, int]:
    """Build one precoder; returns it with the iteration count (0 for baselines)."""
    if name in BASELINE_ALGOS:
        W = compute_baseline(channel, BaselineConfig(kind=name, params=params))
        return W, 0
    kind, start = parse_qn_name(name)
    spec = ObjectiveSpec(kind=kind, channel=channel, params=params)
    W, trace = lbfgs_maximize(spec, replace(opt_cfg, start=start))
    return W, trace.iterations


def _failure(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def _score(precoders: list[PrecodingMatrix], channel: ChannelSet,
           params: SystemParams) -> list[float | str]:
    """SE-IRC of each precoder, all in one batched pass.

    If the pass fails, each precoder is rescored alone, so only the ones at
    fault fail, each with its own error text in place of its SE.
    """
    if not precoders:
        return []
    try:
        return [float(se) for se in irc_forward(np.stack([W.W for W in precoders]),
                                                channel, params)[0]]
    except (MimoError, np.linalg.LinAlgError) as exc:
        if len(precoders) == 1:
            return [_failure(exc)]
    return [out for W in precoders for out in _score([W], channel, params)]


def _run_cell(cfg: ScenarioConfig, seed: int, susinr_db: float) -> list[RunRecord]:
    """Build each algorithm's precoder in turn (wall_ms times the build alone),
    then score all that built together."""
    channel = generate_channels(cfg.dims, seed, cfg.channel_model, cfg.rho)
    sigma2 = noise_from_susinr(channel, cfg.P, susinr_db)
    params = SystemParams(P=cfg.P, sigma2=sigma2, L=cfg.dims.L)
    rows, built = [], {}  # rows: (wall_ms, iterations, error); built: row index -> precoder
    for algo in cfg.algorithms:
        t0 = time.perf_counter()
        try:
            W, iterations = run_algorithm(algo, channel, params, cfg.optimizer)
        except (MimoError, np.linalg.LinAlgError) as exc:
            # Numerical trouble fails only this row; a programming error propagates.
            rows.append(((time.perf_counter() - t0) * 1e3, None, _failure(exc)))
            continue
        built[len(rows)] = W
        rows.append(((time.perf_counter() - t0) * 1e3, iterations, None))
    scores = dict(zip(built, _score(list(built.values()), channel, params)))
    records = []
    for i, (algo, (wall_ms, iterations, error)) in enumerate(zip(cfg.algorithms, rows)):
        se = scores.get(i)
        if isinstance(se, str):
            se, iterations, error = None, None, se
        records.append(RunRecord(seed, susinr_db, algo, se, wall_ms, iterations, error))
    return records


def run_scenario(cfg: ScenarioConfig) -> RunReport:
    """Execute the full (seed, susinr, algorithm) grid.

    Noise power is calibrated per (seed, susinr) so the channel hits the
    requested quality level, a cell's precoders are scored together by the
    one MMSE-IRC spectral-efficiency pass, and rows always come out in
    configuration order regardless of worker scheduling.
    """
    cells = [(seed, susinr) for seed in cfg.seeds for susinr in cfg.susinr_grid_db]
    if cfg.workers == 1:
        results = [_run_cell(cfg, seed, susinr) for seed, susinr in cells]
    else:
        with ThreadPoolExecutor(max_workers=cfg.workers) as pool:
            results = list(pool.map(lambda c: _run_cell(cfg, *c), cells))
    rows: list[RunRecord] = []
    for cell_rows in results:
        rows.extend(cell_rows)
    return RunReport(rows=tuple(rows))


# ---------------------------------------------------------------------------
# Report export


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, float):
        return f"{x:.6g}"
    return str(x)


def _round6(x):
    return None if x is None else float(f"{x:.6g}")


def export_report(report: RunReport, format: str, path) -> None:
    """Write the report as CSV or JSON (UTF-8, LF endings, 6 significant digits).

    Failed cells keep their row with empty value fields in CSV; JSON mirrors
    the rows and adds the aggregate means and the failure reasons.
    """
    path = Path(path)
    if format == "csv":
        lines = [",".join(CSV_COLUMNS)]
        for r in report.rows:
            lines.append(",".join([
                str(r.seed), _fmt(r.susinr_db), r.algorithm,
                _fmt(r.se_irc_bits), _fmt(r.wall_ms),
                "" if r.iterations is None else str(r.iterations),
            ]))
        path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")
    elif format == "json":
        doc = {
            "rows": [{
                "seed": r.seed,
                "susinr_db": _round6(r.susinr_db),
                "algorithm": r.algorithm,
                "se_irc_bits": _round6(r.se_irc_bits),
                "wall_ms": _round6(r.wall_ms),
                "iterations": r.iterations,
                "error": r.error,
            } for r in report.rows],
            "aggregates": [
                {**a, "mean_se_irc_bits": _round6(a["mean_se_irc_bits"])}
                for a in report.aggregates()
            ],
        }
        path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8", newline="\n")
    else:
        raise ConfigError(f"unknown report format {format!r}, expected 'csv' or 'json'")
