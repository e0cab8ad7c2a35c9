"""Benchmark harness: scenario sweeps over seeds and channel-quality points,
uniform SE scoring under MMSE-IRC detection, and one writer for the sweep
report and the per-iteration trace of a quasi-Newton run.
"""

from __future__ import annotations

import json
import math
import numbers
import time
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .baselines import BaselineConfig, compute_baseline
from .channels import check_model, generate_channels
from .errors import ConfigError, DimensionError, MimoError
from .irc import irc_forward
from .model import ChannelSet, SystemDims, SystemParams, is_count, noise_from_susinr
from .optimizer import ObjectiveSpec, OptimizationTrace, OptimizerConfig, lbfgs_maximize
from .quality import PrecodingMatrix

BASELINE_ALGOS = ("MRT", "ZF", "RZF", "ARZF")
QN_ALGOS = ("QN-CD-RZF", "QN-CD-ARZF", "QN-IRC-RZF", "QN-IRC-ARZF")
ALGORITHMS = BASELINE_ALGOS + QN_ALGOS

CSV_COLUMNS = ("seed", "susinr_db", "algorithm", "se_irc_bits", "wall_ms", "iterations")
TRACE_COLUMNS = ("iteration", "objective", "grad_norm", "step", "se_irc_bits")
_START_PICKED = "the algorithm name (e.g. QN-IRC-ARZF) picks the start"


def _default_dims() -> SystemDims:
    return SystemDims.uniform(K=8, T=64, R=4, L=2)


def _number(name: str, x) -> float:
    """x as a float, if it is a real number; a boolean, which a float field
    would read as 0 or 1, is not."""
    if isinstance(x, (bool, np.bool_)) or not isinstance(x, numbers.Real):
        raise ConfigError(f"{name} must be a number, got {x!r}")
    try:
        return float(x)
    except OverflowError:
        raise ConfigError(f"{name} must be finite, got an integer beyond float range") from None


def _sequence(name: str, x) -> tuple:
    """x as a tuple, if it is a sequence other than a string."""
    try:
        if not isinstance(x, (str, bytes)):
            return tuple(x)
    except TypeError:
        pass
    raise ConfigError(f"{name} must be a sequence, got {x!r}")


@dataclass(frozen=True)
class ScenarioConfig:
    """Full description of one benchmark sweep.

    Defaults: 64 transmit antennas serving 8 users with 4 receive antennas and
    2 streams each, 40 channel seeds, channel-quality grid from -4 to 40 dB in
    4 dB steps, unit station power, all algorithms. workers is accepted only
    as 1: cells run serially.
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
        if not isinstance(self.dims, SystemDims):
            raise ConfigError(f"dims must be a SystemDims, got {self.dims!r}")
        if not isinstance(self.optimizer, OptimizerConfig):
            raise ConfigError(f"optimizer must be an OptimizerConfig, got {self.optimizer!r}")
        seeds = _sequence("seeds", self.seeds)
        if not all(is_count(s) and s >= 0 for s in seeds):
            raise ConfigError(f"seeds must be nonnegative integers, got {seeds!r}")
        object.__setattr__(self, "seeds", tuple(map(int, seeds)))
        object.__setattr__(self, "susinr_grid_db", tuple(
            _number("susinr_grid_db", x) for x in _sequence("susinr_grid_db", self.susinr_grid_db)))
        object.__setattr__(self, "P", _number("P", self.P))
        object.__setattr__(self, "rho", _number("rho", self.rho))
        object.__setattr__(self, "algorithms", _sequence("algorithms", self.algorithms))
        if not self.seeds:
            raise ConfigError("seeds must be non-empty")
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
        check_model(self.channel_model, self.rho)
        if not (is_count(self.workers) and self.workers == 1):
            raise ConfigError(f"workers must be 1, cells run serially; got {self.workers!r}")
        opt = self.optimizer
        if opt.start is not None or opt.start_matrix is not None:
            raise ConfigError("optimizer.start and optimizer.start_matrix cannot be set in a "
                              f"scenario: {_START_PICKED}")

    @classmethod
    def from_dict(cls, raw: dict) -> "ScenarioConfig":
        """Build from a plain JSON-style dictionary, validating as it goes.

        An optimizer start or start_matrix is rejected whenever its key is
        present, even at its default value.
        """
        if not isinstance(raw, dict):
            raise ConfigError("config must be a JSON object")
        unknown = set(raw) - {f.name for f in fields(cls)}
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        kwargs = dict(raw)
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
                kwargs["seeds"] = range(s) if is_count(s) else s
            if "optimizer" in raw:
                kwargs["optimizer"] = OptimizerConfig(**raw["optimizer"])
                for key in ("start", "start_matrix"):
                    if key in raw["optimizer"]:
                        raise ConfigError(f"optimizer.{key} cannot be set in a scenario: "
                                          f"{_START_PICKED}")
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
        groups: dict[tuple[float, str], list[float]] = {}
        for r in self.rows:
            values = groups.setdefault((r.susinr_db, r.algorithm), [])
            if r.error is None:
                values.append(r.se_irc_bits)
        return [{"susinr_db": susinr_db, "algorithm": algorithm,
                 "mean_se_irc_bits": float(np.mean(values)) if values else None,
                 "cells": len(values)}
                for (susinr_db, algorithm), values in groups.items()]


def run_algorithm(name: str, channel: ChannelSet, params: SystemParams,
                  opt_cfg: OptimizerConfig, score_fn=None):
    """Build one precoder; returns it with its OptimizationTrace (None for
    baselines). score_fn, if given, scores each accepted QN iterate."""
    if name in BASELINE_ALGOS:
        return compute_baseline(channel, BaselineConfig(kind=name, params=params)), None
    _, kind, start = name.lower().split("-")  # "QN-IRC-ARZF" -> "irc", "arzf"
    spec = ObjectiveSpec(kind=kind, channel=channel, params=params)
    return lbfgs_maximize(spec, replace(opt_cfg, start=start), score_fn=score_fn)


def _calibrated(cfg: ScenarioConfig, channel: ChannelSet, susinr_db: float) -> SystemParams:
    """The system parameters with the noise calibrated so that channel
    reaches susinr_db."""
    sigma2 = noise_from_susinr(channel, cfg.P, susinr_db)
    return SystemParams(P=cfg.P, sigma2=sigma2, L=cfg.dims.L)


def cell(cfg: ScenarioConfig, seed: int, susinr_db: float) -> tuple[ChannelSet, SystemParams]:
    """The channel of one (seed, susinr) cell, and the system parameters with
    the noise calibrated so that it reaches susinr_db."""
    channel = generate_channels(cfg.dims, seed, cfg.channel_model, cfg.rho)
    return channel, _calibrated(cfg, channel, susinr_db)


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
        return [float(se) for se in irc_forward(np.array([W.W for W in precoders]),
                                                channel, params)[0]]
    except (MimoError, np.linalg.LinAlgError) as exc:
        if len(precoders) == 1:
            return [_failure(exc)]
    return [out for W in precoders for out in _score([W], channel, params)]


def _run_cell(cfg: ScenarioConfig, seed: int, susinr_db: float,
              channel: ChannelSet) -> list[RunRecord]:
    """Build each algorithm's precoder for seed's channel at susinr_db in turn
    (wall_ms times the build alone), then score all that built together. A
    noise calibration that fails fails every row of the cell."""
    try:
        params = _calibrated(cfg, channel, susinr_db)
    except MimoError as exc:
        return [RunRecord(seed, susinr_db, algo, None, None, None, _failure(exc))
                for algo in cfg.algorithms]
    rows, built = [], {}  # rows: (wall_ms, iterations, error); built: row index -> precoder
    for algo in cfg.algorithms:
        t0 = time.perf_counter()
        try:
            W, trace = run_algorithm(algo, channel, params, cfg.optimizer)
        except (MimoError, np.linalg.LinAlgError) as exc:
            # Numerical trouble fails only this row; a programming error propagates.
            rows.append(((time.perf_counter() - t0) * 1e3, None, _failure(exc)))
            continue
        built[len(rows)] = W
        rows.append(((time.perf_counter() - t0) * 1e3,
                     0 if trace is None else trace.iterations, None))
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

    Each seed's channel is drawn once; noise power is calibrated per (seed,
    susinr) so the channel hits the requested quality level, a cell's
    precoders are scored together by the one MMSE-IRC spectral-efficiency
    pass, and rows come out in configuration order.
    """
    rows: list[RunRecord] = []
    for seed in cfg.seeds:
        channel = generate_channels(cfg.dims, seed, cfg.channel_model, cfg.rho)
        for susinr in cfg.susinr_grid_db:
            rows += _run_cell(cfg, seed, susinr, channel)
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


def write_table(path, format: str, columns, rows, document) -> None:
    """Write rows, dicts over at least columns, as CSV or JSON (UTF-8, LF
    endings, 6 significant digits).

    CSV writes a header line of the columns, then each row's columns through
    _fmt. JSON writes document(rows), with each row's floats rounded by
    _round6: document puts the rows under the command's own header.
    """
    if format == "csv":
        lines = [",".join(columns)]
        lines += [",".join(_fmt(row[c]) for c in columns) for row in rows]
        text = "\n".join(lines) + "\n"
    elif format == "json":
        rounded = [{k: _round6(v) if isinstance(v, float) else v for k, v in row.items()}
                   for row in rows]
        text = json.dumps(document(rounded), indent=2) + "\n"
    else:
        raise ConfigError(f"unknown report format {format!r}, expected 'csv' or 'json'")
    Path(path).write_text(text, encoding="utf-8", newline="\n")


def export_report(report: RunReport, format: str, path) -> None:
    """Write the report as CSV or JSON through write_table.

    Failed cells keep their row with empty value fields in CSV; JSON mirrors
    the rows, failure reasons included, and adds the aggregate means.
    """
    aggregates = [{**a, "mean_se_irc_bits": _round6(a["mean_se_irc_bits"])}
                  for a in report.aggregates()]
    write_table(path, format, CSV_COLUMNS, [asdict(r) for r in report.rows],
                lambda rows: {"rows": rows, "aggregates": aggregates})


def export_trace(cfg: ScenarioConfig, algorithm: str, format: str, path) -> OptimizationTrace:
    """Run one quasi-Newton algorithm on the first seed and SUSINR point of
    cfg, the cell a sweep would draw, and write its per-iteration trace
    through write_table; returns the trace.

    The se_irc_bits column is the SE-IRC of each record's precoder, the
    trace's scores from one MMSE-IRC pass per record; for QN-IRC it equals
    the record's objective bit for bit.
    """
    seed, susinr_db = cfg.seeds[0], cfg.susinr_grid_db[0]
    channel, params = cell(cfg, seed, susinr_db)
    _, trace = run_algorithm(algorithm, channel, params, cfg.optimizer,
                             lambda W: irc_forward(W, channel, params)[0])
    rows = [{**asdict(r), "se_irc_bits": s} for r, s in zip(trace.records, trace.scores)]
    write_table(path, format, TRACE_COLUMNS, rows, lambda rows: {
        "algorithm": algorithm, "seed": seed, "susinr_db": susinr_db,
        "termination": trace.termination, "records": rows})
    return trace
