"""The benchmark's workloads and the cells each one visits.

A workload is one closed-loop client: it asks `harness.run_scenario` for one
(channel seed, SUSINR) grid cell at a time, with `workers=1`, and asks for the
next cell only when the previous one has returned. The channel seeds come from
the workload seed given on the command line; the program sees only the
resulting `ScenarioConfig`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property

from stats import beyond

K = 8
T = 64
P = 1.0
GRID_DB = tuple(float(x) for x in range(-4, 41, 4))

# Cell cost climbs steeply with SUSINR (the optimizer hits its iteration cap
# at high SUSINR), so the grid is visited in this interleaved order: a run
# cut anywhere inside a pass over the grid still covers low and high SUSINR
# alike, which keeps throughput comparable from run to run.
GRID_ORDER = (0, 6, 3, 9, 1, 7, 4, 10, 2, 8, 5, 11)

# The optimizer settings at which every workload runs: the iteration cap and
# tolerances are fixed here so that a speed-up cannot come from loosening them.
OPTIMIZER = {"max_iters": 200, "tol_grad": 1e-5, "tol_change": 1e-9, "memory": 10}

# Channel seeds of timed cells are drawn below this; the warm-up cell uses it,
# so set-up never runs a cell that is timed later.
WARMUP_CHANNEL_SEED = 2**32

BASELINES = ("MRT", "ZF", "RZF", "ARZF")
QN = ("QN-CD-RZF", "QN-CD-ARZF", "QN-IRC-RZF", "QN-IRC-ARZF")


def min_cells_for_tail(percentile: float, min_beyond: int = 10) -> int:
    """Fewest samples for which `min_beyond` samples lie above the percentile
    (nearest-rank definition)."""
    n = min_beyond + 1
    while beyond(n, percentile) < min_beyond:
        n += 1
    return n


@dataclass(frozen=True)
class Workload:
    name: str
    algorithms: tuple[str, ...]
    R_k: tuple[int, ...]
    L_k: tuple[int, ...]
    channel_model: str
    rho: float
    # Percentile reported as norm_cell_ms_tail: the highest of p50, p60, p75,
    # p80, p90, p95, p99, p99.5 and p99.9 that kept at least ten samples
    # beyond it in the slowest 45 s runs at the seed commit. A run keeps
    # issuing cells until min_cells_for_tail holds, so a slower program
    # still has them.
    tail_percentile: float
    # Every run completes at least this many cells. se_irc_mean_bits and the
    # correctness sample are taken from them, so both are deterministic.
    fixed_cells: int

    @property
    def min_cells(self) -> int:
        return max(self.fixed_cells, min_cells_for_tail(self.tail_percentile))

    @cached_property
    def dims(self):
        from mimo_precoding import SystemDims
        return SystemDims(K=K, T=T, R_k=self.R_k, L_k=self.L_k)

    def scenario(self, channel_seed: int, susinr_db: float):
        """The single-cell `ScenarioConfig` for one grid point."""
        from mimo_precoding import OptimizerConfig, ScenarioConfig
        return ScenarioConfig(
            dims=self.dims,
            seeds=(channel_seed,),
            susinr_grid_db=(susinr_db,),
            P=P,
            algorithms=self.algorithms,
            channel_model=self.channel_model,
            rho=self.rho,
            optimizer=OptimizerConfig(**OPTIMIZER),
            workers=1,
        )

    def warmup_scenario(self):
        return self.scenario(WARMUP_CHANNEL_SEED, GRID_DB[0])


def cells(seed: int):
    """Endless (channel seed, SUSINR dB) sequence for one workload seed.

    SUSINR cycles through the 12-point grid in GRID_ORDER; every cell draws a
    fresh channel seed. Cost and SE depend on the channel at every SUSINR
    alike, so independent channels per cell average out over far fewer cells
    than one channel per grid would.
    """
    rng = random.Random(seed)
    while True:
        for i in GRID_ORDER:
            yield rng.randrange(WARMUP_CHANNEL_SEED), GRID_DB[i]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("irc-opt", ("QN-IRC-ARZF",), (4,) * K, (2,) * K,
                 "iid-gaussian", 0.0, tail_percentile=80.0, fixed_cells=48),
        Workload("closed-form", BASELINES, (4,) * K, (2,) * K,
                 "iid-gaussian", 0.0, tail_percentile=99.5, fixed_cells=1200),
        Workload("ragged-corr", BASELINES + QN, (1, 2, 2, 4, 4, 4, 8, 8),
                 (1, 1, 2, 1, 2, 4, 2, 4), "exp-correlated", 0.9,
                 tail_percentile=60.0, fixed_cells=24),
    )
}
