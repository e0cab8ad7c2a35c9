"""Repository benchmark: closed-loop sweep clients over three workloads.

Run from the repository root:

    python3 perfbench/run.py --workload irc-opt --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 45

Each workload is one client in one process that calls
`harness.run_scenario` for one (channel seed, SUSINR) cell at a time and
issues the next cell only after the previous one returns (see workloads.py).

--trace 0 measures the end-to-end metrics with nothing wrapped. --trace 1
runs every cell twice, once untraced and once with the module bindings in
layers.py wrapped, and reports the per-layer metrics of the traced runs plus
the tracing overhead. Both modes check a sample of cells for
correctness outside the timed region (check.py).

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. Full results, the environment stamp and, for
--trace 1, the spans are written under perfbench/out/. The exit code is 0
when every row succeeded and passed the check, 1 otherwise, and 2 when the
source tree is missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from hostref import HostReference
from stats import percentile
from workloads import GRID_ORDER, WORKLOADS, cells

HERE = Path(__file__).resolve().parent
OUT_DIR = HERE / "out"

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# One BLAS thread: the matrices are small (R_k x 64) and the client is one
# closed loop, so more threads have little to split, and the pin keeps runs
# comparable across hosts. It must be set before numpy is first imported.
BLAS_THREADS = 1
# Set-up samples per run; each is a fresh interpreter of about 0.3-0.5 s.
SETUP_SAMPLES = 15
# A fresh process ran its first seconds slower than the rest in probe runs,
# so the client repeats the warm-up cell this long before timing.
WARMUP_S = 2.0
# Per-cell detail kept in the result file but not echoed to standard output.
PER_CELL = ("cell_ms", "norm_cell_ms", "cells_run")

END_TO_END = {
    "norm_cells_per_s": "cells/s",
    "norm_cell_ms_p50": "ms",
    "norm_cell_ms_tail": "ms",
    "se_irc_mean_bits": "bit/s/Hz",
    "success_ratio": "1",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


@dataclass
class Pass:
    """Cells run by the closed-loop client: their timings and failures.

    Rows are kept only for the first `fixed_cells` cells, so the client's
    memory does not grow with the number of cells a faster program completes.
    """

    cells: list = field(default_factory=list)
    rows: list = field(default_factory=list)
    cell_ms: list = field(default_factory=list)  # the run_scenario call
    iter_ms: list = field(default_factory=list)  # config construction + the call
    ref_k: list = field(default_factory=list)    # host reference burst before each cell
    errors: list = field(default_factory=list)  # (cell index, algorithm, error)
    attempted: int = 0

    def run(self, harness, wl, cell, tracer=None, ref=None) -> float:
        """Run one (channel seed, SUSINR) cell; returns when it finished."""
        i = len(self.cells)
        if ref is not None:
            self.ref_k.append(ref.before_cell())
        t_iter = time.perf_counter()
        cfg = wl.scenario(*cell)
        t0 = time.perf_counter()
        if tracer is None:
            report = harness.run_scenario(cfg)
        else:
            tracer.cell = i
            with tracer.span("cell"):
                report = harness.run_scenario(cfg)
        t1 = time.perf_counter()
        self.cells.append(cell)
        self.cell_ms.append((t1 - t0) * 1e3)
        self.iter_ms.append((t1 - t_iter) * 1e3)
        if i < wl.fixed_cells:
            self.rows.append(report.rows)
        self.attempted += len(report.rows)
        self.errors += [(i, r.algorithm, r.error) for r in report.rows if r.error is not None]
        return t1


def run_cells(harness, wl, seed, seconds, min_cells, take_setup_sample):
    """Issue cells one after another for `seconds` of client time; then go on
    to the end of the current pass over the SUSINR grid, and until
    `min_cells` are done, so every run weighs each grid point the same.

    The host reference is timed between cells, and SETUP_SAMPLES set-up
    samples are spread evenly over the run, so both see the same stretches of
    host speed as the cells. Neither falls inside a cell's time, and the
    set-up samples do not count against `seconds`. Each set-up sample is
    scaled by reference bursts taken right before and after it.
    Returns the pass, the reference and the set-up samples.
    """
    p, ref, setup = Pass(), HostReference(), []

    def setup_sample():
        """(wall seconds, seconds scaled by the bursts around the sample)"""
        k = ref.sample()
        wall = take_setup_sample()
        ref.sample()
        return wall, wall * ref.scale(k)

    start = time.perf_counter()
    paused = 0.0
    every = seconds / SETUP_SAMPLES
    for cell in cells(seed):
        busy = p.run(harness, wl, cell, ref=ref) - start - paused
        if len(setup) < SETUP_SAMPLES and busy >= (len(setup) + 0.5) * every:
            t = time.perf_counter()
            setup.append(setup_sample())
            paused += time.perf_counter() - t
        n = len(p.cells)
        if busy >= seconds and n >= min_cells and n % len(GRID_ORDER) == 0:
            break
    ref.sample()  # closes the bracket of the last cell
    setup += [setup_sample() for _ in range(SETUP_SAMPLES - len(setup))]
    return p, ref, setup


def check_sample(wl, p: Pass) -> dict:
    """Run the correctness check on a fixed sample of the pass's first cells.
    Returns {(cell index, algorithm): [problems]} for every checked row."""
    import check

    m = len(p.rows)
    out = {}
    for i in sorted({0, m // 2, m - 1}):
        channel_seed, susinr_db = p.cells[i]
        for algo, problems in check.check_cell(wl, channel_seed, susinr_db, p.rows[i]).items():
            out[(i, algo)] = problems
    return out


def failed_rows(passes, checked) -> set:
    """Rows that failed in any pass, plus rows of the last pass that the
    check rejected."""
    bad = {(n, i, algo) for n, p in enumerate(passes) for i, algo, _ in p.errors}
    last = len(passes) - 1
    return bad | {(last, i, algo) for (i, algo), problems in checked.items() if problems}


def setup_sample(root: Path, workload: str) -> float:
    out = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), workload],
        cwd=root, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(json.loads(out.stdout.strip().splitlines()[-1])["setup_s"])


def src_digest(root: Path) -> str:
    h = hashlib.sha256()
    for f in sorted((root / "src").rglob("*.py")):
        h.update(str(f.relative_to(root)).encode())
        h.update(f.read_bytes())
    return h.hexdigest()


def git_sha(root: Path):
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def env_stamp(root: Path, thread_env_before: dict) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):  # numpy builds without the dict form
        blas = {"name": None, "version": None}
    return {
        "git_sha": git_sha(root),
        "src_sha256": src_digest(root),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads_pin": BLAS_THREADS,
        "thread_env_before": thread_env_before,
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "platform": platform.platform(),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def measure_end_to_end(harness, wl, seed, seconds, take_setup_sample):
    p, ref, setup = run_cells(harness, wl, seed, seconds, wl.min_cells, take_setup_sample)
    rss = peak_rss_mb()
    checked = check_sample(wl, p)
    failed = failed_rows([p], checked)
    se = [r.se_irc_bits for rows in p.rows for r in rows if r.error is None]
    scale = [ref.scale(k) for k in p.ref_k]
    norm_cell_ms = [ms * s for ms, s in zip(p.cell_ms, scale)]
    norm_busy_s = sum(ms * s for ms, s in zip(p.iter_ms, scale)) / 1e3
    metrics = {
        "norm_cells_per_s": len(p.cells) / norm_busy_s,
        "norm_cell_ms_p50": statistics.median(norm_cell_ms),
        "norm_cell_ms_tail": percentile(norm_cell_ms, wl.tail_percentile),
        "se_irc_mean_bits": statistics.fmean(se) if se else 0.0,
        "success_ratio": 1.0 - len(failed) / p.attempted,
        "setup_s": statistics.median(norm for _, norm in setup),
        "peak_rss_mb": rss,
    }
    details = {
        "cells": len(p.cells),
        # Wall-clock figures of the same cells, not scaled by the host
        # reference; they move with the host's speed as well as the program's.
        "wall_cells_per_s": len(p.cells) / (sum(p.iter_ms) / 1e3),
        "wall_cell_ms_p50": statistics.median(p.cell_ms),
        "wall_cell_ms_tail": percentile(p.cell_ms, wl.tail_percentile),
        "tail_percentile": wl.tail_percentile,
        "tail_samples_beyond": len(p.cells) - sum(x <= metrics["norm_cell_ms_tail"]
                                                  for x in norm_cell_ms),
        "ref_bursts": len(ref.bursts),
        "ref_ms_p50": statistics.median(x for b in ref.bursts for x in b) * 1e3,
        "host_slowdown_mean": statistics.fmean(1.0 / s for s in scale),
        "fail_ratio": len(failed) / p.attempted,
        "wall_setup_s": statistics.median(wall for wall, _ in setup),
        "setup_samples_s": [wall for wall, _ in setup],
        "checked_rows": len(checked),
        "check_problems": {f"{i}:{a}": v for (i, a), v in checked.items() if v},
        "cell_ms": p.cell_ms,
        "norm_cell_ms": norm_cell_ms,
        "cells_run": p.cells,
        "errors": p.errors,
    }
    return metrics, END_TO_END, p.attempted, len(failed), details


def measure_per_layer(harness, wl, seed, seconds):
    import layers
    import spans

    tracer = spans.Tracer()
    untraced, traced = Pass(), Pass()
    deadline = time.perf_counter() + seconds
    for i, cell in enumerate(cells(seed)):
        # Each cell runs untraced and traced back to back, alternating which
        # goes first, so host drift and warm caches favour neither side.
        for trace_it in (i % 2 == 1, i % 2 == 0):
            if trace_it:
                layers.install(tracer)
                try:
                    end = traced.run(harness, wl, cell, tracer)
                finally:
                    tracer.restore()
            else:
                end = untraced.run(harness, wl, cell)
        if end >= deadline:
            break
    # Same cells on both sides, so 1 - traced cells/s / untraced cells/s
    # reduces to the ratio of their summed cell times.
    overhead = 1.0 - sum(untraced.cell_ms) / sum(traced.cell_ms)
    checked = check_sample(wl, traced)
    passes = [untraced, traced]
    attempted = sum(p.attempted for p in passes)
    failed = failed_rows(passes, checked)
    metrics = layers.layer_metrics(tracer, len(traced.errors), overhead)
    OUT_DIR.mkdir(exist_ok=True)
    tracer.dump(OUT_DIR / f"{wl.name}-seed{seed}-spans.json")
    details = {
        "cells": len(traced.cells),
        "untraced_s": sum(untraced.cell_ms) / 1e3,
        "traced_s": sum(traced.cell_ms) / 1e3,
        "spans": len(tracer.spans),
        "missing_bindings": tracer.missing,
        "checked_rows": len(checked),
        "check_problems": {f"{i}:{a}": v for (i, a), v in checked.items() if v},
    }
    return metrics, layers.PER_LAYER, attempted, len(failed), details


def run_all(args) -> int:
    """Run every workload in turn, each in its own process, and print a
    combined table."""
    summary, worst = {}, 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        worst = max(worst, proc.returncode)
        if proc.returncode not in (0, 1) or not lines:
            print(f"{name}: exited {proc.returncode}")
            continue
        summary[name] = json.loads(lines[-1])
        print(f"== {name}")
        for metric, m in summary[name]["metrics"].items():
            print(f"  {metric:<40} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps({"workloads": summary}))
    return worst


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    root = Path.cwd()
    if not (root / "src" / "mimo_precoding" / "__init__.py").is_file():
        print("perfbench: src/mimo_precoding not found; run from the repository root",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    thread_env_before = {v: os.environ.get(v) for v in THREAD_VARS}
    for v in THREAD_VARS:
        os.environ[v] = str(BLAS_THREADS)
    sys.path.insert(0, str(root / "src"))
    wl = WORKLOADS[args.workload]

    import mimo_precoding
    from mimo_precoding import harness

    if not Path(mimo_precoding.__file__).resolve().is_relative_to((root / "src").resolve()):
        print(f"perfbench: imported {mimo_precoding.__file__}, not this tree", file=sys.stderr)
        return 2
    env = env_stamp(root, thread_env_before)
    warm_until = time.perf_counter() + WARMUP_S
    while True:
        harness.run_scenario(wl.warmup_scenario())
        if time.perf_counter() >= warm_until:
            break

    if args.trace:
        metrics, units, attempted, failed, details = measure_per_layer(
            harness, wl, args.seed, args.seconds)
    else:
        metrics, units, attempted, failed, details = measure_end_to_end(
            harness, wl, args.seed, args.seconds, lambda: setup_sample(root, wl.name))

    correct = failed == 0
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / f"{wl.name}-seed{args.seed}-trace{args.trace}.json", "w",
              encoding="utf-8") as f:
        json.dump({"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
                   "env": env, "details": details, **result}, f, indent=1)
    print(json.dumps({"env": env}))
    print(json.dumps({"details": {k: v for k, v in details.items() if k not in PER_CELL}}))
    for k, v in metrics.items():
        print(f"{k:<44} {v:>14.6g} {units[k]}")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
