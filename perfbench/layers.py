"""Which module bindings the traced run wraps, and the per-layer metrics it
derives from their spans.

Each binding is the name through which the program actually makes the call:
the harness reaches channels, baselines, scoring and the optimizer through
its own imports, `generate_channels` reaches `model` through the `channels`
module, `spectral_efficiency_irc` reaches `detection` through `quality`, and
the optimizer reaches its objective, gradient and engine through module
globals. Scoring is therefore timed only where the harness scores a
precoder, not where the IRC objective evaluates the same function.
"""

from __future__ import annotations

import importlib

from spans import Tracer, self_times
from stats import median, ratio
from workloads import BASELINES, QN

KINDS = ("irc", "cd")
TERMINATIONS = ("gradient-tolerance", "change-tolerance", "max-iterations",
                "line-search-failure")


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs.get(name)


def _cfg_kind(args, kwargs):
    return getattr(_arg(args, kwargs, 1, "cfg"), "kind", None)


def _spec_kind(args, kwargs):
    return getattr(_arg(args, kwargs, 1, "spec"), "kind", None)


def _algorithm(args, kwargs):
    spec = _arg(args, kwargs, 0, "spec")
    cfg = _arg(args, kwargs, 1, "cfg")
    kind = getattr(spec, "kind", "?")
    start = getattr(cfg, "start", "?")
    return f"QN-{kind}-{start}".upper()


def _engine_hooks(tracer: Tracer):
    """Trace the value/value_and_grad callbacks handed to lbfgs.maximize (each
    `value` call is one line-search trial) and keep its termination reason
    and accepted-iteration count."""
    def pre(args, kwargs):
        if args:
            args = (tracer.wrap(args[0], "lbfgs.value_and_grad"),) + tuple(args[1:])
        elif "value_and_grad" in kwargs:
            kwargs = {**kwargs, "value_and_grad":
                      tracer.wrap(kwargs["value_and_grad"], "lbfgs.value_and_grad")}
        if kwargs.get("value") is not None:
            kwargs = {**kwargs, "value": tracer.wrap(kwargs["value"], "lbfgs.value")}
        return args, kwargs

    def post(span, out):
        info = out[1] if isinstance(out, tuple) and len(out) == 2 else None
        if isinstance(info, dict):
            span.extra = {"termination": info.get("termination"),
                          "iterations": len(info.get("history", ())) - 1}

    return {"pre": pre, "post": post}


def install(tracer: Tracer) -> None:
    """Wrap every traced binding; absent modules or names are only recorded."""
    def mod(name):
        try:
            return importlib.import_module(f"mimo_precoding.{name}")
        except ImportError:
            return None

    harness, channels, quality = mod("harness"), mod("channels"), mod("quality")
    optimizer, lbfgs = mod("optimizer"), mod("lbfgs")
    tracer.patch(harness, "generate_channels", "channels.generate")
    tracer.patch(harness, "compute_baseline", "baselines.compute", key=_cfg_kind)
    tracer.patch(harness, "spectral_efficiency_irc", "quality.score")
    tracer.patch(harness, "lbfgs_maximize", "optimizer.run", key=_algorithm)
    tracer.patch(channels, "decompose_user", "model.decompose")
    tracer.patch(channels, "stack", "model.stack")
    tracer.patch(quality, "irc_detection_set", "detection.irc_set")
    tracer.patch(optimizer, "objective", "optimizer.objective", key=_spec_kind)
    tracer.patch(optimizer, "gradient", "optimizer.gradient", key=_spec_kind)
    tracer.patch(optimizer, "lbfgs_maximize", "optimizer.run", key=_algorithm)
    tracer.patch(lbfgs, "maximize", "lbfgs.maximize", **_engine_hooks(tracer))


# Every per-layer metric the traced run reports, with its unit.
PER_LAYER = {
    "channels.generate_calls": "count",
    "channels.generate_ms_p50": "ms",
    "channels.share": "1",
    "model.decompose_calls": "count",
    "model.decompose_ms_p50": "ms",
    "model.stack_calls": "count",
    "model.stack_ms_p50": "ms",
    "baselines.calls": "count",
    **{f"baselines.ms_p50.{b}": "ms" for b in BASELINES},
    "baselines.share": "1",
    "detection.irc_set_calls_per_cell": "count/cell",
    "detection.irc_set_ms_p50": "ms",
    "quality.score_calls": "count",
    "quality.score_ms_p50": "ms",
    "quality.score_share": "1",
    **{f"optimizer.objective_calls.{k}": "count" for k in KINDS},
    **{f"optimizer.gradient_calls.{k}": "count" for k in KINDS},
    **{f"optimizer.objective_ms_p50.{k}": "ms" for k in KINDS},
    **{f"optimizer.gradient_ms_p50.{k}": "ms" for k in KINDS},
    "optimizer.run_calls": "count",
    **{f"optimizer.run_ms_p50.{a}": "ms" for a in QN},
    "optimizer.share.irc": "1",
    "optimizer.irc_forwards_per_iter": "count/iter",
    "lbfgs.runs": "count",
    **{f"lbfgs.iterations_mean.{a}": "count" for a in QN},
    "lbfgs.cap_share": "1",
    **{f"lbfgs.termination.{t}": "count" for t in TERMINATIONS},
    "lbfgs.ls_trials_per_iter": "count/iter",
    "lbfgs.ls_accept_ratio": "1",
    "lbfgs.engine_self_share": "1",
    "harness.cells": "count",
    "harness.cell_self_ms_p50": "ms",
    "harness.rows_failed": "count",
    "trace.missing_bindings": "count",
    "trace_overhead": "1",
}


def layer_metrics(tracer: Tracer, rows_failed: int, trace_overhead: float) -> dict:
    """Per-layer metrics from the spans of one traced pass. A binding that was
    absent or never called contributes zero calls, zero time and zero ratios.
    Returns {name: value} over exactly the names in PER_LAYER."""
    spans = tracer.spans
    selfs = self_times(spans)
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s.name, []).append(i)

    def idx(name, key=None):
        return [i for i in by_name.get(name, ()) if key is None or spans[i].key == key]

    def ms_p50(name, key=None):
        return median([spans[i].duration * 1e3 for i in idx(name, key)])

    def total(name, key=None):
        return sum(spans[i].duration for i in idx(name, key))

    def algorithm_of(i):
        while i >= 0 and spans[i].name != "optimizer.run":
            i = spans[i].parent
        return spans[i].key if i >= 0 else None

    cells = idx("cell")
    cell_time = total("cell")
    runs = [(algorithm_of(i), spans[i].extra or {}) for i in idx("lbfgs.maximize")]
    iters = {a: [e.get("iterations", 0) for alg, e in runs if alg == a] for a in QN}
    accepted = sum(e.get("iterations", 0) for _, e in runs)
    irc_accepted = sum(e.get("iterations", 0) for a, e in runs if a and "-IRC-" in a)
    trials = len(idx("lbfgs.value"))
    engine = idx("lbfgs.maximize")
    irc_calls = len(idx("optimizer.objective", "irc")) + len(idx("optimizer.gradient", "irc"))

    out = {
        "channels.generate_calls": len(idx("channels.generate")),
        "channels.generate_ms_p50": ms_p50("channels.generate"),
        "channels.share": ratio(total("channels.generate"), cell_time),
        "model.decompose_calls": len(idx("model.decompose")),
        "model.decompose_ms_p50": ms_p50("model.decompose"),
        "model.stack_calls": len(idx("model.stack")),
        "model.stack_ms_p50": ms_p50("model.stack"),
        "baselines.calls": len(idx("baselines.compute")),
        **{f"baselines.ms_p50.{b}": ms_p50("baselines.compute", b) for b in BASELINES},
        "baselines.share": ratio(total("baselines.compute"), cell_time),
        "detection.irc_set_calls_per_cell": ratio(len(idx("detection.irc_set")), len(cells)),
        "detection.irc_set_ms_p50": ms_p50("detection.irc_set"),
        "quality.score_calls": len(idx("quality.score")),
        "quality.score_ms_p50": ms_p50("quality.score"),
        "quality.score_share": ratio(total("quality.score"), cell_time),
        **{f"optimizer.objective_calls.{k}": len(idx("optimizer.objective", k)) for k in KINDS},
        **{f"optimizer.gradient_calls.{k}": len(idx("optimizer.gradient", k)) for k in KINDS},
        **{f"optimizer.objective_ms_p50.{k}": ms_p50("optimizer.objective", k) for k in KINDS},
        **{f"optimizer.gradient_ms_p50.{k}": ms_p50("optimizer.gradient", k) for k in KINDS},
        "optimizer.run_calls": len(idx("optimizer.run")),
        **{f"optimizer.run_ms_p50.{a}": ms_p50("optimizer.run", a) for a in QN},
        "optimizer.share.irc": ratio(total("optimizer.objective", "irc")
                                     + total("optimizer.gradient", "irc"), cell_time),
        "optimizer.irc_forwards_per_iter": ratio(irc_calls, irc_accepted),
        "lbfgs.runs": len(runs),
        **{f"lbfgs.iterations_mean.{a}": ratio(sum(v), len(v)) for a, v in iters.items()},
        "lbfgs.cap_share": ratio(sum(e.get("termination") == "max-iterations"
                                     for _, e in runs), len(runs)),
        **{f"lbfgs.termination.{t}": sum(e.get("termination") == t for _, e in runs)
           for t in TERMINATIONS},
        "lbfgs.ls_trials_per_iter": ratio(trials, accepted),
        "lbfgs.ls_accept_ratio": ratio(accepted, trials),
        "lbfgs.engine_self_share": ratio(sum(selfs[i] for i in engine),
                                         sum(spans[i].duration for i in engine)),
        "harness.cells": len(cells),
        "harness.cell_self_ms_p50": median([selfs[i] * 1e3 for i in cells]),
        "harness.rows_failed": rows_failed,
        "trace.missing_bindings": len(tracer.missing),
        "trace_overhead": trace_overhead,
    }
    assert out.keys() == PER_LAYER.keys()
    return out
