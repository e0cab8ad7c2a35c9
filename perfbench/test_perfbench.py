"""Self-tests of the benchmark's own arithmetic and checks.

    python3 -m pytest perfbench -q        # from the repository root
"""

import json
import re
import sys
import types
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import check  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
from mimo_precoding import (  # noqa: E402
    BaselineConfig,
    SystemDims,
    SystemParams,
    arzf,
    generate_channels,
    harness,
    noise_from_susinr,
    spectral_efficiency_irc,
)
from hostref import REF_BURST, REF_EVERY_S, REF_NOMINAL_S, HostReference  # noqa: E402
from spans import Span, Tracer, covered, self_times  # noqa: E402
from stats import beyond, percentile  # noqa: E402
from workloads import WORKLOADS, min_cells_for_tail  # noqa: E402


# Benchmark metric names: at most 64 of these characters, led by a letter or digit.
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def bad_names(names):
    return [n for n in names if not NAME_RE.match(n)]


def span(start, end, parent=-1, name="x"):
    return Span(name, None, start, end, parent, 0)


class TestSelfTime:
    def test_nested_children(self):
        spans = [span(0, 10), span(1, 3, 0), span(5, 6, 0), span(1.5, 2.5, 1)]
        assert self_times(spans) == pytest.approx([7.0, 1.0, 1.0, 1.0])

    def test_overlapping_children_count_once(self):
        spans = [span(0, 10), span(2, 6, 0), span(4, 8, 0)]
        assert self_times(spans)[0] == pytest.approx(4.0)

    def test_children_clipped_to_parent(self):
        spans = [span(0, 10), span(-2, 1, 0), span(9, 12, 0)]
        assert self_times(spans)[0] == pytest.approx(8.0)

    def test_covered_union(self):
        assert covered(0, 10, [(1, 2), (1.5, 3), (5, 5), (7, 20)]) == pytest.approx(5.0)
        assert covered(0, 10, []) == 0.0


class TestTail:
    def test_beyond_counts_samples_past_the_percentile(self):
        xs = list(range(1, 101))
        for p in (50.0, 80.0, 99.0):
            assert beyond(100, p) == sum(x > percentile(xs, p) for x in xs)

    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_every_run_has_ten_beyond_the_workload_tail(self, name):
        wl = WORKLOADS[name]
        n = min_cells_for_tail(wl.tail_percentile)
        assert beyond(n, wl.tail_percentile) >= 10 > beyond(n - 1, wl.tail_percentile)
        assert wl.min_cells >= n


class TestHostReference:
    def test_scale_uses_the_bursts_around_the_cell(self):
        ref = HostReference()
        n = REF_NOMINAL_S
        ref.bursts = [[n, n, 9 * n], [2 * n, 3 * n, 2 * n], [4 * n, 4 * n, 5 * n]]
        assert ref.scale(0) == pytest.approx(1 / 2)  # the 9n outlier does not count
        assert ref.scale(1) == pytest.approx(1 / 3.5)
        assert ref.scale(2) == pytest.approx(1 / 4)  # after the last burst

    def test_bursts_at_most_every_interval(self):
        ref = HostReference()
        assert ref.before_cell() == 0
        assert ref.before_cell() == 0  # too soon for another burst
        ref._last -= REF_EVERY_S
        assert ref.before_cell() == 1
        assert [len(b) for b in ref.bursts] == [REF_BURST, REF_BURST]
        assert all(x > 0 for b in ref.bursts for x in b)


class TestNames:
    def test_metric_names_follow_the_rule(self):
        assert bad_names(run.END_TO_END) == []
        assert bad_names(layers.PER_LAYER) == []
        assert bad_names(["a b", "", "x" * 65, "-lead", "ok.name-1_2"]) == [
            "a b", "", "x" * 65, "-lead"]

    def test_benchmark_json_lists_what_the_runs_print(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
        assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
        assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.PER_LAYER
        for w in spec["workloads"]:
            tail = WORKLOADS[w["name"]].tail_percentile
            assert f"cell_ms_tail is p{tail:g}" in w["why"]


class TestTracer:
    def test_absent_binding_reports_zero_calls(self):
        tracer = Tracer()
        mod = types.ModuleType("fake")
        assert tracer.patch(mod, "gone", "x.gone") is False
        assert tracer.patch(None, "gone", "x.gone") is False
        metrics = layers.layer_metrics(tracer, rows_failed=0, trace_overhead=0.0)
        assert metrics.keys() == layers.PER_LAYER.keys()
        assert metrics["trace.missing_bindings"] == 2
        assert all(v == 0 for k, v in metrics.items() if k != "trace.missing_bindings")

    def test_install_traces_one_cell_and_restores(self):
        wl = WORKLOADS["ragged-corr"]
        cfg = wl.scenario(7, 12.0)
        original = harness.generate_channels
        tracer = Tracer()
        layers.install(tracer)
        try:
            with tracer.span("cell"):
                report = harness.run_scenario(cfg)
        finally:
            tracer.restore()
        assert harness.generate_channels is original
        assert tracer.missing == []
        assert not report.failures
        m = layers.layer_metrics(tracer, rows_failed=0, trace_overhead=0.0)
        assert m["harness.cells"] == 1
        assert m["baselines.calls"] == 4
        assert m["model.decompose_calls"] == wl.dims.K
        assert m["optimizer.run_calls"] == m["lbfgs.runs"] == 4
        assert sum(m[f"lbfgs.termination.{t}"] for t in layers.TERMINATIONS) == 4
        assert m["optimizer.irc_forwards_per_iter"] > 2.0
        assert 0.0 < m["lbfgs.ls_accept_ratio"] <= 1.0
        # Every recorded span nests inside its parent.
        for s in tracer.spans:
            if s.parent >= 0:
                p = tracer.spans[s.parent]
                assert p.start <= s.start <= s.end <= p.end


@pytest.fixture(scope="module")
def cell():
    channel = generate_channels(SystemDims.uniform(K=3, T=8, R=2, L=1), seed=3)
    sigma2 = noise_from_susinr(channel, 1.0, 12.0)
    params = SystemParams(P=1.0, sigma2=sigma2, L=channel.dims.L)
    W = arzf(channel, BaselineConfig(kind="ARZF", params=params)).W
    return W, channel, params, spectral_efficiency_irc(W, channel, params).se_bits


class TestCorrectnessCheck:
    def test_accepts_the_true_row(self, cell):
        W, channel, params, se = cell
        assert check.check_row(W, channel, params, se) == []
        assert check.reference_se(W, channel, params) == pytest.approx(se, rel=1e-12)

    def test_rejects_precoder_off_the_power_ball(self, cell):
        W, channel, params, se = cell
        problems = check.check_row(W * 1.001, channel, params, se)
        assert any("budget" in p for p in problems)

    def test_rejects_perturbed_se(self, cell):
        W, channel, params, se = cell
        problems = check.check_row(W, channel, params, se * (1.0 + 1e-7))
        assert any("independent" in p for p in problems)
        assert any("rebuilt" in p for p in problems)
        exact = check.check_row(W, channel, params, np.nextafter(se, np.inf))
        assert [p for p in exact if "rebuilt" in p] and not [p for p in exact if "independent" in p]

    def test_rebuild_matches_harness_rows(self):
        wl = WORKLOADS["ragged-corr"]
        report = harness.run_scenario(wl.scenario(11, -4.0))
        problems = check.check_cell(wl, 11, -4.0, report.rows)
        assert set(problems) == set(wl.algorithms)
        assert all(v == [] for v in problems.values())
