import json

import numpy as np
import pytest

import mimo_precoding.harness as harness
from mimo_precoding import (
    ConfigError,
    MimoError,
    OptimizerConfig,
    PrecodingMatrix,
    RunReport,
    ScenarioConfig,
    SingularMatrixError,
    SystemDims,
    SystemParams,
    export_report,
    generate_channels,
    noise_from_susinr,
    run_scenario,
    spectral_efficiency_irc,
)
from mimo_precoding.harness import RunRecord

RAGGED_CORR = dict(
    dims=SystemDims(K=8, T=64, R_k=(1, 2, 2, 4, 4, 4, 8, 8), L_k=(1, 1, 2, 1, 2, 4, 2, 4)),
    channel_model="exp-correlated",
    rho=0.9,
)


def tiny_config(**overrides):
    base = dict(
        dims=SystemDims.uniform(K=2, T=8, R=2, L=1),
        seeds=(0, 1),
        susinr_grid_db=(0.0, 12.0),
        algorithms=("RZF", "ARZF"),
        optimizer=OptimizerConfig(max_iters=20),
    )
    base.update(overrides)
    return ScenarioConfig(**base)


def strip_wall_ms(text: str) -> str:
    lines = []
    for line in text.splitlines():
        cells = line.split(",")
        del cells[4]  # wall_ms column
        lines.append(",".join(cells))
    return "\n".join(lines)


def reference_cell(cfg, seed, susinr_db):
    """One cell's rows without wall_ms, each precoder built and then scored
    alone by spectral_efficiency_irc: the harness before batched scoring."""
    channel = generate_channels(cfg.dims, seed, cfg.channel_model, cfg.rho)
    sigma2 = noise_from_susinr(channel, cfg.P, susinr_db)
    params = SystemParams(P=cfg.P, sigma2=sigma2, L=cfg.dims.L)
    rows = []
    for algo in cfg.algorithms:
        try:
            W, iterations = harness.run_algorithm(algo, channel, params, cfg.optimizer)
            se = spectral_efficiency_irc(W, channel, params).se_bits
            rows.append((seed, susinr_db, algo, float(se), iterations, None))
        except (MimoError, np.linalg.LinAlgError) as exc:
            rows.append((seed, susinr_db, algo, None, None, f"{type(exc).__name__}: {exc}"))
    return rows


def rows_without_wall_ms(report):
    return [(r.seed, r.susinr_db, r.algorithm, r.se_irc_bits, r.iterations, r.error)
            for r in report.rows]


class TestScenarioConfig:
    def test_defaults_match_reference_scenario(self):
        cfg = ScenarioConfig()
        assert cfg.dims == SystemDims.uniform(K=8, T=64, R=4, L=2)
        assert cfg.seeds == tuple(range(40))
        assert cfg.susinr_grid_db == tuple(float(x) for x in range(-4, 41, 4))
        assert cfg.P == 1.0
        assert len(cfg.algorithms) == 8

    def test_from_dict_round_trip(self):
        raw = {"dims": {"K": 2, "T": 8, "R_k": 2, "L_k": 1}, "seeds": [0, 1],
               "susinr_grid_db": [0.0, 12.0], "algorithms": ["RZF", "ARZF"],
               "optimizer": {"max_iters": 20}}
        assert ScenarioConfig.from_dict(raw) == tiny_config()

    def test_from_dict_seed_count_shorthand(self):
        cfg = ScenarioConfig.from_dict({"seeds": 5})
        assert cfg.seeds == (0, 1, 2, 3, 4)

    @pytest.mark.parametrize("raw", [
        {"seeds": True},
        {"seeds": [0, False]},
        {"workers": True},
        {"algorithms": ["ZF", "bogus"]},
        {"susinr_grid_db": []},
        {"P": -1.0},
        {"P": float("nan")},
        {"P": float("inf")},
        {"susinr_grid_db": [0.0, float("nan")]},
        {"susinr_grid_db": [float("inf")]},
        {"susinr_grid_db": [float("-inf"), 12.0]},
        {"channel_model": "quadriga"},
        {"rho": 1.5},
        {"definitely_not_a_key": 1},
        {"dims": {"K": 2, "T": 4, "R_k": 8, "L_k": 1}},
        {"optimizer": {"backtrack": 0.3}},
        {"optimizer": {"start": "rzf"}},
        {"optimizer": {"start_matrix": [[0.0, 0.0]] * 8}},
        {"optimizer": {"start": "custom", "start_matrix": [[0.0, 0.0]] * 8}},
        # Non-integer counts were truncated, booleans read as 0/1.
        {"dims": {"K": 2.7, "T": 8, "R_k": 2, "L_k": 1}},
        {"dims": {"K": True, "T": 8, "R_k": 2, "L_k": 1}},
        {"dims": {"K": 2, "T": 8.0, "R_k": 2, "L_k": 1}},
        {"dims": {"K": 2, "T": 8, "R_k": True, "L_k": 1}},
        {"dims": {"K": 2, "T": 8, "R_k": 2, "L_k": [1.9, 1]}},
        {"seeds": 2.5},
        {"seeds": [2.5]},
        {"workers": 2.5},
        {"optimizer": {"max_iters": 2.5}},
        {"optimizer": {"max_iters": True}},
        {"optimizer": {"memory": 2.5}},
        {"optimizer": {"tol_grad": float("nan")}},
        {"optimizer": {"tol_change": float("inf")}},
    ])
    def test_invalid_configs(self, raw):
        with pytest.raises(ConfigError):
            ScenarioConfig.from_dict(raw)


class TestRunScenario:
    def test_single_cell(self):
        cfg = tiny_config(seeds=(0,), susinr_grid_db=(12.0,), algorithms=("RZF",))
        report = run_scenario(cfg)
        assert len(report.rows) == 1
        row = report.rows[0]
        assert row.algorithm == "RZF"
        assert row.error is None
        assert row.se_irc_bits > 0
        assert row.iterations == 0

    def test_grid_complete_in_config_order(self):
        cfg = tiny_config()
        report = run_scenario(cfg)
        assert len(report.rows) == 2 * 2 * 2
        expected = [(seed, susinr, algo)
                    for seed in cfg.seeds
                    for susinr in cfg.susinr_grid_db
                    for algo in cfg.algorithms]
        got = [(r.seed, r.susinr_db, r.algorithm) for r in report.rows]
        assert got == expected

    def test_workers_do_not_change_values(self):
        cfg1 = tiny_config(workers=1)
        cfg4 = tiny_config(workers=4)
        r1 = run_scenario(cfg1)
        r4 = run_scenario(cfg4)
        assert [(r.seed, r.susinr_db, r.algorithm, r.se_irc_bits) for r in r1.rows] == \
               [(r.seed, r.susinr_db, r.algorithm, r.se_irc_bits) for r in r4.rows]

    def test_quasi_newton_beats_its_start(self):
        cfg = tiny_config(seeds=(0, 1, 2), susinr_grid_db=(12.0,),
                          algorithms=("ARZF", "QN-IRC-ARZF"),
                          optimizer=OptimizerConfig(max_iters=60))
        report = run_scenario(cfg)
        by_key = {(r.seed, r.algorithm): r.se_irc_bits for r in report.rows}
        for seed in cfg.seeds:
            assert by_key[(seed, "QN-IRC-ARZF")] >= by_key[(seed, "ARZF")]

    def test_mean_se_nondecreasing_in_susinr(self):
        cfg = tiny_config(seeds=tuple(range(5)), susinr_grid_db=(0.0, 12.0, 24.0),
                          algorithms=("MRT", "ZF", "RZF", "ARZF"))
        means = {(a["susinr_db"], a["algorithm"]): a["mean_se_irc_bits"]
                 for a in run_scenario(cfg).aggregates()}
        for algo in cfg.algorithms:
            curve = [means[(s, algo)] for s in cfg.susinr_grid_db]
            assert all(b >= a for a, b in zip(curve, curve[1:]))

    def test_cell_failure_recorded_not_raised(self, monkeypatch):
        real = harness.run_algorithm

        def flaky(name, channel, params, opt_cfg):
            if name == "ZF":
                raise SingularMatrixError("synthetic failure")
            return real(name, channel, params, opt_cfg)

        monkeypatch.setattr(harness, "run_algorithm", flaky)
        cfg = tiny_config(seeds=(0,), susinr_grid_db=(12.0,), algorithms=("ZF", "RZF"))
        report = run_scenario(cfg)
        assert len(report.rows) == 2
        assert len(report.failures) == 1
        assert report.failures[0].algorithm == "ZF"
        assert "synthetic failure" in report.failures[0].error

    @pytest.mark.parametrize("setting", [{}, RAGGED_CORR], ids=["iid", "ragged-corr"])
    def test_rows_equal_scoring_each_precoder_alone(self, setting):
        cfg = ScenarioConfig(seeds=(0, 1), susinr_grid_db=(0.0, 24.0),
                             optimizer=OptimizerConfig(max_iters=10), **setting)
        expected = [row for seed in cfg.seeds for db in cfg.susinr_grid_db
                    for row in reference_cell(cfg, seed, db)]
        assert rows_without_wall_ms(run_scenario(cfg)) == expected

    def test_scoring_failure_fails_only_its_row(self, monkeypatch):
        real = harness.run_algorithm

        def silent_zf(name, channel, params, opt_cfg):
            W, iterations = real(name, channel, params, opt_cfg)
            if name == "ZF":
                W = PrecodingMatrix(np.zeros_like(W.W))  # undefined SINR at scoring
            return W, iterations

        monkeypatch.setattr(harness, "run_algorithm", silent_zf)
        cfg = tiny_config(seeds=(0,), susinr_grid_db=(12.0,),
                          algorithms=("MRT", "ZF", "RZF", "ARZF"))
        report = run_scenario(cfg)
        assert [r.algorithm for r in report.failures] == ["ZF"]
        assert report.failures[0].error.startswith("UndefinedSinrError: symbol 0: ")
        assert report.failures[0].wall_ms is not None
        assert rows_without_wall_ms(report) == reference_cell(cfg, 0, 12.0)

    def test_programming_error_propagates(self, monkeypatch):
        def buggy(name, channel, params, opt_cfg):
            raise RuntimeError("synthetic bug")

        monkeypatch.setattr(harness, "run_algorithm", buggy)
        cfg = tiny_config(seeds=(0,), susinr_grid_db=(12.0,), algorithms=("ZF",))
        with pytest.raises(RuntimeError, match="synthetic bug"):
            run_scenario(cfg)


class TestExportReport:
    def test_empty_report_header_only(self, tmp_path):
        path = tmp_path / "r.csv"
        export_report(RunReport(rows=()), "csv", path)
        assert path.read_text() == "seed,susinr_db,algorithm,se_irc_bits,wall_ms,iterations\n"

    def test_one_row_two_lines(self, tmp_path):
        report = RunReport(rows=(RunRecord(0, 12.0, "RZF", 3.25, 1.5, 0),))
        path = tmp_path / "r.csv"
        export_report(report, "csv", path)
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        assert lines[1] == "0,12,RZF,3.25,1.5,0"

    def test_row_count_matches_grid(self, tmp_path):
        cfg = tiny_config()
        report = run_scenario(cfg)
        path = tmp_path / "r.csv"
        export_report(report, "csv", path)
        lines = path.read_text().splitlines()
        assert len(lines) == 1 + len(cfg.seeds) * len(cfg.susinr_grid_db) * len(cfg.algorithms)

    def test_lf_endings_and_six_significant_digits(self, tmp_path):
        report = RunReport(rows=(RunRecord(1, -4.0, "MRT", 0.123456789, 10.0, 0),))
        path = tmp_path / "r.csv"
        export_report(report, "csv", path)
        raw = path.read_bytes()
        assert b"\r" not in raw
        assert b"0.123457" in raw

    def test_determinism_modulo_wall_ms(self, tmp_path):
        cfg = tiny_config()
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        export_report(run_scenario(cfg), "csv", a)
        export_report(run_scenario(cfg), "csv", b)
        assert strip_wall_ms(a.read_text()) == strip_wall_ms(b.read_text())

    def test_json_mirrors_with_aggregates(self, tmp_path):
        cfg = tiny_config()
        report = run_scenario(cfg)
        path = tmp_path / "r.json"
        export_report(report, "json", path)
        doc = json.loads(path.read_text())
        assert len(doc["rows"]) == len(report.rows)
        assert {a["algorithm"] for a in doc["aggregates"]} == set(cfg.algorithms)
        agg = {(a["susinr_db"], a["algorithm"]): a["mean_se_irc_bits"] for a in doc["aggregates"]}
        # Aggregates recomputable from rows.
        for (susinr, algo), mean in agg.items():
            rows = [r["se_irc_bits"] for r in doc["rows"]
                    if r["susinr_db"] == susinr and r["algorithm"] == algo]
            assert mean == pytest.approx(np.mean(rows), rel=1e-5)

    def test_failed_cell_has_empty_values_in_csv(self, tmp_path):
        report = RunReport(rows=(RunRecord(0, 0.0, "ZF", None, 2.0, None, error="boom"),))
        path = tmp_path / "r.csv"
        export_report(report, "csv", path)
        assert path.read_text().splitlines()[1] == "0,0,ZF,,2,"

    def test_unknown_format(self, tmp_path):
        with pytest.raises(ConfigError):
            export_report(RunReport(rows=()), "xml", tmp_path / "r.xml")

