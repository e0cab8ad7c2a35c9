import json
import math
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest

import mimo_precoding.harness as harness
from mimo_precoding import (
    BaselineConfig,
    ConfigError,
    MimoError,
    OptimizerConfig,
    PrecodingMatrix,
    RunReport,
    ScenarioConfig,
    SingularMatrixError,
    SystemDims,
    SystemParams,
    build_channel_set,
    compute_baseline,
    export_report,
    generate_channels,
    noise_from_susinr,
    run_scenario,
    spectral_efficiency_irc,
)
from mimo_precoding.baselines import KINDS
from mimo_precoding.harness import RunRecord

from conftest import numpy_python_calls

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
            W, trace = harness.run_algorithm(algo, channel, params, cfg.optimizer)
            se = spectral_efficiency_irc(W, channel, params).se_bits
            iterations = 0 if trace is None else trace.iterations
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
        {"algorithms": "MRT"},
        {"susinr_grid_db": 12},
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
        # Cells run serially; the thread pool was slower than the serial loop.
        {"workers": 2},
        {"workers": 4},
        # A start at its default value used to pass and be ignored.
        {"optimizer": {"start": "arzf"}},
        {"optimizer": {"start_matrix": None}},
    ])
    def test_invalid_configs(self, raw):
        with pytest.raises(ConfigError):
            ScenarioConfig.from_dict(raw)

    @pytest.mark.parametrize("key, value", [
        ("start", "arzf"), ("start", "rzf"), ("start_matrix", None),
        ("start_matrix", [[0.0, 0.0]] * 8),
    ])
    def test_optimizer_start_rejected_by_name(self, key, value):
        with pytest.raises(ConfigError, match=rf"optimizer\.{key} .*algorithm name"):
            ScenarioConfig.from_dict({"optimizer": {"max_iters": 3, key: value}})

    # A start built in Python used to pass when it equalled the default.
    @pytest.mark.parametrize("kwargs", [
        dict(start="arzf"), dict(start="rzf"), dict(start_matrix=np.zeros((64, 16))),
        dict(start="custom", start_matrix=np.zeros((64, 16))),
    ])
    def test_optimizer_start_rejected_by_constructor(self, kwargs):
        with pytest.raises(ConfigError, match="algorithm name"):
            ScenarioConfig(algorithms=("QN-IRC-RZF",), optimizer=OptimizerConfig(**kwargs))

    # float(True) is 1.0 and 0 < True holds, so booleans used to pass as numbers.
    @pytest.mark.parametrize("raw, field", [
        ({"P": True}, "P"),
        ({"rho": False}, "rho"),
        ({"susinr_grid_db": [12.0, True]}, "susinr_grid_db"),
        ({"susinr_grid_db": [np.False_]}, "susinr_grid_db"),
        ({"optimizer": {"tol_grad": True}}, "tol_grad"),
        ({"optimizer": {"tol_change": True}}, "tol_change"),
    ])
    def test_boolean_in_float_field_names_the_field(self, raw, field):
        with pytest.raises(ConfigError, match=field):
            ScenarioConfig.from_dict(raw)

    @pytest.mark.parametrize("kwargs, field", [
        (dict(P=True), "P"),
        (dict(rho=np.False_), "rho"),
        (dict(susinr_grid_db=(0.0, True)), "susinr_grid_db"),
    ])
    def test_boolean_in_float_field_rejected_by_constructor(self, kwargs, field):
        with pytest.raises(ConfigError, match=field):
            ScenarioConfig(**kwargs)

    # from_dict used to coerce these with float(), and the constructor let
    # them through to a bare TypeError.
    @pytest.mark.parametrize("kwargs, field", [
        (dict(P="1"), "P"),
        (dict(P=None), "P"),
        (dict(rho="0.1"), "rho"),
        (dict(susinr_grid_db=("12",)), "susinr_grid_db"),
        (dict(P=10**400), "P"),  # beyond float range
    ])
    def test_non_number_in_float_field_names_the_field(self, kwargs, field):
        with pytest.raises(ConfigError, match=field):
            ScenarioConfig(**kwargs)
        with pytest.raises(ConfigError, match=field):
            ScenarioConfig.from_dict(kwargs)

    # Built directly, these raised a bare TypeError or AttributeError, read a
    # string one character at a time, or passed and failed in run_scenario.
    @pytest.mark.parametrize("kwargs, field", [
        (dict(seeds=5), "seeds"),
        (dict(susinr_grid_db=12), "susinr_grid_db"),
        (dict(algorithms=None), "algorithms"),
        (dict(algorithms="MRT"), "algorithms"),
        (dict(dims=None), "dims"),
        (dict(dims=(8, 64)), "dims"),
        (dict(optimizer={"max_iters": 3}), "optimizer"),
        (dict(workers=2), "workers must be 1, cells run serially"),
    ])
    def test_bad_field_names_the_field(self, kwargs, field):
        with pytest.raises(ConfigError, match=field):
            ScenarioConfig(**kwargs)

    def test_rho_needs_the_exp_correlated_model_at_every_entry_point(self):
        message = "rho applies only to the exp-correlated channel model"
        errors = []
        for build in (lambda: ScenarioConfig(rho=0.5),
                      lambda: ScenarioConfig.from_dict({"rho": 0.5}),
                      lambda: generate_channels(SystemDims.uniform(K=8, T=64, R=4, L=2), 0,
                                                "iid-gaussian", 0.5)):
            with pytest.raises(ConfigError, match=message) as err:
                build()
            errors.append(str(err.value))
        assert len(set(errors)) == 1

    @pytest.mark.parametrize("model, rho", [("exp-correlated", 0.5), ("exp-correlated", 0.0),
                                            ("iid-gaussian", 0.0)])
    def test_rho_accepted_where_the_model_reads_it_or_it_is_zero(self, model, rho):
        cfg = ScenarioConfig.from_dict({"channel_model": model, "rho": rho})
        assert (cfg.channel_model, cfg.rho) == (model, rho)
        generate_channels(SystemDims.uniform(K=2, T=4, R=2, L=1), 0, model, rho)

    def test_float_fields_stored_as_floats(self):
        cfg = ScenarioConfig(P=2, channel_model="exp-correlated", rho=np.float32(0.5),
                             susinr_grid_db=(12, np.int64(-4)))
        assert (cfg.P, cfg.rho, cfg.susinr_grid_db) == (2.0, 0.5, (12.0, -4.0))
        assert all(type(x) is float for x in (cfg.P, cfg.rho, *cfg.susinr_grid_db))

    @pytest.mark.parametrize("field", ["tol_grad", "tol_change"])
    def test_boolean_tolerance_rejected_by_optimizer_config(self, field):
        with pytest.raises(ValueError, match=field):
            OptimizerConfig(**{field: True})


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
            W, trace = real(name, channel, params, opt_cfg)
            if name == "ZF":
                W = PrecodingMatrix(np.zeros_like(W.W))  # undefined SINR at scoring
            return W, trace

        monkeypatch.setattr(harness, "run_algorithm", silent_zf)
        cfg = tiny_config(seeds=(0,), susinr_grid_db=(12.0,),
                          algorithms=("MRT", "ZF", "RZF", "ARZF"))
        report = run_scenario(cfg)
        assert [r.algorithm for r in report.failures] == ["ZF"]
        assert report.failures[0].error.startswith("UndefinedSinrError: user 0, symbol 0: ")
        assert report.failures[0].wall_ms is not None
        assert rows_without_wall_ms(report) == reference_cell(cfg, 0, 12.0)

    def test_each_seed_draws_its_channel_once(self, monkeypatch):
        seeds = []

        def counted(dims, seed, *args):
            seeds.append(seed)
            return generate_channels(dims, seed, *args)

        monkeypatch.setattr(harness, "generate_channels", counted)
        cfg = tiny_config(susinr_grid_db=(0.0, 12.0, 24.0))
        report = run_scenario(cfg)
        assert seeds == [0, 1] and len(report.rows) == 2 * 3 * 2
        expected = [row for seed in cfg.seeds for db in cfg.susinr_grid_db
                    for row in reference_cell(cfg, seed, db)]
        assert rows_without_wall_ms(report) == expected

    @pytest.mark.parametrize("setting", [{}, RAGGED_CORR], ids=["iid", "ragged-corr"])
    def test_irc_rows_score_the_final_objective(self, setting):
        # Scoring and the QN-IRC objective are one MMSE-IRC forward pass, so a
        # QN-IRC row's SE is its run's last accepted objective, bit for bit.
        cfg = ScenarioConfig(seeds=(0, 1), susinr_grid_db=(-4.0, 12.0, 40.0, 200.0),
                             algorithms=("QN-IRC-ARZF", "QN-IRC-RZF"),
                             optimizer=OptimizerConfig(max_iters=60), **setting)
        report = run_scenario(cfg)
        assert len(report.rows) == 16 and not report.failures
        for r in report.rows:
            channel, params = harness.cell(cfg, r.seed, r.susinr_db)
            _, trace = harness.run_algorithm(r.algorithm, channel, params, cfg.optimizer)
            assert r.se_irc_bits.hex() == trace.records[-1].objective.hex()

    def test_zero_noise_fails_only_the_quasi_newton_rows(self):
        # At 4000 dB the calibrated noise power underflows to 0.0: ARZF is
        # still scored, and both quasi-Newton objectives reject the cell.
        cfg = ScenarioConfig(seeds=(0,), susinr_grid_db=(4000.0,),
                             algorithms=("ARZF", "QN-IRC-ARZF", "QN-CD-ARZF"))
        channel = generate_channels(cfg.dims, 0, cfg.channel_model, cfg.rho)
        assert noise_from_susinr(channel, cfg.P, 4000.0) == 0.0
        arzf, *qn = run_scenario(cfg).rows
        assert arzf.error is None and arzf.se_irc_bits > 0
        for row in qn:
            assert row.se_irc_bits is None and row.iterations is None
            assert row.error.startswith("InfiniteSusinrError: ")

    # sigma2 = P * gain * 10^(-susinr_db / 10), gain about 37 at the default
    # dims: 10^400 overflows at -4000 dB, and P * gain at P = 1e307. At
    # -3068.246 dB, gain * 10^(-susinr_db / 10) is about 2.5e308: at P = 0.5
    # sigma2 fits but sigma2 / P does not, which used to fail each row with
    # its own misleading error after RuntimeWarnings.
    @pytest.mark.parametrize("P, grid", [(1.0, (-4000.0, 12.0)), (1e307, (0.0,)),
                                         (0.5, (-3068.246, 12.0))],
                             ids=["power-of-ten-overflows", "product-overflows",
                                  "ratio-overflows"])
    def test_overflowing_noise_calibration_fails_every_row_of_its_cell(self, P, grid):
        cfg = ScenarioConfig(P=P, seeds=(0,), susinr_grid_db=grid,
                             algorithms=("ARZF", "QN-IRC-ARZF"),
                             optimizer=OptimizerConfig(max_iters=5))
        rows = run_scenario(cfg).rows
        message = (f"NumericalFailureError: noise power for {grid[0]:g} dB SUSINR "
                   f"at P={P:g} overflows")
        for row in rows[:2]:
            assert (row.se_irc_bits, row.wall_ms, row.iterations, row.error) == (
                None, None, None, message)
        assert all(row.error is None for row in rows[2:])

    @pytest.mark.parametrize("setting", [{}, RAGGED_CORR], ids=["iid", "ragged-corr"])
    def test_station_power_changes_no_row_at_a_fixed_susinr(self, setting):
        # Precoders live on the unit budget and P enters only as sigma2 / P,
        # which calibration holds fixed: a power of two scales sigma2 and P
        # exactly, so every row keeps its bits; other powers move sigma2 / P
        # by a rounding. Budgets of P / T moved the closed-form rows by up to
        # 75% at P = 0.25 and by a factor of about 1240 at P = 1e12.
        def rows(P, algorithms=harness.ALGORITHMS):
            cfg = ScenarioConfig(P=P, seeds=(0,), susinr_grid_db=(-4.0, 12.0, 40.0),
                                 algorithms=algorithms,
                                 optimizer=OptimizerConfig(max_iters=30), **setting)
            return run_scenario(cfg).rows

        unit = rows(1.0)
        assert not any(r.error for r in unit)
        for P in (0.25, 2.0, 1024.0):
            assert rows_without_wall_ms(RunReport(rows(P))) == \
                rows_without_wall_ms(RunReport(unit)), P
        closed_form = [r for r in unit if r.iterations == 0]
        for P in (10.0, 1e12):
            got = rows(P, harness.BASELINE_ALGOS)
            assert [r.algorithm for r in got] == [r.algorithm for r in closed_form]
            for a, b in zip(got, closed_form):
                assert a.se_irc_bits == pytest.approx(b.se_irc_bits, rel=1e-14, abs=0.0), \
                    (P, a)

    def test_station_power_changes_no_error_at_a_huge_noise(self):
        # At -3000 dB and P = 1e6, sigma2 * L overflowed while sigma2 / P * L
        # does not: six rows failed with ZeroPrecoderError where P = 1 names
        # an UndefinedSinrError.
        def rows(P):
            cfg = ScenarioConfig(P=P, seeds=(0,), susinr_grid_db=(-3000.0,),
                                 optimizer=OptimizerConfig(max_iters=5))
            return rows_without_wall_ms(run_scenario(cfg))

        assert rows(1e6) == rows(1.0)

    @pytest.mark.parametrize("setting", [
        {}, RAGGED_CORR, dict(dims=SystemDims.uniform(K=2, T=4, R=2, L=2)),
        dict(dims=SystemDims.uniform(K=1, T=8, R=2, L=2)),
    ], ids=["iid", "ragged-corr", "T=L", "K=1"])
    def test_each_edge_row_has_a_value_or_one_error_whatever_the_power(self, setting):
        # Both ends of the float range, and the window where sigma2 fits but
        # sigma2 / P overflows at P = 0.5: gain * 10^(-susinr_db / 10) is
        # about 2.5e308 there.
        base = ScenarioConfig(seeds=(0,), optimizer=OptimizerConfig(max_iters=5), **setting)
        channel = generate_channels(base.dims, 0, base.channel_model, base.rho)
        gain = noise_from_susinr(channel, 1.0, 0.0)
        window = round(-10 * (308 + math.log10(2.5) - math.log10(gain)), 3)
        grid = (-3000.0, -1650.0, -4.0, 40.0, 4000.0, window)

        def errors(P):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                rows = run_scenario(replace(base, P=P, susinr_grid_db=grid)).rows
            assert [str(w.message) for w in caught] == [], P
            for r in rows:
                if r.error is None:
                    assert math.isfinite(r.se_irc_bits) and r.se_irc_bits >= 0, (P, r)
                else:
                    assert r.se_irc_bits is None, (P, r)
            return [(r.susinr_db, r.algorithm, r.error and re.sub(r" at P=\S+", "", r.error))
                    for r in rows]

        unit = errors(1.0)
        for P in (0.5, 1e6):
            assert errors(P) == unit, P

    def test_programming_error_propagates(self, monkeypatch):
        def buggy(name, channel, params, opt_cfg):
            raise RuntimeError("synthetic bug")

        monkeypatch.setattr(harness, "run_algorithm", buggy)
        cfg = tiny_config(seeds=(0,), susinr_grid_db=(12.0,), algorithms=("ZF",))
        with pytest.raises(RuntimeError, match="synthetic bug"):
            run_scenario(cfg)


class TestNoNumpyWrapperOnTheCellPath:
    """A closed-form cell calls numpy's compiled routines, not the Python
    wrappers around them (np.linalg.svd, np.linalg.norm, np.stack, np.diag,
    np.full, ndarray.all, any, sum and max), from its drawn matrices on:
    factorization, calibration, the four baselines and their batched score.
    The draw itself is left out: numpy.random's compiled code calls numpy's
    own Python errstate and concatenate stubs. The errstate model._factors
    keeps around each group's SVD, so that non-convergence raises
    LinAlgError as in np.linalg.svd, is Python too; its frames are dropped."""

    @pytest.mark.parametrize("dims", [ScenarioConfig().dims, RAGGED_CORR["dims"]],
                             ids=["default", "ragged"])
    def test_factors_baselines_and_score(self, dims):
        cfg = ScenarioConfig(dims=dims)
        mats = [u.H for u in generate_channels(dims, 0).users]

        def closed_form_cell():
            channel = build_channel_set(mats, dims.L_k)
            params = harness._calibrated(cfg, channel, 12.0)
            built = [compute_baseline(channel, BaselineConfig(kind, params)) for kind in KINDS]
            return harness._score(built, channel, params)

        assert all(isinstance(se, float) for se in closed_form_cell())
        calls = numpy_python_calls(closed_form_cell)
        assert [c for c in calls if not c.startswith("_core/_ufunc_config.py:")] == []


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

