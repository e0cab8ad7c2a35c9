import json
import re
from pathlib import Path

import numpy as np
import pytest

import mimo_precoding.model as model
from mimo_precoding import (ScenarioConfig, SingularMatrixError, file_size, generate_channels,
                            read_channels, run_scenario)
from mimo_precoding.cli import main


def write_config(tmp_path, **extra):
    raw = {
        "dims": {"K": 2, "T": 8, "R_k": 2, "L_k": 1},
        "seeds": [0],
        "susinr_grid_db": [12.0],
        "algorithms": ["RZF"],
        "optimizer": {"max_iters": 10},
    }
    raw.update(extra)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    return path


class TestRun:
    def test_run_writes_csv_and_exits_zero(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = tmp_path / "report.csv"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "seed,susinr_db,algorithm,se_irc_bits,wall_ms,iterations"
        assert len(lines) == 2

    def test_flag_overrides(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "report.csv"
        code = main(["run", "--config", str(cfg), "--out", str(out),
                     "--seeds", "0,1", "--susinr", "0,12", "--algos", "RZF,ARZF",
                     "--iters", "5"])
        assert code == 0
        assert len(out.read_text().splitlines()) == 1 + 2 * 2 * 2

    def test_negative_susinr_list_takes_the_equals_form(self, tmp_path, capsys):
        # argparse reads "-4,0,4" after a space as an option, not as the
        # flag's value; README shows the --susinr=-4,0,4 form.
        cfg = write_config(tmp_path)
        out = tmp_path / "report.csv"
        assert main(["run", "--config", str(cfg), "--out", str(out), "--susinr=-4,0,4"]) == 0
        assert [row.split(",")[1] for row in out.read_text().splitlines()[1:]] == ["-4", "0", "4"]
        capsys.readouterr()
        assert main(["run", "--config", str(cfg), "--out", str(out), "--susinr", "-4,0,4"]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: argument --susinr: expected one argument"]

    def test_json_format(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "report.json"
        assert main(["run", "--config", str(cfg), "--out", str(out), "--format", "json"]) == 0
        doc = json.loads(out.read_text())
        assert doc["rows"][0]["algorithm"] == "RZF"

    def test_seed_range_syntax(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "report.csv"
        assert main(["run", "--config", str(cfg), "--out", str(out), "--seeds", "0-3"]) == 0
        assert len(out.read_text().splitlines()) == 1 + 4

    def test_reversed_seed_range_exits_one(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = tmp_path / "report.csv"
        assert main(["run", "--config", str(cfg), "--out", str(out), "--seeds", "0,5-2"]) == 1
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_config_file_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["run", "--config", str(bad), "--out", str(tmp_path / "r.csv")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_optimizer_start_in_config_exits_one(self, tmp_path, capsys):
        # The algorithm name picks the start; a start in the scenario would be ignored.
        cfg = write_config(tmp_path, algorithms=["QN-IRC-RZF"],
                           optimizer={"start": "custom", "start_matrix": [[0.0]] * 8})
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "r.csv")]) == 1
        assert "algorithm name" in capsys.readouterr().err
        assert not (tmp_path / "r.csv").exists()

    def test_non_integer_max_iters_in_config_exits_one(self, tmp_path, capsys):
        cfg = write_config(tmp_path, algorithms=["QN-IRC-RZF"], optimizer={"max_iters": 2.5})
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "r.csv")]) == 1
        assert "max_iters" in capsys.readouterr().err
        assert not (tmp_path / "r.csv").exists()

    def test_iters_flag_keeps_the_files_other_optimizer_keys(self, tmp_path):
        import mimo_precoding.cli as cli

        cfg = write_config(tmp_path, optimizer={"max_iters": 10, "tol_grad": 1e-3,
                                                "memory": 4})
        args = cli.build_parser().parse_args(["run", "--config", str(cfg), "--iters", "5"])
        opt = cli.load_scenario(args).optimizer
        assert (opt.max_iters, opt.tol_grad, opt.memory) == (5, 1e-3, 4)

    def test_flag_replaces_a_file_value_before_validation(self, tmp_path):
        # Flags are laid over the file and validated once, so a flag takes the
        # place of a file value that alone would be rejected.
        cfg = write_config(tmp_path, algorithms=["QN-IRC-RZF"], optimizer={"max_iters": 2.5})
        out = tmp_path / "r.csv"
        assert main(["run", "--config", str(cfg), "--out", str(out), "--iters", "5"]) == 0
        assert out.read_text().splitlines()[1].endswith(",5")

    @pytest.mark.parametrize("raw, message", [
        ([1, 2], "JSON object"),
        ({"optimizer": [5]}, "invalid config"),
    ])
    def test_flags_over_a_malformed_file_exit_one(self, tmp_path, capsys, raw, message):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(raw))
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "r.csv"),
                     "--seeds", "0", "--iters", "5"]) == 1
        assert message in capsys.readouterr().err

    def test_bad_flag_exits_one(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "r.csv"),
                     "--tol-grad", "0"]) == 1
        assert "tol_grad" in capsys.readouterr().err

    def test_unknown_algorithm_exits_one(self, tmp_path, capsys):
        cfg = write_config(tmp_path, algorithms=["WAT"])
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "r.csv")]) == 1

    def test_missing_subcommand_exits_one(self, capsys):
        assert main([]) == 1

    def test_unknown_subcommand_exits_one(self, capsys):
        assert main(["time"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_prints_mean_se_table_from_aggregates(self, tmp_path, capsys, monkeypatch):
        import mimo_precoding.cli as cli

        reports = []

        def recording(cfg):
            reports.append(run_scenario(cfg))
            return reports[-1]

        monkeypatch.setattr(cli, "run_scenario", recording)
        cfg = write_config(tmp_path)
        out = tmp_path / "report.csv"
        assert main(["run", "--config", str(cfg), "--out", str(out),
                     "--seeds", "0,1", "--susinr", "0,12", "--algos", "RZF,ARZF"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith(f"wrote {out}")
        header = lines[2].split()
        assert header == ["susinr", "RZF", "ARZF"]
        printed = {}
        for line in lines[3:]:
            susinr, *means = line.split()
            for algo, mean in zip(header[1:], means):
                printed[float(susinr), algo] = mean
        expected = {(a["susinr_db"], a["algorithm"]): f"{a['mean_se_irc_bits']:.3f}"
                    for a in reports[0].aggregates()}
        assert printed == expected

    @pytest.mark.parametrize("extra, argv", [({}, ["--susinr", "-4000"]),
                                             ({"P": 1e307, "susinr_grid_db": [0.0],
                                               "dims": {"K": 8, "T": 64}}, [])],
                             ids=["power-of-ten-overflows", "product-overflows"])
    def test_overflowing_noise_calibration_exits_two(self, tmp_path, capsys, extra, argv):
        cfg = write_config(tmp_path, algorithms=["ARZF", "QN-IRC-ARZF"], **extra)
        out = tmp_path / "report.csv"
        assert main(["run", "--config", str(cfg), "--out", str(out), *argv]) == 2
        assert "Traceback" not in capsys.readouterr().err
        rows = out.read_text().splitlines()[1:]
        assert [row.split(",", 3)[2:] for row in rows] == [["ARZF", ",,"],
                                                          ["QN-IRC-ARZF", ",,"]]

    def test_overflowing_noise_calibration_fails_a_trace(self, tmp_path, capsys):
        cfg = write_config(tmp_path, algorithms=["QN-IRC-ARZF"])
        assert main(["trace", "--config", str(cfg), "--out", str(tmp_path / "t.csv"),
                     "--susinr", "-4000"]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: noise power for -4000 dB SUSINR at P=1 overflows"]

    def test_cell_failures_exit_two(self, tmp_path, monkeypatch):
        import mimo_precoding.harness as harness

        def boom(name, channel, params, opt_cfg):
            raise SingularMatrixError("synthetic failure")

        monkeypatch.setattr(harness, "run_algorithm", boom)
        cfg = write_config(tmp_path)
        out = tmp_path / "report.csv"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2


def iters_flag(command):
    """--iters 2 for the commands that take it; generate takes no sweep flags."""
    return [] if command == "generate" else ["--iters", "2"]


@pytest.mark.parametrize("command,algo", [("run", "RZF"), ("trace", "QN-IRC-ARZF"),
                                          ("generate", "RZF")])
class TestUnwritableOutput:
    def test_missing_directory_exits_one_before_any_work(self, tmp_path, capsys,
                                                         monkeypatch, command, algo):
        import mimo_precoding.cli as cli
        import mimo_precoding.harness as harness

        def no_work(*args, **kwargs):
            raise AssertionError("ran before checking the output path")

        monkeypatch.setattr(cli, "run_scenario", no_work)
        monkeypatch.setattr(cli, "generate_channels", no_work)
        monkeypatch.setattr(harness, "generate_channels", no_work)
        cfg = write_config(tmp_path, algorithms=[algo])
        out = tmp_path / "missing" / "out.csv"
        assert main([command, "--config", str(cfg), "--out", str(out), *iters_flag(command)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
        assert str(out.parent) in err

    def test_directory_as_output_exits_one_before_any_work(self, tmp_path, capsys,
                                                           monkeypatch, command, algo):
        import mimo_precoding.cli as cli
        import mimo_precoding.harness as harness

        def no_work(*args, **kwargs):
            raise AssertionError("ran before checking the output path")

        for module, name in ((harness, "_run_cell"), (harness, "generate_channels"),
                             (cli, "generate_channels")):
            monkeypatch.setattr(module, name, no_work)
        cfg = write_config(tmp_path, algorithms=[algo])
        argv = [command, "--config", str(cfg), "--out", str(tmp_path), *iters_flag(command)]
        assert main(argv) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and str(tmp_path) in err[0]

    def test_directory_as_output_exits_one(self, tmp_path, capsys, command, algo):
        cfg = write_config(tmp_path, algorithms=[algo])
        argv = [command, "--config", str(cfg), "--out", str(tmp_path), *iters_flag(command)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err


class TestGenerate:
    def test_single_seed_file(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "ch.bin"
        assert main(["generate", "--config", str(cfg), "--out", str(out)]) == 0
        ch = read_channels(out)
        assert ch.dims.K == 2
        assert out.stat().st_size == file_size(ch.dims)

    def test_multiple_seeds_multiple_files(self, tmp_path):
        # Ragged dims make two user groups; each file reads back the factors
        # and groups that generate_channels builds, byte for byte.
        cfg = write_config(tmp_path, dims={"K": 3, "T": 8, "R_k": [2, 4, 2], "L_k": [1, 2, 1]},
                           channel_model="exp-correlated", rho=0.5)
        out = tmp_path / "ch.bin"
        assert main(["generate", "--config", str(cfg), "--out", str(out),
                     "--seeds", "0,1"]) == 0
        scenario = ScenarioConfig.from_dict(json.loads(cfg.read_text()))
        for seed in (0, 1):
            a = read_channels(tmp_path / f"ch_seed{seed}.bin")
            b = generate_channels(scenario.dims, seed, scenario.channel_model, scenario.rho)
            assert a.dims == b.dims and len(a.groups) == len(b.groups) == 2
            for ua, ub in zip(a.users, b.users, strict=True):
                for name in ("H", "U", "S", "V"):
                    assert getattr(ua, name).tobytes() == getattr(ub, name).tobytes(), name
            for name in ("S_tilde", "V_tilde"):
                assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name
            for ga, gb in zip(a.groups, b.groups):
                for name in ("users", "H", "cols", "own"):
                    assert getattr(ga, name).tobytes() == getattr(gb, name).tobytes(), name

    @pytest.mark.parametrize("flag", [["--susinr", "7,9"], ["--algos", "QN-CD-RZF"],
                                      ["--iters", "3"], ["--tol-grad", "1e-3"],
                                      ["--tol-change", "1e-4"]])
    def test_sweep_flags_rejected(self, tmp_path, capsys, flag):
        cfg = write_config(tmp_path)
        out = tmp_path / "ch.bin"
        assert main(["generate", "--config", str(cfg), "--out", str(out), *flag]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: unrecognized arguments: ")
        assert flag[0] in err[0]
        assert not out.exists()

    def test_rho_without_exp_correlated_exits_one(self, tmp_path, capsys):
        cfg = write_config(tmp_path, rho=0.7)
        assert main(["generate", "--config", str(cfg), "--out", str(tmp_path / "ch.bin")]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "rho applies only to the exp-correlated" in err[0]

    @pytest.mark.parametrize("out, bad", [("ch.bin", "ch_seed1.bin"), ("d", "d")])
    def test_directory_at_any_output_path_exits_one_before_writing(self, tmp_path, capsys,
                                                                   out, bad):
        cfg = write_config(tmp_path)
        (tmp_path / bad).mkdir()
        assert main(["generate", "--config", str(cfg), "--out", str(tmp_path / out),
                     "--seeds", "0,1"]) == 1
        assert f"cannot write {tmp_path / bad}: " in capsys.readouterr().err
        assert not list(tmp_path.glob("*_seed0*"))


class TestTrace:
    def test_trace_csv(self, tmp_path):
        cfg = write_config(tmp_path, algorithms=["QN-IRC-ARZF"])
        out = tmp_path / "trace.csv"
        assert main(["trace", "--config", str(cfg), "--out", str(out), "--iters", "5"]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "iteration,objective,grad_norm,step,se_irc_bits"
        assert len(lines) >= 2
        # Objective column is non-decreasing.
        values = [float(line.split(",")[1]) for line in lines[1:]]
        assert all(b >= a - 1e-9 for a, b in zip(values, values[1:]))

    def test_irc_trace_se_column_is_the_objective(self, tmp_path):
        cfg = write_config(tmp_path, algorithms=["QN-IRC-ARZF"])
        out = tmp_path / "trace.csv"
        assert main(["trace", "--config", str(cfg), "--out", str(out), "--iters", "5"]) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert len(rows) >= 2
        assert all(row[1] == row[4] for row in rows)

    def test_trace_needs_quasi_newton_algorithm(self, tmp_path, capsys):
        cfg = write_config(tmp_path, algorithms=["RZF"])
        assert main(["trace", "--config", str(cfg), "--out", str(tmp_path / "t.csv")]) == 1

    def test_trace_json(self, tmp_path):
        cfg = write_config(tmp_path, algorithms=["QN-CD-RZF"])
        out = tmp_path / "trace.json"
        assert main(["trace", "--config", str(cfg), "--out", str(out), "--iters", "5"]) == 0
        doc = json.loads(out.read_text())
        assert doc["algorithm"] == "QN-CD-RZF"
        assert doc["records"][0]["iteration"] == 0



GOLDEN = Path(__file__).parent / "golden"


def without_wall_ms(path) -> bytes:
    """The bytes of a run or trace artifact with each wall_ms value blanked."""
    data = path.read_bytes()
    if path.suffix == ".json":
        return re.sub(rb'"wall_ms": [^,\n]+', b'"wall_ms": -', data)
    if data.startswith(b"seed,"):  # a run report: wall_ms is the fifth column
        return b"".join(b",".join(line.split(b",")[:4] + line.split(b",")[5:]) + b"\n"
                        for line in data.splitlines())
    return data


class TestGoldenArtifacts:
    """run and trace write the same bytes as the files under tests/golden,
    wall_ms aside. The SUSINR point has more digits than the 6 the rows keep,
    while the trace header and the report's aggregates keep it unrounded."""

    CONFIG = {"dims": {"K": 3, "T": 8, "R_k": [2, 2, 3], "L_k": [1, 2, 2]},
              "seeds": [0, 1], "susinr_grid_db": [12.3456789, -4.0],
              "optimizer": {"max_iters": 6}}

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("command, algos, name", [
        ("run", None, "run"),
        ("trace", "QN-IRC-ARZF", "trace-qn-irc-arzf"),
        ("trace", "QN-CD-RZF", "trace-qn-cd-rzf"),
    ])
    def test_bytes_match(self, tmp_path, capsys, command, algos, name, fmt):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(self.CONFIG))
        out = tmp_path / f"{name}.{fmt}"
        argv = [command, "--config", str(cfg), "--out", str(out)]
        assert main(argv + (["--algos", algos] if algos else [])) == 0
        assert without_wall_ms(out) == without_wall_ms(GOLDEN / out.name)

    def test_rows_do_not_depend_on_the_svd_orientation(self, monkeypatch):
        # Every quasi-Newton start lies strictly inside the per-antenna budget,
        # so factors that differ in their last bits cannot send a start row
        # down the projection's tangent branch, which moves a 6-iteration row
        # by up to 13%.
        cfg = ScenarioConfig.from_dict(self.CONFIG)
        library = run_scenario(cfg).rows
        svd, calls = model._svd, []

        def other_orientation(a, signature):
            """The reduced SVD of a, read from that of its conjugate transpose."""
            calls.append(a.shape)
            u, s, vh = svd(a.conj().swapaxes(-1, -2), signature=signature)
            return vh.conj().swapaxes(-1, -2), s, u.conj().swapaxes(-1, -2)

        monkeypatch.setattr(model, "_svd", other_orientation)
        other = run_scenario(cfg).rows
        assert calls
        assert len(other) == len(library) == 32
        for a, b in zip(library, other):
            assert (b.seed, b.susinr_db, b.algorithm, b.iterations) == (
                a.seed, a.susinr_db, a.algorithm, a.iterations)
            assert b.se_irc_bits == pytest.approx(a.se_irc_bits, rel=1e-9, abs=0.0), (
                a.seed, a.susinr_db, a.algorithm)
