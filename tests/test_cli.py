import json

import pytest

from mimo_precoding import SingularMatrixError, file_size, read_channels, run_scenario
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

    def test_cell_failures_exit_two(self, tmp_path, monkeypatch):
        import mimo_precoding.harness as harness

        def boom(name, channel, params, opt_cfg):
            raise SingularMatrixError("synthetic failure")

        monkeypatch.setattr(harness, "run_algorithm", boom)
        cfg = write_config(tmp_path)
        out = tmp_path / "report.csv"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2


@pytest.mark.parametrize("command,algo", [("run", "RZF"), ("trace", "QN-IRC-ARZF")])
class TestUnwritableOutput:
    def test_missing_directory_exits_one_before_any_work(self, tmp_path, capsys,
                                                         monkeypatch, command, algo):
        import mimo_precoding.cli as cli

        def no_work(*args, **kwargs):
            raise AssertionError("ran before checking the output path")

        monkeypatch.setattr(cli, "run_scenario", no_work)
        monkeypatch.setattr(cli, "generate_channels", no_work)
        cfg = write_config(tmp_path, algorithms=[algo])
        out = tmp_path / "missing" / "out.csv"
        assert main([command, "--config", str(cfg), "--out", str(out), "--iters", "2"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
        assert str(out.parent) in err

    def test_directory_as_output_exits_one(self, tmp_path, capsys, command, algo):
        cfg = write_config(tmp_path, algorithms=[algo])
        assert main([command, "--config", str(cfg), "--out", str(tmp_path), "--iters", "2"]) == 1
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
        cfg = write_config(tmp_path)
        out = tmp_path / "ch.bin"
        assert main(["generate", "--config", str(cfg), "--out", str(out),
                     "--seeds", "0,1"]) == 0
        assert (tmp_path / "ch_seed0.bin").exists()
        assert (tmp_path / "ch_seed1.bin").exists()


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

