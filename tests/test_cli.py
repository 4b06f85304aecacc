import importlib
import json
import math
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

from rabifloquet import cli, validation
from rabifloquet.cli import main, output_schema
from rabifloquet.floquet import DEFAULT_TRUNCATION


def run_cli(args, tmp_path=None):
    proc = subprocess.run(
        [sys.executable, "-m", "rabifloquet.cli", *args],
        capture_output=True, text=True,
    )
    return proc


class TestDynamics:
    def test_csv_shape_and_initial_row(self, tmp_path):
        out = tmp_path / "dyn.csv"
        rc = main(["dynamics", "--omega", "0.6", "--amp", "2", "--periods", "5",
                   "--samples", "40", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "t,p1_numeric,p1_chrw,p1_floquet"
        first = lines[1].split(",")
        assert len(first) == 4
        assert float(first[0]) == 0.0
        assert abs(float(first[1])) < 1e-12

    def test_gray_area_cells_empty_with_sidecar(self, tmp_path):
        out = tmp_path / "dyn.csv"
        rc = main(["dynamics", "--omega", "1", "--amp", "5", "--periods", "2",
                   "--samples", "10", "--out", str(out)])
        assert rc == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert all(row[2] == "" for row in rows)
        sidecar = tmp_path / "dyn.csv.warnings"
        assert sidecar.exists()
        assert "unavailable" in sidecar.read_text()

    def test_undriven_point_degrades_series_only(self, tmp_path):
        # A = 0: the xi condition is degenerate, so only the series column
        # is left empty; nothing is driven out of the ground state
        out = tmp_path / "dyn.csv"
        proc = run_cli(["dynamics", "--omega", "1.7", "--amp", "0", "--periods", "2",
                        "--samples", "30", "--out", str(out)])
        assert proc.returncode == 0, proc.stderr
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert len(rows) == 30
        assert all(row[2] == "" for row in rows)
        assert all(float(row[1]) == 0.0 and float(row[3]) == 0.0 for row in rows)
        assert "A = 0" in (tmp_path / "dyn.csv.warnings").read_text()

    def test_deterministic_output(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["dynamics", "--omega", "0.6", "--amp", "1.5", "--periods", "3",
                "--samples", "25"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_json_validates_against_schema(self, tmp_path):
        out = tmp_path / "dyn.json"
        rc = main(["dynamics", "--omega", "1", "--amp", "1", "--periods", "2",
                   "--samples", "12", "--format", "json", "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        jsonschema.validate(doc, output_schema())
        assert doc["meta"]["config"]["amp"] == 1.0
        assert len(doc["data"]["t"]) == 12


class TestConfigMerge:
    def test_flags_override_config_file(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"omega": 1.0, "amp": 1.0, "periods": 2, "samples": 9}))
        out = tmp_path / "o.json"
        rc = main(["dynamics", "--config", str(cfg), "--amp", "2",
                   "--format", "json", "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["meta"]["config"]["amp"] == 2.0
        assert doc["meta"]["config"]["omega"] == 1.0

    def test_unknown_config_key_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"omega": 1.0, "bogus": 3}))
        proc = run_cli(["dynamics", "--config", str(cfg), "--amp", "1", "--periods", "1"])
        assert proc.returncode == 2
        assert "bogus" in proc.stderr


class TestOtherSubcommands:
    def test_chrw_map_no_solution_cell(self, tmp_path):
        out = tmp_path / "map.csv"
        rc = main(["chrw-map", "--omega-range", "1:1:1", "--amp-range", "5:5:1",
                   "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "omega_over_omega0,A_over_omega0,count"
        assert lines[1].split(",") == ["1", "5", "0"]

    def test_spectrum_sources(self, tmp_path):
        out = tmp_path / "spec.csv"
        rc = main(["spectrum", "--omega", "0.6", "--amp-range", "1:1:1",
                   "--nmax", "1", "--out", str(out)])
        assert rc == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        sources = {row[3] for row in rows}
        assert sources == {"numeric", "gvv", "grwa", "chrw"}

    def test_routes_finite_at_coherent_destruction(self):
        # A/omega is the double nearest the first zero of J_0, where the
        # Bessel recurrence meets an exactly zero denominator
        amp = "2.404825557695773"
        proc = run_cli(["spectrum", "--omega", "1", "--amp-range", f"{amp}:{amp}:1"])
        assert proc.returncode == 0, proc.stderr
        rows = [line.split(",") for line in proc.stdout.splitlines()[1:]]
        assert {row[3] for row in rows} == {"numeric", "gvv", "grwa", "chrw"}
        assert all(math.isfinite(float(row[1])) for row in rows)
        proc = run_cli(["dynamics", "--omega", "1", "--amp", amp, "--periods", "0.5"])
        assert proc.returncode == 0, proc.stderr
        rows = [line.split(",") for line in proc.stdout.splitlines()[1:]]
        assert rows and all(math.isfinite(float(v)) for row in rows for v in row)

    def test_spectrum_through_pair_resonance(self, tmp_path):
        # at A = 0, omega = 1 the reduced pair itself is resonant
        # (J0 omega0 = omega); that is not a multiphoton resonance
        out = tmp_path / "spec.csv"
        proc = run_cli(["spectrum", "--omega", "1", "--amp-range", "0:0.5:0.5",
                        "--out", str(out)])
        assert proc.returncode == 0, proc.stderr
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert {row[0] for row in rows if row[3] == "gvv"} == {"0", "0.5"}
        assert {row[0] for row in rows if row[3] == "chrw"} == {"0.5"}
        # A = 0 has no xi condition; it is reported, not caught as an error
        proc = run_cli(["spectrum", "--omega", "1", "--amp-range", "0:0.5:0.5"])
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr.splitlines() == [
            "warning: A=0: analytic series unavailable: no drive (A = 0), "
            "the xi condition is degenerate"
        ]

    def test_spectrum_degrades_at_multiphoton_resonance(self):
        # at A = 0, omega = 1/3, J0 omega0 = 3 omega: the reduction has no
        # second order there, so that amplitude loses only its gvv and grwa rows
        proc = run_cli(["spectrum", "--omega", "0.3333333333333333", "--amp-range", "0:1:0.5"])
        assert proc.returncode == 0, proc.stderr
        rows = [line.split(",") for line in proc.stdout.splitlines()[1:]]
        assert {row[0] for row in rows if row[3] == "numeric"} == {"0", "0.5", "1"}
        assert {row[0] for row in rows if row[3] in ("gvv", "grwa")} == {"0.5", "1"}
        assert {row[0] for row in rows if row[3] == "chrw"} == {"0.5", "1"}
        assert any(line.startswith("warning: A=0: gvv unavailable: multiphoton resonance")
                   for line in proc.stderr.splitlines())

    def test_open_two_traces(self, tmp_path):
        out = tmp_path / "open.csv"
        rc = main(["open", "--omega", "1", "--amp", "10", "--gamma10", "1",
                   "--gamma11", "0.2", "--periods", "1", "--samples", "15",
                   "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "t,p1_lab_lindblad,p1_gvv_lindblad"
        assert len(lines) == 16

    def test_open_degrades_at_multiphoton_resonance(self, capsys):
        # at A = 0, omega = 1/3 the reduction has no second order; the lab
        # route is still valid, so only the reduced column is left empty
        rc = main(["open", "--omega", "0.3333333333333333", "--amp", "0", "--gamma10", "0.5",
                   "--gamma11", "0.1", "--periods", "0.5", "--samples", "9"])
        assert rc == 0
        captured = capsys.readouterr()
        lines = captured.out.splitlines()
        assert lines[0] == "t,p1_lab_lindblad,p1_gvv_lindblad"
        rows = [line.split(",") for line in lines[1:]]
        assert len(rows) == 9
        assert all(math.isfinite(float(row[1])) and row[2] == "" for row in rows)
        assert captured.err.startswith("warning: gvv unavailable: multiphoton resonance")


class TestValidate:
    def test_prints_each_line_with_wall_time_then_summary(self, monkeypatch, capsys):
        def passing():
            return validation.CheckResult(1, "stub pass", True, "ok")

        def failing():
            return validation.CheckResult(2, "stub fail", False, "off by 1")

        monkeypatch.setattr(validation, "ALL_CHECKS", [passing, failing])
        assert main(["validate"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 3
        assert lines[0].startswith(passing().line() + " [")
        assert lines[1].startswith(failing().line() + " [")
        assert all(line.endswith(" s]") for line in lines[:2])
        assert lines[2] == "1/2 checks passed"


class TestExitCodes:
    def test_missing_required_flag_is_usage_error(self):
        proc = run_cli(["dynamics", "--omega", "1"])
        assert proc.returncode == 2

    def test_bad_range_syntax_is_usage_error(self):
        proc = run_cli(["chrw-map", "--omega-range", "nonsense", "--amp-range", "1:2:1"])
        assert proc.returncode == 2

    def test_numerical_domain_failure_is_exit_one(self):
        proc = run_cli(["dynamics", "--omega", "-0.6", "--amp", "1", "--periods", "1"])
        assert proc.returncode == 1
        assert "error:" in proc.stderr

    def test_negative_comb_order_is_exit_one(self, capsys):
        assert main(["spectrum", "--omega", "0.6", "--amp-range", "1:2:1", "--nmax", "-1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: comb order n_max must be nonnegative")


    @pytest.mark.parametrize("subcommand, flag, value, message", [
        ("dynamics", "--samples", "-1", "need an integer >= 2, got '-1'"),
        ("dynamics", "--samples", "0", "need an integer >= 2, got '0'"),
        ("open", "--samples", "1", "need an integer >= 2, got '1'"),
        ("dynamics", "--periods", "-2", "need a finite number > 0, got '-2'"),
        ("open", "--periods", "0", "need a finite number > 0, got '0'"),
        ("dynamics", "--periods", "nan", "need a finite number > 0, got 'nan'"),
        ("dynamics", "--omega", "nan", "need a finite number, got 'nan'"),
        ("spectrum", "--omega", "inf", "need a finite number, got 'inf'"),
        ("open", "--amp", "-inf", "need a finite number, got '-inf'"),
        ("open", "--gamma11", "nan", "need a finite number, got 'nan'"),
        ("open", "--gamma00", "inf", "need a finite number, got 'inf'"),
    ])
    def test_bad_count_span_or_number_is_usage_error(self, capsys, subcommand, flag, value,
                                                     message):
        args = {"dynamics": ["--omega", "1", "--amp", "1", "--periods", "1"],
                "spectrum": ["--omega", "1", "--amp-range", "1:1:1"],
                "open": ["--omega", "1", "--amp", "1", "--gamma10", "0.5", "--gamma11", "0.1",
                         "--periods", "1"]}[subcommand]
        with pytest.raises(SystemExit) as exc:
            main([subcommand, *args, f"{flag}={value}"])
        assert exc.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1].endswith(f"argument {flag}: {message}")


def _write_config(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def _counting(fn):
    def counted(*args):
        counted.calls += 1
        return fn(*args)

    counted.calls = 0
    return counted


class TestConfigFile:
    # the same run given once by flags alone and once by a config file
    # alone; the file ranges are lists and strings, the flag ranges strings
    RUNS = {
        "dynamics": (["--omega", "0.6", "--amp", "2", "--periods", "0.5", "--samples", "7"],
                     {"omega": 0.6, "amp": 2, "periods": 0.5, "samples": 7}),
        "spectrum": (["--omega", "0.6", "--amp-range", "1:2:0.5", "--nmax", "1"],
                     {"omega": 0.6, "amp_range": [1, 2, 0.5], "nmax": 1}),
        "chrw-map": (["--omega-range", "0.5:1.5:0.5", "--amp-range", "0:2:1"],
                     {"omega_range": [0.5, 1.5, 0.5], "amp_range": "0:2:1"}),
        "open": (["--omega", "1", "--amp", "2", "--gamma10", "0.5", "--gamma11", "0.1",
                  "--periods", "0.1", "--samples", "5"],
                 {"omega": 1, "amp": 2, "gamma10": 0.5, "gamma11": 0.1,
                  "periods": 0.1, "samples": 5}),
    }

    @pytest.mark.parametrize("subcommand", sorted(RUNS))
    def test_file_alone_supplies_required_flags(self, tmp_path, subcommand):
        flags, cfg = self.RUNS[subcommand]
        by_flags, by_file = tmp_path / "flags.out", tmp_path / "file.out"
        assert main([subcommand, *flags, "--out", str(by_flags)]) == 0
        assert main([subcommand, "--config", _write_config(tmp_path, cfg),
                     "--out", str(by_file)]) == 0
        assert by_file.read_bytes() == by_flags.read_bytes()

    @pytest.mark.parametrize("subcommand, cfg, message", [
        ("dynamics", {"omega": 1, "amp": 1, "periods": 1, "samples": "x"},
         "argument --samples: invalid int value: 'x'"),
        ("spectrum", {"omega": 0.6, "amp_range": [0, 1]},
         "argument --amp-range: expected lo:hi:step, got '0:1'"),
        ("chrw-map", {"omega_range": "bad", "amp_range": "0:1:1"},
         "argument --omega-range: expected lo:hi:step, got 'bad'"),
        ("spectrum", {"omega": 0.6, "amp_range": [0, 1, 0]},
         "argument --amp-range: need finite hi >= lo and step > 0"),
        ("chrw-map", {"omega_range": "1:1:1", "amp_range": [0, float("inf"), 1]},
         "argument --amp-range: need finite hi >= lo and step > 0"),
        ("open", {"omega": 1, "amp": 1, "gamma10": 0.5},
         "the following arguments are required: --gamma11, --periods"),
        ("dynamics", {"omega": 1, "amp": 1, "periods": 1, "config": "other.json"},
         "unknown config keys: ['config']"),
    ])
    def test_bad_file_value_is_usage_error_naming_the_flag(self, tmp_path, capsys,
                                                          subcommand, cfg, message):
        with pytest.raises(SystemExit) as exc:
            main([subcommand, "--config", _write_config(tmp_path, cfg)])
        assert exc.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1].endswith(message)

    def test_null_means_unset(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = {"omega": 0.6, "amp": 2, "periods": 0.5, "samples": 4, "out": None,
               "truncation": None}
        assert main(["dynamics", "--config", _write_config(tmp_path, cfg)]) == 0
        assert capsys.readouterr().out.startswith("t,p1_numeric,p1_chrw,p1_floquet\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]

    def test_meta_config_echoes_defaults(self, tmp_path):
        out = tmp_path / "o.json"
        cfg = {"omega": 0.6, "amp": 2, "periods": 0.5, "format": "json"}
        assert main(["dynamics", "--config", _write_config(tmp_path, cfg),
                     "--out", str(out)]) == 0
        assert json.loads(out.read_text())["meta"]["config"] == {
            "subcommand": "dynamics", "omega": 0.6, "amp": 2.0, "periods": 0.5,
            "samples": 800, "truncation": DEFAULT_TRUNCATION,
        }

    def test_parser_built_once_and_outputs_match_fresh_runs(self, tmp_path, monkeypatch):
        # one process: a --config run, then a flag-only run of the same
        # subcommand, each byte-identical to the same run in a new process
        monkeypatch.setattr(cli, "build_parser", _counting(cli.build_parser))
        cli._parser.cache_clear()
        flags, cfg = self.RUNS["open"]
        runs = (["open", "--config", _write_config(tmp_path, cfg)], ["open", *flags])
        for k, argv in enumerate(runs):
            here, fresh = tmp_path / f"here{k}.csv", tmp_path / f"fresh{k}.csv"
            assert main([*argv, "--out", str(here)]) == 0
            assert run_cli([*argv, "--out", str(fresh)]).returncode == 0
            assert here.read_bytes() == fresh.read_bytes()
        assert cli.build_parser.calls == 1

    def test_console_script_reads_sys_argv(self, tmp_path, monkeypatch):
        # the [project.scripts] entry point calls main() with no argv
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        target = tomllib.loads(pyproject.read_text())["project"]["scripts"]["rabifloquet"]
        module, _, name = target.partition(":")
        script = getattr(importlib.import_module(module), name)
        flags, cfg = self.RUNS["dynamics"]
        by_flags, by_script = tmp_path / "flags.csv", tmp_path / "script.csv"
        assert main(["dynamics", *flags, "--out", str(by_flags)]) == 0
        monkeypatch.setattr(sys, "argv", ["rabifloquet", "--config", _write_config(tmp_path, cfg),
                                          "dynamics", "--out", str(by_script)])
        assert script() == 0
        assert by_script.read_bytes() == by_flags.read_bytes()
