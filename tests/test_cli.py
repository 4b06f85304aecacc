import json
import math
import subprocess
import sys

import jsonschema
import pytest

from rabifloquet import validation
from rabifloquet.cli import main, output_schema


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
