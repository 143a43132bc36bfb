import json
import math
import subprocess
import sys

import pytest

from phasespin.cli import RunConfig, main, run


def read(path):
    return path.read_bytes()


class TestRunApi:
    def test_free_dirac_at_rest(self):
        report = run(RunConfig(command="free-dirac", params={"p": 0.0}))
        assert report.passed
        summary = report.tables["summary"][0]
        assert summary["current"] == 0.0
        # weight entirely on the rest-energy (n = 1) components
        assert all(row["n"] == 1 for row in report.tables["wigner_terms"])

    def test_step_report(self):
        report = run(RunConfig(command="step", params={"e": 1.0, "v0": 0.5}))
        assert report.passed
        row = report.tables["report"][0]
        assert row["transmission"] + row["reflection"] == pytest.approx(1.0, abs=1e-14)

    def test_unknown_command(self):
        with pytest.raises(ValueError):
            run(RunConfig(command="nope"))

    def test_bad_format(self):
        with pytest.raises(ValueError):
            RunConfig(command="step", format="xml")


class TestCliProcess:
    def test_klein_scan_csv_columns_and_identity(self, tmp_path):
        out = tmp_path / "scan.csv"
        code = main(["klein-scan", "--e", "2", "--mass", "1", "--c", "1",
                     "--v0", "3.01:20:0.5", "--output", str(out)])
        assert code == 0
        header, *rows = out.read_text().strip().splitlines()
        cols = header.split(",")
        for name in ("v0", "n_trans", "n_ref", "transmission", "reflection",
                     "r_minus_t", "t_signed"):
            assert name in cols
        idx = cols.index("r_minus_t")
        for row in rows:
            assert abs(float(row.split(",")[idx]) - 1.0) < 1e-12

    def test_step_csv_profile(self, tmp_path):
        out = tmp_path / "step.csv"
        code = main(["step", "--e", "1", "--v0", "0.5", "--mass", "1",
                     "--output", str(out), "--n-profile", "17"])
        assert code == 0
        assert out.exists()
        assert (tmp_path / "step_report.csv").exists()
        assert (tmp_path / "step_identities.csv").exists()
        header = out.read_text().splitlines()[0].split(",")
        assert {"x", "rho", "j", "side"} <= set(header)

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for target in (a, b):
            code = main(["klein-scan", "--v0", "3.5:8:0.5", "--seed", "3",
                         "--format", "json", "--output", str(target)])
            assert code == 0
        assert read(a) == read(b)

    def test_verify_single_criterion(self, tmp_path):
        out = tmp_path / "verify.csv"
        code = main(["verify", "--criteria", "klein-paradox", "--output", str(out)])
        assert code == 0
        text = out.read_text()
        assert "r-minus-t" in text.replace("_", "-") or "klein" in text

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "command": "free-nonrel",
            "params": {"p": 2.0, "spin": "down"},
            "format": "json",
        }))
        out = tmp_path / "out.json"
        code = main(["--config", str(cfg), "free-nonrel", "--output", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["passed"] is True
        assert doc["tables"]["summary"][0]["spin"] == "down"
        assert float(doc["tables"]["summary"][0]["p"]) == 2.0

    def test_bad_v0_range_exits_nonzero(self):
        assert main(["klein-scan", "--v0", "5:1:-2"]) == 2

    @pytest.mark.parametrize("energy,v0", [("2", "2"), ("0.5", "5")])
    def test_unsupported_dirac_step_exits_2(self, energy, v0, capsys):
        # the evanescent window and E <= Mc^2 are typed errors, not failed checks
        assert main(["step", "--mode", "dirac", "--e", energy, "--v0", v0]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_entry_point_runs(self):
        proc = subprocess.run(
            [sys.executable, "-m", "phasespin.cli", "free-dirac", "--p", "0.5"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert "current-matches-closed-form" in proc.stdout

    def test_evolve_summary(self, tmp_path):
        out = tmp_path / "evolve.csv"
        code = main(["evolve", "--n", "64", "--t-end", "0.3", "--frames", "3",
                     "--p0", "1.0", "--output", str(out)])
        assert code == 0
        header = out.read_text().splitlines()[0].split(",")
        assert {"t", "norm", "centroid_x", "centroid_p"} <= set(header)
