"""Command-line interface: determinism, formats, exit codes."""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from pnsqkd import cli

SRC = str(Path(__file__).resolve().parents[1] / "src")


def run_cli(args, timeout=60):
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run([sys.executable, "-m", "pnsqkd.cli", *args],
                          capture_output=True, text=True, env=env, timeout=timeout)
    return proc


class TestCurves:
    def test_bb84_columns_and_critical_region(self):
        rc = cli.main(["curve", "pns-bb84", "--mu", "0.1", "--alpha", "0.25",
                       "--d", "0:120:1", "--out", "/tmp/pnsqkd_bb84.csv"])
        assert rc == 0
        lines = open("/tmp/pnsqkd_bb84.csv").read().splitlines()
        assert lines[0] == "distance_km,delta_db,q,i_eve"
        assert len(lines) == 122
        rows = [line.split(",") for line in lines[1:]]
        for row in rows:
            if float(row[0]) >= 53.0:
                assert float(row[3]) == 1.0

    def test_determinism_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            rc = cli.main(["curve", "dcrit", "--nb", "2:3", "--out", str(path)])
            assert rc == 0
        assert a.read_bytes() == b.read_bytes()

    def test_dcrit_columns(self, tmp_path):
        out = tmp_path / "d.csv"
        assert cli.main(["curve", "dcrit", "--nb", "2:2", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "n_b,mu,delta1_db,delta2_db,dist1_km,dist2_km"
        row = lines[1].split(",")
        assert row[0] == "2"
        assert float(row[1]) == pytest.approx(0.2)
        assert float(row[3]) < float(row[2])

    def test_json_format(self, tmp_path):
        out = tmp_path / "s.json"
        assert cli.main(["curve", "strongpulse", "--d", "0:40:20",
                         "--format", "json", "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert len(data) == 3
        assert set(data[0]) == {"distance_km", "delta_db", "mu_prime",
                                "intensity_ratio", "overlap", "p_e", "i_eve"}

    def test_ieclon12_columns(self, tmp_path):
        out = tmp_path / "c.csv"
        assert cli.main(["curve", "ieclon12", "--gamma", "0.2:1.4:0.2",
                         "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0].split(",") == ["gamma", "disturbance", "qber_sifted",
                                       "i_ab", "i_eve_ng", "i_eve_cerf",
                                       "i_eve_bb84_ref"]


class TestReport:
    def test_geneva_lausanne(self, capsys):
        rc = cli.main(["report", "geneva-lausanne"])
        assert rc == 0
        data = json.loads(capsys.readouterr().out)
        assert data["i_ab"] == pytest.approx(0.7136, abs=1e-3)
        assert data["secure_optical_attribution"] is True
        assert data["secure_full_error"] is True


class TestExitCodes:
    def test_bad_arguments_exit_2(self):
        proc = run_cli(["curve", "no-such-curve"])
        assert proc.returncode == 2
        assert "usage" in proc.stderr.lower()

    def test_bad_grid_exit_2(self):
        proc = run_cli(["curve", "pns-bb84", "--d", "10:0:1"])
        assert proc.returncode == 2
        assert "usage" in proc.stderr.lower()

    def test_infeasible_model_exit_3(self):
        proc = run_cli(["curve", "ieclon23", "--delta", "3.0"])
        assert proc.returncode == 3
        assert "error" in proc.stderr.lower()

    @pytest.mark.parametrize("args,code", [
        # without dark counts the ladders for 3..7 bases end at 127-395 dB
        (["curve", "dcrit", "--pd", "0", "--nb", "2:7"], 0),
        # for 8 bases it runs out of reachable rungs before meeting I_AB
        (["curve", "dcrit", "--pd", "0", "--nb", "8"], 3),
        (["curve", "dcrit", "--pd", "1e-300", "--nb", "8"], 3),
        (["curve", "dcrit", "--alpha", "0"], 2),
        (["curve", "pns-bb84", "--alpha", "-1"], 2),
        (["curve", "pns-bb84", "--mu", "nan", "--d", "0:2:1"], 2),
        (["curve", "pns-bb84", "--mu", "inf", "--d", "0:2:1"], 2),
        (["curve", "figiepr", "--mu", "0"], 2),
    ])
    def test_domain_and_ladder_exit_codes(self, args, code):
        proc = run_cli(args)
        assert proc.returncode == code
        assert "Traceback" not in proc.stderr
        if code == 2:
            assert "usage" in proc.stderr.lower()

    def test_validate_exit_0(self):
        proc = run_cli(["validate"])
        assert proc.returncode == 0
        data = json.loads(proc.stdout)
        assert data["all_pass"] is True
        assert len(data["checks"]) >= 15
        for check in data["checks"]:
            assert set(check) == {"name", "measured", "expected", "tolerance", "pass"}


class TestValidatorSensitivity:
    def test_perturbed_constant_is_caught(self, monkeypatch):
        # the anchor suite must flag a wrong discrimination probability
        from pnsqkd import validation

        import pnsqkd.discrimination as disc

        monkeypatch.setattr(disc, "usd_optimal_pok", lambda nb: 0.45)
        checks = {c["name"]: c for c in validation.run_checks()}
        assert not checks["usd_pok_2_bases"]["pass"]
