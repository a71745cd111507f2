"""Command-line interface: determinism, formats, exit codes."""
import contextlib
import io
import json
import math
import os
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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

    def test_stattnb_prints_no_negative_information(self, capsys):
        # at 226 km for 4 bases the QBER is just below 1/2, where the binary
        # information cancels to a rounding residue (-5.55e-17 unclamped)
        argv = ["curve", "stattnb", "--nb", "2:8", "--pd", "2.453e-05", "--eta-det", "0.1636",
                "--qber-opt", "0.0014", "--alpha", "0.2881", "--format", "json"]
        assert cli.main(argv) == 0
        records = json.loads(capsys.readouterr().out)
        assert min(min(record.values()) for record in records) >= 0.0

    def test_figiepr_huge_mu_prints_no_nan(self, capsys):
        assert cli.main(["curve", "figiepr", "--mu", "1e200", "--d", "0:10:5"]) == 0
        out = capsys.readouterr().out
        assert "nan" not in out
        rows = [line.split(",") for line in out.splitlines()[1:]]
        assert len(rows) == 3
        assert all(0.0 <= float(v) <= 1.0 for row in rows for v in row[2:])

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
        (["curve", "ieclon23", "--delta", "nan", "--gamma", "0.2:0.4:0.2"], 2),
        (["curve", "ieclon23", "--delta", "inf", "--gamma", "0.2:0.4:0.2"], 2),
        (["curve", "pns-bb84", "--d", "0:inf:1"], 2),
        (["curve", "pns-bb84", "--d", "0:1:inf"], 2),
        # grids above cli.MAX_GRID_POINTS
        (["curve", "pns-bb84", "--d", "0:1e6:1e-3"], 2),
        (["curve", "ieclon12", "--gamma", "0:1.5:1e-8"], 2),
        # n_b outside 2..8, negative attenuation
        (["curve", "stattnb", "--nb", "0"], 2),
        (["curve", "stattnb", "--nb", "1"], 2),
        (["curve", "ieclon23", "--delta", "-5"], 2),
        # the four-plus-two sums are closed forms, so a tiny eta is quick
        (["curve", "pns-42", "--eta", "1e-4", "--d", "0:2:1"], 0),
        (["curve", "pns-42", "--eta", "1e-170", "--d", "0:2:1"], 2),
        # distances below 0 km: no q > 1, negative I_Eve or overflow
        (["curve", "pns-bb84", "--d=-10:-8:1"], 2),
        (["curve", "pns-42", "--d=-10:-8:1"], 2),
        (["curve", "figiepr", "--d=-10:-8:1"], 2),
        (["curve", "pns-bb84", "--d=-20000:-19000:500"], 2),
        (["curve", "strongpulse", "--d=-1:2:1"], 2),
        # gamma outside the machines' [0, pi/2]
        (["curve", "clonfid", "--gamma=-1:0.5:0.5"], 2),
        (["curve", "clonfid", "--gamma=0:5:1"], 2),
        # 25 steps of pi/50 round one ulp past pi/2; the grid ends at its max
        (["curve", "clonfid", "--gamma", "0:1.5707963267948966:0.06283185307179587"], 0),
        (["curve", "ieclon12", "--gamma", "0:1.5707963267948966:0.06283185307179587"], 0),
        # above about 3,072 dB the strong reference pulse overflows a float
        (["curve", "strongpulse", "--d", "0:20000:10000"], 2),
        # argparse choices hold the only report id
        (["report", "nope"], 2),
        # distances below 0 km reach the attenuation check through d * alpha
        (["curve", "muopt", "--d=-4:4:4"], 2),
        (["curve", "stattnb", "--d=-4:4:4"], 2),
        # above about 3,240 dB the transmission underflows to 0; without
        # dark counts the QBER is still the optical error alone
        (["curve", "stattnb", "--pd", "0", "--nb", "2", "--d", "0:20000:10000"], 0),
        # finite bounds whose point count is inf as a float
        (["curve", "pns-bb84", "--d", "0:1e300:1e-10"], 2),
        (["curve", "pns-bb84", "--d=-1e308:1e308:1"], 2),
        (["curve", "ieclon12", "--gamma=0:1e300:1e-10"], 2),
        # non-finite model options are usage errors on every curve, also
        # where the curve does not read them
        (["curve", "pns-bb84", "--pd", "nan"], 2),
        (["curve", "pns-bb84", "--eta", "inf"], 2),
        (["curve", "muopt", "--eta-det", "nan"], 2),
        (["curve", "ieclon12", "--qber-opt", "nan"], 2),
        # finite values outside the model's ranges, likewise: eta_det in
        # (0, 1], p_d in [0, 1), qber_opt in [0, 0.5) and eta in (0, pi/2]
        (["curve", "pns-bb84", "--eta-det", "5", "--d", "0:1:1"], 2),
        (["curve", "pns-bb84", "--pd", "2", "--d", "0:1:1"], 2),
        (["curve", "pns-bb84", "--eta", "7", "--d", "0:1:1"], 2),
        (["curve", "figiepr", "--eta", "7", "--d", "0:1:1"], 2),
        (["curve", "muopt", "--qber-opt", "0.7", "--d", "4:8:4"], 2),
        (["curve", "dcrit", "--eta-det", "5", "--nb", "2"], 2),
        (["curve", "pns-42", "--eta-det", "1", "--pd", "0", "--qber-opt", "0",
          "--eta", "1.5707963267948966", "--d", "0:1:1"], 0),
        # an --out path that cannot be written: a missing folder, a folder
        (["curve", "pns-bb84", "--d", "0:2:1", "--out", "/nonexistent/pnsqkd.csv"], 2),
        (["report", "geneva-lausanne", "--out", "."], 2),
        # R = 1e-20 is far above what splitting delivers (R_split = 5e-41)
        (["curve", "ieclon23", "--mu", "1e-20", "--delta", "0"], 3),
    ])
    def test_domain_and_ladder_exit_codes(self, args, code):
        # in-process: an escaping exception (a traceback) fails the test
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = cli.main(args)
            except SystemExit as exc:  # argparse's own errors
                rc = exc.code
        assert rc == code
        if code == 2:
            assert "usage" in err.getvalue().lower()

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


# The emit formulas of the previous release, kept here as the oracle.
def _fmt_oracle(x):
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".12g")


def _emit_oracle(header, rows, fmt):
    if fmt == "csv":
        lines = [",".join(header)]
        for row in rows:
            lines.append(",".join(_fmt_oracle(x) if not isinstance(x, str) else x for x in row))
        return "\n".join(lines) + "\n"
    payload = [
        {h: (x if isinstance(x, str) else float(_fmt_oracle(x))) for h, x in zip(header, row)}
        for row in rows
    ]
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _emitted(header, rows, fmt):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        cli._emit(header, rows, types.SimpleNamespace(format=fmt, out=None))
    return buf.getvalue()


@given(st.floats() | st.integers())
@example(5e-324)
@example(0.0)
@example(-0.0)
@example(1e-4)
@example(9.99999999999e-05)
@example(1e12)
@example(999999999999.5)
@example(math.nan)
@example(math.inf)
@example(-math.inf)
def test_json_column_writes_each_number_as_json_dumps(x):
    # _json_literal parses every _fmt text back to a float; _json_column
    # keeps a fixed-notation text as it is
    assert cli._json_column([x]) == [cli._json_literal(x)]
    assert cli._json_literal(x) == json.dumps(float(cli._fmt(x)))


# One argument set per curve, shaped like the benchmark's invocations of it.
_BENCH_ARGS = {
    "pns-bb84": ["--d", "7.25:151.9:3.7", "--alpha", "0.2213", "--mu", "0.3417"],
    "pns-42": ["--d", "4.5:158.5:3.85", "--alpha", "0.2875", "--mu", "0.0731"],
    "figiepr": ["--d", "5.125:159:3.9", "--alpha", "0.1934", "--mu", "0.4422"],
    "muopt": ["--d", "12.5:140:18", "--alpha", "0.2561"],
    "ieclon12": ["--gamma", "0.0731:1.55:0.0625"],
    "ieclon23": ["--gamma", "0.115:1.52:0.125"],
    "dcrit": ["--nb", "2:8", "--pd", "3.162e-06", "--eta-det", "0.2173",
              "--qber-opt", "0.0192", "--alpha", "0.2419"],
    "stattnb": ["--nb", "2:8", "--pd", "8.4e-05", "--eta-det", "0.0612",
                "--qber-opt", "0.0027", "--alpha", "0.1855"],
    "clonfid": ["--gamma", "0.0:1.5:0.0375"],
    "strongpulse": ["--d", "6.75:159.1:3.9", "--alpha", "0.2744", "--mu", "0.1588"],
}


class TestEmit:
    @pytest.mark.parametrize("bench_args", [False, True], ids=["default", "bench"])
    @pytest.mark.parametrize("curve_id", cli.CURVE_IDS)
    def test_matches_the_previous_formulas(self, curve_id, bench_args):
        argv = ["curve", curve_id] + (_BENCH_ARGS[curve_id] if bench_args else [])
        args = cli.build_parser().parse_args(argv)
        header, rows = cli._CURVES[curve_id](args)
        assert rows
        for fmt in ("csv", "json"):
            assert _emitted(header, rows, fmt) == _emit_oracle(header, rows, fmt)

    def test_mixed_non_finite_and_empty(self):
        header = ["b", "a", "c"]
        rows = [[np.int64(3), "x,y", math.nan], [2.5, True, math.inf],
                [np.float32(0.1), "q\"", -math.inf], [10**13, 1.5e13, -0.0]]
        for fmt in ("csv", "json"):
            assert _emitted(header, rows, fmt) == _emit_oracle(header, rows, fmt)
            assert _emitted(header, [], fmt) == _emit_oracle(header, [], fmt)

    def test_parser_is_reused_without_state(self):
        default = ["curve", "pns-bb84"]
        other = ["curve", "pns-bb84", "--format", "json", "--mu", "0.3"]

        def out(argv):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                assert cli.main(argv) == 0
            return buf.getvalue()

        cli.build_parser.cache_clear()
        first = out(default)
        parser = cli.build_parser()
        assert out(other) != first
        assert out(default) == first
        assert cli.build_parser() is parser


# In-process CLI fuzz: odd option values on small grids.  Every call ends in
# exit 0, 2 or 3 (argparse's own errors as SystemExit(2)) and prints no NaN.
_FUZZ_VALUES = ["nan", "inf", "-inf", "0", "-0", "-1", "1e-300", "1e300", "1e308", "abc",
                "0.01", "0.1", "0.25", "2", "3", "8", "12"]
_FUZZ_OPTIONS = ["--mu", "--alpha", "--eta-det", "--pd", "--qber-opt", "--eta", "--nb",
                 "--delta"]
# at most 8 points, so that muopt stays quick
_FUZZ_DISTANCES = ["0:2:1", "0:140:20", "0:20000:10000", "1e300:1e301:5e300", "-4:4:4",
                   "nan:1:1", "0:inf:1", "1:0:1", "0:1:0", "abc", "0:1e300:1e-10"]
_FUZZ_GAMMAS = ["0.2:1.4:0.2", "0:1.5707963267948966:0.1", "1e-300:1e-299:1e-300",
                "-1:0.5:0.5", "1e300:1e301:5e300", "nan:1:1", "0:1e300:1e-10"]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.sampled_from(cli.CURVE_IDS),
       st.lists(st.tuples(st.sampled_from(_FUZZ_OPTIONS), st.sampled_from(_FUZZ_VALUES)),
                max_size=4),
       st.sampled_from(_FUZZ_DISTANCES),
       st.sampled_from(_FUZZ_GAMMAS),
       st.sampled_from(["csv", "json"]))
@example("stattnb", [("--pd", "0"), ("--nb", "2")], "0:20000:10000", "0.2:1.4:0.2", "csv")
def test_fuzzed_curve_exits_cleanly(curve_id, options, distances, gammas, fmt):
    argv = ["curve", curve_id, "--d", distances, "--gamma", gammas, "--format", fmt]
    argv += [f"{name}={value}" for name, value in options]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
            assert code == 2, argv
    assert code in (0, 2, 3), argv
    assert "nan" not in out.getvalue().lower(), argv
