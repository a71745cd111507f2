"""Command-line interface: determinism, formats, exit codes."""
import ast
import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pnsqkd import attacks, cli, cloners, cloning, photonics

ROOT = Path(__file__).resolve().parents[1]
SRC = str(ROOT / "src")
CASES = ROOT / "tests" / "cli_cases.txt"


def run_cli(args, timeout=60):
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run([sys.executable, "-m", "pnsqkd.cli", *args],
                          capture_output=True, text=True, env=env, timeout=timeout)
    return proc


def _cli_cases():
    """(argv, exit code) of every case of cli_cases.txt, in file order."""
    cases = []
    for line in CASES.read_text().splitlines():
        if line.strip() and not line.startswith("#"):
            code, *args = line.split()
            cases.append((args, int(code)))
    return cases


class TestCurves:
    def test_bb84_columns_and_critical_region(self, tmp_path):
        out = tmp_path / "bb84.csv"
        rc = cli.main(["curve", "pns-bb84", "--mu", "0.1", "--alpha", "0.25",
                       "--d", "0:120:1", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
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

    def test_geneva_lausanne_prints_the_sorted_report_keys(self, capsys):
        assert cli.main(["report", "geneva-lausanne"]) == 0
        out = capsys.readouterr().out
        keys = re.findall(r'^  "(\w+)": ', out, flags=re.MULTILINE)
        assert keys == ["delta_db", "distance_km", "i_ab", "i_eve_cloning_full",
                        "i_eve_cloning_optical", "i_eve_pns", "mu", "qber",
                        "secure_full_error", "secure_optical_attribution"]


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

    @pytest.mark.parametrize("args,code", _cli_cases())
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
        if code == 3:
            assert "error" in err.getvalue().lower()
        if code == 0 and (args[0] in ("report", "validate") or "--format json" in " ".join(args)):
            json.loads(out.getvalue())

    def test_the_ci_step_and_the_table_test_read_the_case_file(self):
        # an argv list kept in the workflow or in this file would drift
        # from cli_cases.txt; the workflow names no curve or report id
        workflow = (ROOT / ".github" / "workflows" / "tier1.yml").read_text()
        assert "tests/cli_cases.txt" in workflow
        assert [i for i in (*cli.CURVE_IDS, "geneva-lausanne") if i in workflow] == []
        assert not re.search(r"[\"'][0-9]+ (curve|report|validate)\b", workflow)
        tree = ast.parse(Path(__file__).read_text())
        table_test = next(node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)
                          and node.name == "test_domain_and_ladder_exit_codes")
        for decorator in table_test.decorator_list:
            assert not any(isinstance(a, (ast.List, ast.Tuple, ast.ListComp))
                           for a in decorator.args)

    @pytest.mark.parametrize("curve_id,option", [
        (curve_id, option) for curve_id, (_, reads) in cli._CURVES.items()
        for option in sorted({o for _, other in cli._CURVES.values() for o in other})
        if option not in reads])
    def test_an_option_the_curve_does_not_read_exits_2(self, curve_id, option):
        # a value that the curves reading the option accept
        value = {"--mu": "0.5", "--alpha": "0.2", "--eta-det": "0.5", "--pd": "0",
                 "--qber-opt": "0", "--eta": "1", "--nb": "2", "--gamma": "0.2:0.4:0.2",
                 "--d": "0:1:1", "--delta": "14"}[option]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                pytest.raises(SystemExit) as exc:
            cli.main(["curve", curve_id, option, value])
        assert exc.value.code == 2
        assert option in err.getvalue()
        assert out.getvalue() == ""

    @pytest.mark.parametrize("args", [
        ["curve", "muopt", "--mu", "0.5"],  # an option muopt does not read
        ["curve", "muopt", "--d=-4:4:4"],  # a library ValueError
    ])
    def test_usage_error_prints_the_usage_of_the_curve(self, args):
        # the root usage would list no option of the command
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            try:
                rc = cli.main(args)
            except SystemExit as exc:
                rc = exc.code
        assert rc == 2
        assert err.getvalue().startswith("usage: pnsqkd curve muopt")
        assert "--alpha" in err.getvalue()

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
    # _json_column parses every %-format text back to a float but a
    # fixed-notation one, which it keeps as it is
    assert cli._json_column(cli._spec(type(x)), [x]) == [json.dumps(float(_fmt_oracle(x)))]


_FLOATS = st.floats() | st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf])
_FLOAT_SCALARS = st.one_of(_FLOATS, _FLOATS.map(np.float64), st.floats(width=32).map(np.float32))
_INT_SCALARS = st.one_of(st.integers(), st.booleans(),
                         st.integers(-2**63, 2**63 - 1).map(np.int64))
# a few values, each repeated, all of one %-format: floats only or ints only
_POOLS = st.one_of(*(st.lists(values, min_size=1, max_size=5) for values in
                     (_FLOAT_SCALARS, _INT_SCALARS)))


@given(_POOLS.flatmap(lambda pool: st.lists(st.sampled_from(pool), min_size=1, max_size=40)))
@example([0.0, 0.0, -0.0, -0.0])
@example([-0.0, -0.0, 0.0, 0.0])
@example([False, 0, np.int64(0), 0])
@example([math.nan, math.nan, float("nan"), 1.5, 1.5, 1.5])
@example([np.float64(0.1), 0.1, 0.1, np.float32(0.5), 0.5, 0.5])
def test_json_column_of_repeated_values_writes_each_literal(column):
    # a column with at most half its values distinct is formatted per
    # distinct value; 0.0 and -0.0 are one dict key but print differently
    spec = cli._spec(type(column[0]))
    assert cli._json_column(spec, column) == [json.dumps(float(_fmt_oracle(x))) for x in column]


def test_default_grids_are_numpys_linspace():
    def hexes(values):
        return [float.hex(v) for v in values]

    gammas = np.linspace(1e-4, math.pi / 2, 200).tolist()
    for curve_id in ("ieclon12", "ieclon23"):
        args = cli.build_parser().parse_args(["curve", curve_id])
        assert hexes(args.gamma) == hexes(gammas)
    args = cli.build_parser().parse_args(["curve", "clonfid"])
    assert hexes(args.gamma) == hexes(np.linspace(0.0, math.pi / 2, 100).tolist())
    xs = [x for machine, x, *_ in cli._curve_clonfid(args)[1] if machine == "cerf23"]
    assert hexes(xs) == hexes(np.linspace(0.0, cloners.CERF23_X_MAX, 100).tolist())


def test_pns42_computes_its_moments_once_per_curve(monkeypatch):
    calls = []
    moments = attacks.fourtwo_moments
    monkeypatch.setattr(attacks, "fourtwo_moments",
                        lambda *args: calls.append(args) or moments(*args))
    for argv in (["curve", "pns-42"], ["curve", "pns-42", *_BENCH_ARGS["pns-42"]]):
        calls.clear()
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv) == 0
        assert len(calls) == 1


@pytest.mark.parametrize("curve_id", ["pns-bb84", "figiepr"])
def test_distance_curves_compute_their_poisson_moments_once(curve_id, monkeypatch):
    # the CLI computes them, and the attack functions would if not handed them
    calls = []
    moments = photonics.poisson_moments

    def counted(*args):
        calls.append(args)
        return moments(*args)
    monkeypatch.setattr(cli, "poisson_moments", counted)
    monkeypatch.setattr(attacks, "poisson_moments", counted)
    for argv in (["curve", curve_id], ["curve", curve_id, *_BENCH_ARGS[curve_id]]):
        calls.clear()
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv) == 0
        assert len(calls) == 1


def test_ieclon12_builds_no_cloning_machine(monkeypatch):
    # the curve is the closed form of ng12_sifted_rows: no isometry and no QR
    def unused(*args, **kwargs):
        raise AssertionError("the closed form needs no machine")
    for name in ("make_ng12", "make_cerf12", "sifted_points"):
        monkeypatch.setattr(cloning, name, unused)
    for argv in (["curve", "ieclon12"], ["curve", "ieclon12", *_BENCH_ARGS["ieclon12"]]):
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv) == 0


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
        header, rows = cli._CURVES[curve_id][0](args)
        assert rows
        # exactly int, float or str: no NumPy scalar and no bool reaches _emit
        assert {type(v) for row in rows for v in row} <= {int, float, str}
        for fmt in ("csv", "json"):
            assert _emitted(header, rows, fmt) == _emit_oracle(header, rows, fmt)

    def test_mixed_non_finite_and_empty(self):
        # each column one %-format, of Python and NumPy scalars alike
        header = ["b", "a", "c", "d"]
        rows = [[np.int64(3), "x,y", math.nan, np.float32(0.1)],
                [10**13, "q\"", math.inf, 2.5],
                [True, "", -math.inf, 1.5e13],
                [2, "z", -0.0, np.float64(0.5)]]
        for fmt in ("csv", "json"):
            assert _emitted(header, rows, fmt) == _emit_oracle(header, rows, fmt)
            assert _emitted(header, [], fmt) == _emit_oracle(header, [], fmt)

    @pytest.mark.parametrize("column", [[1, 2.5], [0.5, np.int64(1)], ["x", 1.0], [True, "y"]])
    def test_a_column_of_two_formats_raises_type_error(self, column):
        rows = [[k, value] for k, value in enumerate(column)]
        for fmt in ("csv", "json"):
            with pytest.raises(TypeError, match="column mixed"):
                _emitted(["n", "mixed"], rows, fmt)

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
# at most 8 points, so that muopt stays quick
_FUZZ_GRIDS = {
    "--d": ["0:2:1", "0:140:20", "0:20000:10000", "1e300:1e301:5e300", "-4:4:4",
            "nan:1:1", "0:inf:1", "1:0:1", "0:1:0", "abc", "0:1e300:1e-10"],
    "--gamma": ["0.2:1.4:0.2", "0:1.5707963267948966:0.1", "1e-300:1e-299:1e-300",
                "-1:0.5:0.5", "1e300:1e301:5e300", "nan:1:1", "0:1e300:1e-10"],
}


def _fuzz_argv(curve_id):
    """Strategy: the argv of this curve with each grid it reads drawn from
    _FUZZ_GRIDS and up to four of its other options at _FUZZ_VALUES."""
    reads = cli._CURVES[curve_id][1]
    grids = [st.sampled_from(_FUZZ_GRIDS[o]).map(f"{o}={{}}".format)
             for o in reads if o in _FUZZ_GRIDS]
    others = [o for o in reads if o not in _FUZZ_GRIDS]
    options = st.just([])
    if others:
        option = st.tuples(st.sampled_from(others), st.sampled_from(_FUZZ_VALUES))
        options = st.lists(option.map("=".join), max_size=4)
    return st.tuples(st.tuples(*grids), options).map(
        lambda parts: ["curve", curve_id, *parts[0], *parts[1]])


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.sampled_from(cli.CURVE_IDS).flatmap(_fuzz_argv), st.sampled_from(["csv", "json"]))
@example(["curve", "stattnb", "--d=0:20000:10000", "--pd=0", "--nb=2"], "csv")
def test_fuzzed_curve_exits_cleanly(argv, fmt):
    argv = [*argv, "--format", fmt]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
            assert code == 2, argv
    assert code in (0, 2, 3), argv
    assert "nan" not in out.getvalue().lower(), argv
