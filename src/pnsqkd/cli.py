"""Command-line interface: curve sweeps, case-study reports and self checks.

Output is deterministic: the same invocation produces byte-identical CSV or
JSON (floats at 12 significant digits, '.' decimal separator, ',' field
separator, '\\n' line endings).  Exit codes: 0 success, 1 failed self check,
2 bad arguments, 3 infeasible model.
"""
from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys
from json.encoder import encode_basestring_ascii

import numpy as np

from . import attacks, cloning, keyrate, validation
from .attacks import InfeasibleModelError
from .photonics import SourceChannelModel, nonnegative_finite, positive_finite

CURVE_IDS = ("pns-bb84", "pns-42", "figiepr", "muopt", "ieclon12", "ieclon23",
             "dcrit", "stattnb", "clonfid", "strongpulse")
# Cloning sweeps evaluate a whole grid as one stack, about 3 kB per point
# for ieclon23 (tracemalloc peak of its curve builder over 1,000 points), so
# grids are capped at about 30 MB of working memory.  Every default grid has
# at most a few hundred points.
MAX_GRID_POINTS = 10_000


def _fmt(x):
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".12g")


def _spec(kind):
    """The %-format that writes a value of this type as ``_fmt`` does."""
    if issubclass(kind, str):
        return "%s"
    if issubclass(kind, (int, np.integer)):
        return "%d"
    return "%.12g"


@functools.cache
def _row_template(kinds):
    """CSV template of a row whose values have these types."""
    return ",".join(map(_spec, kinds))


_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_literal(x):
    """A value as ``json.dumps`` writes it: strings as JSON strings, numbers
    as the float of their ``_fmt`` text."""
    if isinstance(x, str):
        return encode_basestring_ascii(x)
    text = repr(float(_fmt(x)))
    return _JSON_NONFINITE.get(text, text)


def _json_column(column):
    """``_json_literal`` of every value, by one %-format when the column is
    all numbers of one format.  A ``%.12g`` text in fixed notation (a '.'
    and no 'e') is a normal float of at most 12 significant digits, so it
    already is its float's repr; only other texts are parsed back."""
    specs = set(map(_spec, set(map(type, column))))
    if len(specs) != 1 or "%s" in specs:
        return list(map(_json_literal, column))
    texts = map(specs.pop().__mod__, column)
    texts = [t if "." in t and "e" not in t else repr(float(t)) for t in texts]
    return list(map(_JSON_NONFINITE.get, texts, texts))


def _json_records(header, rows):
    """The text of ``json.dumps`` with indent=2 and sorted keys, for the
    list of records {header: float(_fmt(value))}, strings kept."""
    if not rows:
        return "[]"
    index = {h: i for i, h in enumerate(header)}
    keys = sorted(index)
    columns = list(zip(*rows))
    literals = [_json_column(columns[index[k]]) for k in keys]
    record = "  {\n" + ",\n".join(f"    {encode_basestring_ascii(k)}: %s" for k in keys) + "\n  }"
    return "[\n" + ",\n".join(map(record.__mod__, zip(*literals))) + "\n]"


def _number(check, name):
    """argparse type: a number that passes the library's ``check(value, name)``;
    the check's ValueError becomes a usage error."""
    def parse(text):
        try:
            return check(float(text), name)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return parse


def _model_option(field):
    """argparse type: a value of the ``SourceChannelModel`` field ``field``,
    checked by the model itself, so that every curve rejects it whether or
    not it builds a model."""
    def check(value, name):
        SourceChannelModel(**{name: value})
        return value
    return _number(check, field)


def _check_grid_size(last):
    """Reject a grid whose last index (a float or inf) reaches MAX_GRID_POINTS."""
    if not last < MAX_GRID_POINTS:
        raise ValueError(f"more than the limit of {MAX_GRID_POINTS} grid points requested")


def _parse_grid(text, default):
    """The min:max:step grid, or default() when the option is absent."""
    if text is None:
        return default()
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError("grid must be min:max:step")
    lo, hi, step = (float(p) for p in parts)
    if not all(map(math.isfinite, (lo, hi, step))):
        raise ValueError("grid min, max and step must be finite")
    if not (lo < hi and step > 0):
        raise ValueError("grid must satisfy min < max and step > 0")
    last = (hi - lo) / step + 1e-9
    # checked before int(), which raises on an infinite quotient
    _check_grid_size(last)
    grid = [lo + k * step for k in range(int(last) + 1)]
    # the last point can round past max, for example one ulp above pi/2
    grid[-1] = min(grid[-1], hi)
    return grid


def _parse_int_range(text, default):
    if text is None:
        return default()
    parts = text.split(":")
    if len(parts) == 1:
        return [int(parts[0])]
    if len(parts) == 2:
        lo, hi = int(parts[0]), int(parts[1])
        if lo > hi:
            raise ValueError("range must satisfy min <= max")
        _check_grid_size(hi - lo)
        return list(range(lo, hi + 1))
    raise ValueError("range must be n or min:max")


def _model_from_args(args):
    return SourceChannelModel(alpha=args.alpha, eta_det=args.eta_det,
                              p_d=args.pd, qber_opt=args.qber_opt)


# --- curve builders: each returns (header, rows) -----------------------------

def _bb84_row(args, mu, delta):
    pt = attacks.bb84_pns(mu, delta)
    return [pt.q_passed, pt.i_eve]


def _fourtwo_row(args, mu, delta):
    pt = attacks.fourtwo_pns(args.eta if args.eta is not None else math.pi / 3, delta, mu)
    return [pt.q_passed, pt.i_eve]


def _figiepr_row(args, mu, delta):
    i_block = attacks.fourstate_irud_pns(mu, delta).i_eve
    return i_block, attacks.fourstate_combined_info(mu, delta)[0]


def _strongpulse_row(args, mu, delta):
    pulse = attacks.StrongPulseModel(mu, delta)
    return [pulse.mu_prime, pulse.intensity_ratio, *pulse.b92()]


# Curves over the --d grid: columns after distance_km and delta_db, default
# --mu (muopt finds its own), default km and row function (args, mu, delta).
_DISTANCE_CURVES = {
    "pns-bb84": (["q", "i_eve"], 0.1, range(0, 121), _bb84_row),
    "pns-42": (["q", "i_eve"], 0.1, range(0, 121), _fourtwo_row),
    "figiepr": (["i_eve_block_lt3", "i_eve_combined"], 0.2, range(0, 121), _figiepr_row),
    "muopt": (["mu_opt", "key_rate"], None, range(4, 161, 4),
              lambda args, mu, delta: keyrate.optimal_mu(delta)),
    "strongpulse": (["mu_prime", "intensity_ratio", "overlap", "p_e", "i_eve"], 0.025,
                    range(0, 241, 2), _strongpulse_row),
}


def _curve_distance(columns, default_mu, default_km, row, args):
    mu = args.mu if args.mu is not None else default_mu
    rows = []
    for d in _parse_grid(args.d, lambda: [float(k) for k in default_km]):
        delta = d * args.alpha
        rows.append([d, delta, *row(args, mu, delta)])
    return ["distance_km", "delta_db", *columns], rows


def _cloning_gammas():
    return list(np.linspace(1e-4, math.pi / 2, 200))


def _curve_ieclon12(args):
    grid = _parse_grid(args.gamma, _cloning_gammas)
    header = ["gamma", "disturbance", "qber_sifted", "i_ab", "i_eve_ng", "i_eve_cerf",
              "i_eve_bb84_ref"]
    ng = cloning.sifted_points(cloning.make_ng12(grid))
    fidelity, ref = cloning.cerf12_fidelity_for_disturbance(ng)
    cf = cloning.sifted_points(cloning.make_cerf12(fidelity))
    columns = (grid, ng["disturbance"], ng["qber_sifted"], ng["i_ab"], ng["i_eve"],
               cf["i_eve"], ref)
    return header, [list(row) for row in zip(*columns)]


def _curve_ieclon23(args):
    grid = _parse_grid(args.gamma, _cloning_gammas)
    mu = args.mu if args.mu is not None else 0.2
    delta = args.delta if args.delta is not None else 12.0
    header = ["gamma", "disturbance", "qber_sifted", "i_ab", "i_eve_ngs", "i_eve_cerf"]
    ngs = cloning.pns_cloning_attack(cloning.make_ngs23, mu, delta, grid)
    cf = cloning.sifted_points(cloning.make_cerf23(cloning.cerf23_x_for_disturbance(ngs)))
    columns = (grid, ngs["disturbance"], ngs["qber_sifted"], ngs["i_ab"], ngs["i_eve"],
               cf["i_eve"])
    return header, [list(row) for row in zip(*columns)]


def _curve_dcrit(args):
    nbs = _parse_int_range(args.nb, lambda: list(range(2, 9)))
    header = ["n_b", "mu", "delta1_db", "delta2_db", "dist1_km", "dist2_km"]
    model = _model_from_args(args)
    rows = []
    for nb in nbs:
        s = keyrate.nb_security_summary(nb, model)
        rows.append([nb, s.mu, s.delta1_db, s.delta2_db,
                     s.delta1_db / args.alpha, s.delta2_db / args.alpha])
    return header, rows


def _curve_stattnb(args):
    nbs = _parse_int_range(args.nb, lambda: list(range(2, 6)))
    dists = _parse_grid(args.d, lambda: [float(k) for k in range(10, 241, 2)])
    header = ["n_b", "distance_km", "delta_db", "i_ab", "i_eve"]
    model = _model_from_args(args)
    rows = []
    for nb in nbs:
        mu = attacks.nb_mu(nb)
        ladder = attacks.nb_storing_ladder(nb, model)
        for d in dists:
            delta = d * args.alpha
            i_eve = attacks.nb_storing_info_at(ladder, delta)
            rows.append([nb, d, delta, attacks.honest_information(model, mu, delta), i_eve])
    return header, rows


def _curve_clonfid(args):
    grid = _parse_grid(args.gamma, lambda: list(np.linspace(0.0, math.pi / 2, 100)))
    header = ["machine", "parameter", "f_clone_pair", "f_clone_third"]
    rows = [["ng23", g, *cloning.ng23_fidelities(g)] for g in grid]
    rows += [["cerf23", x, *cloning.cerf23_fidelities(x)]
             for x in np.linspace(0.0, cloning.CERF23_X_MAX, 100)]
    return header, rows


_CURVES = {
    **{curve_id: functools.partial(_curve_distance, *spec)
       for curve_id, spec in _DISTANCE_CURVES.items()},
    "ieclon12": _curve_ieclon12,
    "ieclon23": _curve_ieclon23,
    "dcrit": _curve_dcrit,
    "stattnb": _curve_stattnb,
    "clonfid": _curve_clonfid,
}


def _write(text, out):
    """Write the text to the file ``out`` (ValueError if it cannot), or to stdout."""
    if out:
        try:
            with open(out, "w", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            raise ValueError(f"cannot write {out}: {exc.strerror}") from None
    else:
        sys.stdout.write(text)


def _emit(header, rows, args):
    """Write the rows as CSV, one %-format per row, or as JSON records."""
    if args.format == "csv":
        lines = [",".join(header)]
        lines += [_row_template(tuple(map(type, row))) % tuple(row) for row in rows]
        text = "\n".join(lines) + "\n"
    else:
        text = _json_records(header, rows) + "\n"
    _write(text, args.out)


def _cmd_curve(args):
    header, rows = _CURVES[args.curve_id](args)
    _emit(header, rows, args)
    return 0


def _cmd_report(args):
    gl = keyrate.geneva_lausanne_report(alpha=args.alpha)
    payload = {k: v if isinstance(v, bool) else float(_fmt(v))
               for k, v in dataclasses.asdict(gl).items()}
    _write(json.dumps(payload, indent=2, sort_keys=True) + "\n", args.out)
    return 0


def _cmd_validate(args):
    result = validation.summary()
    sys.stdout.write(json.dumps(result, indent=2, sort_keys=True) + "\n")
    return 0 if result["all_pass"] else 1


@functools.cache
def build_parser():
    """The argparse parser, built once per process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="pnsqkd",
        description="Security curves for weak- and strong-pulse QKD under "
                    "photon-number-splitting and cloning attacks.")
    sub = parser.add_subparsers(dest="command", required=True)

    curve = sub.add_parser("curve", help="emit a security curve as CSV or JSON")
    curve.add_argument("curve_id", choices=CURVE_IDS)
    curve.add_argument("--mu", type=_number(positive_finite, "mu"), default=None,
                       help="mean photon number (default depends on the curve)")
    curve.add_argument("--alpha", type=_number(positive_finite, "alpha"), default=0.25,
                       help="fiber loss, dB/km")
    curve.add_argument("--eta-det", dest="eta_det",
                       type=_model_option("eta_det"), default=0.1)
    curve.add_argument("--pd", type=_model_option("p_d"), default=1e-5,
                       help="dark-count probability")
    curve.add_argument("--qber-opt", dest="qber_opt",
                       type=_model_option("qber_opt"), default=0.01)
    curve.add_argument("--eta", type=_number(attacks.fourtwo_half_angle, "eta"), default=None,
                       help="state half-angle for the four-plus-two curve")
    curve.add_argument("--nb", type=str, default=None, help="bases count or range min:max")
    curve.add_argument("--gamma", type=str, default=None,
                       help="machine parameter grid min:max:step")
    curve.add_argument("--d", type=str, default=None, help="distance grid min:max:step, km")
    curve.add_argument("--delta", type=_number(nonnegative_finite, "delta"), default=None,
                       help="channel attenuation in dB where one is required")
    curve.add_argument("--out", type=str, default=None, help="output path (default stdout)")
    curve.add_argument("--format", choices=("csv", "json"), default="csv")
    curve.set_defaults(func=_cmd_curve)

    report = sub.add_parser("report", help="emit a case-study record")
    report.add_argument("report_id", choices=("geneva-lausanne",))
    report.add_argument("--alpha", type=_number(positive_finite, "alpha"), default=0.25)
    report.add_argument("--out", type=str, default=None)
    report.set_defaults(func=_cmd_report)

    validate = sub.add_parser("validate", help="run the anchor self-check suite")
    validate.set_defaults(func=_cmd_validate)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InfeasibleModelError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
