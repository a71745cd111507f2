"""Command-line interface: curve sweeps, case-study reports and self checks.

Output is deterministic: the same invocation produces byte-identical CSV or
JSON (floats at 12 significant digits, '.' decimal separator, ',' field
separator, '\\n' line endings).  Exit codes: 0 success, 1 failed self check,
2 bad arguments, 3 infeasible model.
"""
from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import numbers
import sys
from json.encoder import encode_basestring_ascii

# cloning and validation load NumPy: ieclon23, report and validate import
# them when they run, so that the other commands start without NumPy
from . import attacks, cloners, keyrate
from .attacks import InfeasibleModelError
from .photonics import SourceChannelModel, nonnegative_finite, poisson_moments, positive_finite

# Cloning sweeps evaluate a whole grid as one stack, about 3 kB per point
# for ieclon23 (tracemalloc peak of its curve builder over 1,000 points), so
# grids are capped at about 30 MB of working memory.  Every default grid has
# at most a few hundred points.
MAX_GRID_POINTS = 10_000


def _spec(kind):
    """The %-format of a value of this type: strings as they are, integers
    (bools and NumPy integers too) in full, other numbers at 12 significant
    digits."""
    if issubclass(kind, str):
        return "%s"
    if issubclass(kind, numbers.Integral):
        return "%d"
    return "%.12g"


_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_numbers(spec, values):
    """The texts ``json.dumps`` writes for the floats of the numbers' texts
    in the %-format ``spec``.  A ``%.12g`` text in fixed notation (a '.' and
    no 'e') is a normal float of at most 12 significant digits, so it
    already is its float's repr; only other texts are parsed back."""
    texts = map(spec.__mod__, values)
    texts = [t if "." in t and "e" not in t else repr(float(t)) for t in texts]
    return list(map(_JSON_NONFINITE.get, texts, texts))


def _json_column(spec, column):
    """The JSON text of every value of a column in the %-format ``spec``:
    strings as JSON strings, numbers as the float of their text, once per
    distinct value where at most half the values are distinct.  Equal
    numbers print alike, except 0.0 and -0.0, so a column holding a zero
    is not merged."""
    if spec == "%s":
        return list(map(encode_basestring_ascii, column))
    distinct = set(column)
    if 2 * len(distinct) > len(column) or 0 in distinct:
        return _json_numbers(spec, column)
    literals = dict(zip(distinct, _json_numbers(spec, distinct)))
    return list(map(literals.__getitem__, column))


def _json_records(header, columns, specs):
    """The text of ``json.dumps`` with indent=2 and sorted keys, for the
    list of records {header: float(spec text of value)}, strings kept."""
    if not columns:
        return "[]"
    index = {h: i for i, h in enumerate(header)}
    keys = sorted(index)
    literals = [_json_column(specs[index[k]], columns[index[k]]) for k in keys]
    record = "  {\n" + ",\n".join(f"    {encode_basestring_ascii(k)}: %s" for k in keys) + "\n  }"
    return "[\n" + ",\n".join(map(record.__mod__, zip(*literals))) + "\n]"


def _checked(parse):
    """argparse type: ``parse(text)``, whose ValueError becomes a usage error."""
    def typed(text):
        try:
            return parse(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return typed


def _number(check, name):
    """argparse type: a number that passes the library's ``check(value, name)``."""
    return _checked(lambda text: check(float(text), name))


def _check_grid_size(last):
    """Reject a grid whose last index (a float or inf) reaches MAX_GRID_POINTS."""
    if not last < MAX_GRID_POINTS:
        raise ValueError(f"more than the limit of {MAX_GRID_POINTS} grid points requested")


def _parse_grid(text, default=None):
    """The min:max:step grid.  ``default`` is not read (an absent option takes
    its curve's default from _CURVES); perfbench's tests pass it."""
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


def _parse_int_range(text):
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

def _curve_distance(args, columns, row):
    """A curve over the --d grid: distance_km, delta_db and row(delta)."""
    rows = []
    for d in args.d:
        delta = d * args.alpha
        rows.append([d, delta, *row(delta)])
    return ["distance_km", "delta_db", *columns], rows


def _curve_bb84(args):
    moments = poisson_moments(args.mu)  # once per curve
    return _curve_distance(args, ["q", "i_eve"],
                           lambda delta: attacks.bb84_pns(args.mu, delta, moments))


def _curve_figiepr(args):
    moments = poisson_moments(args.mu)  # once per curve

    def row(delta):
        return (attacks.fourstate_irud_pns(args.mu, delta, moments).i_eve,
                attacks.fourstate_combined_info(args.mu, delta, moments)[0])
    return _curve_distance(args, ["i_eve_block_lt3", "i_eve_combined"], row)


def _curve_pns42(args):
    moments = attacks.fourtwo_moments(args.eta, args.mu)  # once per curve
    return _curve_distance(args, ["q", "i_eve"],
                           lambda delta: attacks.fourtwo_pns(args.eta, delta, args.mu, moments))


def _curve_muopt(args):
    return _curve_distance(args, ["mu_opt", "key_rate"], keyrate.optimal_mu)


def _curve_strongpulse(args):
    return _curve_distance(args, ["mu_prime", "intensity_ratio", "overlap", "p_e", "i_eve"],
                           lambda delta: attacks.strongpulse_b92(args.mu, delta))


def _curve_ieclon12(args):
    header = ["gamma", "disturbance", "qber_sifted", "i_ab", "i_eve_ng", "i_eve_cerf",
              "i_eve_bb84_ref"]
    # the two machines' informations are one number (clause 07b)
    points = cloners.ng12_sifted_rows(args.gamma)
    rows = [(g, d, q, i_ab, i_eve, i_eve, ref)
            for g, (d, q, i_ab, i_eve, ref) in zip(args.gamma, points)]
    return header, rows


def _curve_ieclon23(args):
    from . import cloning

    header = ["gamma", "disturbance", "qber_sifted", "i_ab", "i_eve_ngs", "i_eve_cerf"]
    ngs = cloning.pns_cloning_attack(cloning.make_ngs23, args.mu, args.delta, args.gamma)
    cf = cloning.sifted_points(cloning.make_cerf23(cloning.cerf23_x_for_disturbance(ngs)))
    columns = (args.gamma, ngs["disturbance"].tolist(), ngs["qber_sifted"].tolist(),
               ngs["i_ab"].tolist(), ngs["i_eve"].tolist(), cf["i_eve"].tolist())
    return header, [list(row) for row in zip(*columns)]


def _curve_dcrit(args):
    header = ["n_b", "mu", "delta1_db", "delta2_db", "dist1_km", "dist2_km"]
    model = _model_from_args(args)
    rows = []
    for nb in args.nb:
        s = keyrate.nb_security_summary(nb, model)
        rows.append([nb, s.mu, s.delta1_db, s.delta2_db,
                     s.delta1_db / args.alpha, s.delta2_db / args.alpha])
    return header, rows


def _curve_stattnb(args):
    header = ["n_b", "distance_km", "delta_db", "i_ab", "i_eve"]
    model = _model_from_args(args)
    deltas = [d * args.alpha for d in args.d]
    rows = []
    for nb in args.nb:
        i_ab, i_eve = attacks.nb_storing_columns(nb, model, deltas)
        rows += zip(itertools.repeat(nb), args.d, deltas, i_ab, i_eve)
    return header, rows


def _curve_clonfid(args):
    header = ["machine", "parameter", "f_clone_pair", "f_clone_third"]
    rows = [["ng23", g, *cloners.ng23_fidelities(g)] for g in args.gamma]
    rows += [["cerf23", x, *cloners.cerf23_fidelities(x)]
             for x in _linspace(0.0, cloners.CERF23_X_MAX, 100)]
    return header, rows


# argparse keywords of each curve option.  --eta-det, --pd and --qber-opt
# are checked by the SourceChannelModel that dcrit and stattnb build.
_OPTIONS = {
    "--mu": dict(type=_number(positive_finite, "mu"), help="mean photon number"),
    "--alpha": dict(type=_number(positive_finite, "alpha"), help="fiber loss, dB/km"),
    "--eta-det": dict(type=float, help="detector efficiency"),
    "--pd": dict(type=float, help="dark-count probability"),
    "--qber-opt": dict(type=float, help="optical error rate"),
    "--eta": dict(type=_number(attacks.fourtwo_half_angle, "eta"),
                  help="state half-angle for the four-plus-two curve"),
    "--nb": dict(type=_checked(_parse_int_range), help="bases count or range min:max"),
    "--gamma": dict(type=_checked(_parse_grid), help="machine parameter grid min:max:step"),
    "--d": dict(type=_checked(_parse_grid), help="distance grid min:max:step, km"),
    "--delta": dict(type=_number(nonnegative_finite, "delta"),
                    help="channel attenuation in dB where one is required"),
}


def _km(lo, hi, step):
    return tuple(float(k) for k in range(lo, hi + 1, step))


def _linspace(lo, hi, n):
    """n evenly spaced points lo + k (hi - lo)/(n - 1), the last one hi."""
    step = (hi - lo) / (n - 1)
    return [lo + k * step for k in range(n - 1)] + [hi]


_GAMMAS = tuple(_linspace(1e-4, math.pi / 2, 200))
# Each curve: its builder (args -> (header, rows)) and the options that
# builder reads, with this curve's defaults (grids as tuples, since every
# parse shares them).  A curve accepts no other option but --out and --format.
_CURVES = {
    "pns-bb84": (_curve_bb84, {"--mu": 0.1, "--alpha": 0.25, "--d": _km(0, 120, 1)}),
    "pns-42": (_curve_pns42,
               {"--mu": 0.1, "--eta": math.pi / 3, "--alpha": 0.25, "--d": _km(0, 120, 1)}),
    "figiepr": (_curve_figiepr, {"--mu": 0.2, "--alpha": 0.25, "--d": _km(0, 120, 1)}),
    "muopt": (_curve_muopt, {"--alpha": 0.25, "--d": _km(4, 160, 4)}),
    "ieclon12": (_curve_ieclon12, {"--gamma": _GAMMAS}),
    "ieclon23": (_curve_ieclon23, {"--gamma": _GAMMAS, "--mu": 0.2, "--delta": 12.0}),
    "dcrit": (_curve_dcrit, {"--nb": tuple(range(2, 9)), "--alpha": 0.25, "--eta-det": 0.1,
                             "--pd": 1e-5, "--qber-opt": 0.01}),
    "stattnb": (_curve_stattnb, {"--nb": tuple(range(2, 6)), "--d": _km(10, 240, 2),
                                 "--alpha": 0.25, "--eta-det": 0.1, "--pd": 1e-5,
                                 "--qber-opt": 0.01}),
    "clonfid": (_curve_clonfid, {"--gamma": tuple(_linspace(0.0, math.pi / 2, 100))}),
    "strongpulse": (_curve_strongpulse, {"--mu": 0.025, "--alpha": 0.25, "--d": _km(0, 240, 2)}),
}
CURVE_IDS = tuple(_CURVES)


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
    """Write the rows as CSV or as JSON records, every value in the one
    %-format of its column (TypeError for a column that needs two)."""
    columns = list(zip(*rows))
    specs = []
    for name, column in zip(header, columns):
        formats = set(map(_spec, set(map(type, column))))
        if len(formats) > 1:
            raise TypeError(f"column {name} mixes the formats {sorted(formats)}")
        specs.append(formats.pop())
    if args.format == "csv":
        template = ",".join(specs)
        lines = [",".join(header)]
        lines += [template % tuple(row) for row in rows]
        text = "\n".join(lines) + "\n"
    else:
        text = _json_records(header, columns, specs) + "\n"
    _write(text, args.out)


def _cmd_curve(args):
    header, rows = _CURVES[args.curve_id][0](args)
    _emit(header, rows, args)
    return 0


def _cmd_report(args):
    from . import cloning

    gl = cloning.geneva_lausanne_report(alpha=args.alpha)
    payload = {k: v if isinstance(v, bool) else float(_spec(type(v)) % v)
               for k, v in gl._asdict().items()}
    _write(json.dumps(payload, indent=2, sort_keys=True) + "\n", args.out)
    return 0


def _cmd_validate(args):
    from . import validation

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
    curve.set_defaults(func=_cmd_curve)
    curves = curve.add_subparsers(dest="curve_id", required=True)
    for curve_id in CURVE_IDS:
        # without abbreviations, --d cannot stand for --delta
        options = curves.add_parser(curve_id, allow_abbrev=False)
        options.set_defaults(parser=options)
        for flag, default in _CURVES[curve_id][1].items():
            options.add_argument(flag, default=default, **_OPTIONS[flag])
        options.add_argument("--out", type=str, default=None,
                             help="output path (default stdout)")
        options.add_argument("--format", choices=("csv", "json"), default="csv")

    report = sub.add_parser("report", help="emit a case-study record", allow_abbrev=False)
    report.add_argument("report_id", choices=("geneva-lausanne",))
    report.add_argument("--alpha", type=_number(positive_finite, "alpha"), default=0.25)
    report.add_argument("--out", type=str, default=None)
    report.set_defaults(func=_cmd_report, parser=report)

    validate = sub.add_parser("validate", help="run the anchor self-check suite")
    validate.set_defaults(func=_cmd_validate, parser=validate)
    return parser


def main(argv=None):
    args, extra = build_parser().parse_known_args(argv)
    # errors print the usage of the command's own parser, which lists its options
    if extra:
        args.parser.error(f"unrecognized arguments: {' '.join(extra)}")
    try:
        return args.func(args)
    except InfeasibleModelError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, KeyError) as exc:  # worded as argparse's own errors
        args.parser.print_usage(sys.stderr)
        print(f"{args.parser.prog}: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
