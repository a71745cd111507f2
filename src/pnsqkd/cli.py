"""Command-line interface: curve sweeps, case-study reports and self checks.

Output is deterministic: the same invocation produces byte-identical CSV or
JSON (floats at 12 significant digits, '.' decimal separator, ',' field
separator, '\\n' line endings).  Exit codes: 0 success, 1 failed self check,
2 bad arguments, 3 infeasible model.
"""
from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import attacks, cloning, keyrate, photonics, qmath, validation
from .attacks import InfeasibleModelError
from .photonics import SourceChannelModel

CURVE_IDS = ("pns-bb84", "pns-42", "figiepr", "muopt", "ieclon12", "ieclon23",
             "dcrit", "stattnb", "clonfid", "strongpulse")


def _fmt(x):
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".12g")


def positive_finite(text):
    """argparse type: a finite number greater than zero."""
    value = float(text)
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"must be finite and > 0, got {text!r}")
    return value


def _parse_grid(text, default):
    if text is None:
        return default
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError("grid must be min:max:step")
    lo, hi, step = (float(p) for p in parts)
    if not (lo < hi and step > 0):
        raise ValueError("grid must satisfy min < max and step > 0")
    n = int(math.floor((hi - lo) / step + 1e-9)) + 1
    return [lo + k * step for k in range(n)]


def _parse_int_range(text, default):
    if text is None:
        return default
    parts = text.split(":")
    if len(parts) == 1:
        return [int(parts[0])]
    if len(parts) == 2:
        lo, hi = int(parts[0]), int(parts[1])
        if lo > hi:
            raise ValueError("range must satisfy min <= max")
        return list(range(lo, hi + 1))
    raise ValueError("range must be n or min:max")


def _model_from_args(args, mu):
    return SourceChannelModel(mu=mu, alpha=args.alpha, eta_det=args.eta_det,
                              p_d=args.pd, qber_opt=args.qber_opt)


# --- curve builders: each returns (header, rows) -----------------------------

def _curve_pns_bb84(args):
    mu = args.mu if args.mu is not None else 0.1
    dists = _parse_grid(args.d, [float(k) for k in range(0, 121)])
    header = ["distance_km", "delta_db", "q", "i_eve"]
    rows = []
    for d in dists:
        pt = attacks.bb84_pns(mu, d * args.alpha)
        rows.append([d, d * args.alpha, pt.q_passed, pt.i_eve])
    return header, rows


def _curve_pns_42(args):
    mu_ref = args.mu if args.mu is not None else 0.1
    eta = args.eta if args.eta is not None else math.pi / 3
    dists = _parse_grid(args.d, [float(k) for k in range(0, 121)])
    header = ["distance_km", "delta_db", "q", "i_eve"]
    rows = []
    for d in dists:
        pt = attacks.fourtwo_pns(eta, d * args.alpha, mu_ref)
        rows.append([d, d * args.alpha, pt.q_passed, pt.i_eve])
    return header, rows


def _curve_figiepr(args):
    mu = args.mu if args.mu is not None else 0.2
    dists = _parse_grid(args.d, [float(k) for k in range(0, 121)])
    header = ["distance_km", "delta_db", "i_eve_block_lt3", "i_eve_combined"]
    rows = []
    for d in dists:
        delta = d * args.alpha
        i_block = attacks.fourstate_irud_pns(mu, delta).i_eve
        i_comb, _, _ = attacks.fourstate_combined_info(mu, delta)
        rows.append([d, delta, i_block, i_comb])
    return header, rows


def _curve_muopt(args):
    dists = _parse_grid(args.d, [float(k) for k in range(4, 161, 4)])
    header = ["distance_km", "delta_db", "mu_opt", "key_rate"]
    rows = []
    for d in dists:
        delta = d * args.alpha
        mu, rate = keyrate.optimal_mu(delta)
        rows.append([d, delta, mu, rate])
    return header, rows


def _curve_ieclon12(args):
    grid = _parse_grid(args.gamma, list(np.linspace(1e-4, math.pi / 2, 200)))
    header = ["gamma", "disturbance", "qber_sifted", "i_ab", "i_eve_ng", "i_eve_cerf",
              "i_eve_bb84_ref"]
    rows = []
    for g in grid:
        ng = cloning.sifted_point(cloning.make_ng12(g))
        disturbance = min(0.5, max(0.0, ng["disturbance"]))
        cf = cloning.sifted_point(cloning.make_cerf12(1.0 - disturbance))
        rows.append([g, ng["disturbance"], ng["qber_sifted"], ng["i_ab"],
                     ng["i_eve"], cf["i_eve"],
                     cloning.bb84_reference_information(disturbance)])
    return header, rows


def _curve_ieclon23(args):
    grid = _parse_grid(args.gamma, list(np.linspace(1e-4, math.pi / 2, 200)))
    mu = args.mu if args.mu is not None else 0.2
    delta = args.delta if args.delta is not None else 12.0
    header = ["gamma", "disturbance", "qber_sifted", "i_ab", "i_eve_ngs", "i_eve_cerf"]
    ngs_rows = cloning.pns_cloning_attack(cloning.make_ngs23, mu, delta, grid)
    rows = []
    for g, row in zip(grid, ngs_rows):
        x = math.sqrt(row["disturbance"] / 2.0)
        cf = cloning.sifted_point(cloning.make_cerf23(min(x, 1 / math.sqrt(8))))
        rows.append([g, row["disturbance"], row["qber_sifted"], row["i_ab"],
                     row["i_eve"], cf["i_eve"]])
    return header, rows


def _curve_dcrit(args):
    nbs = _parse_int_range(args.nb, list(range(2, 9)))
    header = ["n_b", "mu", "delta1_db", "delta2_db", "dist1_km", "dist2_km"]
    rows = []
    for nb in nbs:
        mu = attacks.nb_mu(nb)
        model = _model_from_args(args, mu)
        s = keyrate.nb_security_summary(nb, model)
        rows.append([nb, s.mu, s.delta1_db, s.delta2_db,
                     s.delta1_db / args.alpha, s.delta2_db / args.alpha])
    return header, rows


def _curve_stattnb(args):
    nbs = _parse_int_range(args.nb, list(range(2, 6)))
    dists = _parse_grid(args.d, [float(k) for k in range(10, 241, 2)])
    header = ["n_b", "distance_km", "delta_db", "i_ab", "i_eve"]
    rows = []
    for nb in nbs:
        mu = attacks.nb_mu(nb)
        model = _model_from_args(args, mu)
        ladder = attacks.nb_storing_ladder(nb, model)
        for d in dists:
            delta = d * args.alpha
            i_eve = attacks.nb_storing_info_at(ladder, delta)
            i_ab = qmath.binary_information(photonics.qber_total(model, delta))
            rows.append([nb, d, delta, i_ab, i_eve])
    return header, rows


def _curve_clonfid(args):
    grid = _parse_grid(args.gamma, list(np.linspace(0.0, math.pi / 2, 100)))
    header = ["machine", "parameter", "f_clone_pair", "f_clone_third"]
    rows = []
    for g in grid:
        f12, f3 = cloning.ng23_fidelities(g)
        rows.append(["ng23", g, f12, f3])
    for x in np.linspace(0.0, 1 / math.sqrt(8), 100):
        f12, f3 = cloning.cerf23_fidelities(x)
        rows.append(["cerf23", x, f12, f3])
    return header, rows


def _curve_strongpulse(args):
    mu = args.mu if args.mu is not None else 0.025
    dists = _parse_grid(args.d, [float(k) for k in range(0, 241, 2)])
    header = ["distance_km", "delta_db", "mu_prime", "intensity_ratio",
              "overlap", "p_e", "i_eve"]
    rows = []
    for d in dists:
        delta = d * args.alpha
        model = attacks.StrongPulseModel(mu, delta)
        ov, p_e, i_eve = attacks.strongpulse_b92(delta, mu)
        rows.append([d, delta, model.mu_prime, model.intensity_ratio, ov, p_e, i_eve])
    return header, rows


_CURVES = {
    "pns-bb84": _curve_pns_bb84,
    "pns-42": _curve_pns_42,
    "figiepr": _curve_figiepr,
    "muopt": _curve_muopt,
    "ieclon12": _curve_ieclon12,
    "ieclon23": _curve_ieclon23,
    "dcrit": _curve_dcrit,
    "stattnb": _curve_stattnb,
    "clonfid": _curve_clonfid,
    "strongpulse": _curve_strongpulse,
}


def _emit(header, rows, args):
    if args.format == "csv":
        lines = [",".join(header)]
        for row in rows:
            lines.append(",".join(_fmt(x) if not isinstance(x, str) else x for x in row))
        text = "\n".join(lines) + "\n"
    else:
        payload = [
            {h: (x if isinstance(x, str) else float(_fmt(x))) for h, x in zip(header, row)}
            for row in rows
        ]
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if args.out:
        with open(args.out, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_curve(args):
    builder = _CURVES[args.curve_id]
    header, rows = builder(args)
    _emit(header, rows, args)
    return 0


def _cmd_report(args):
    if args.report_id != "geneva-lausanne":
        raise ValueError(f"unknown report {args.report_id!r}")
    gl = keyrate.geneva_lausanne_report(alpha=args.alpha)
    payload = {
        "mu": float(_fmt(gl.mu)),
        "distance_km": float(_fmt(gl.distance_km)),
        "delta_db": float(_fmt(gl.delta_db)),
        "qber": float(_fmt(gl.qber)),
        "i_ab": float(_fmt(gl.i_ab)),
        "i_eve_pns": float(_fmt(gl.i_eve_pns)),
        "i_eve_cloning_optical": float(_fmt(gl.i_eve_cloning_optical)),
        "i_eve_cloning_full": float(_fmt(gl.i_eve_cloning_full)),
        "secure_optical_attribution": gl.secure_optical_attribution,
        "secure_full_error": gl.secure_full_error,
    }
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if args.out:
        with open(args.out, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_validate(args):
    result = validation.summary()
    sys.stdout.write(json.dumps(result, indent=2, sort_keys=True) + "\n")
    return 0 if result["all_pass"] else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="pnsqkd",
        description="Security curves for weak- and strong-pulse QKD under "
                    "photon-number-splitting and cloning attacks.")
    sub = parser.add_subparsers(dest="command", required=True)

    curve = sub.add_parser("curve", help="emit a security curve as CSV or JSON")
    curve.add_argument("curve_id", choices=CURVE_IDS)
    curve.add_argument("--mu", type=positive_finite, default=None,
                       help="mean photon number (default depends on the curve)")
    curve.add_argument("--alpha", type=positive_finite, default=0.25, help="fiber loss, dB/km")
    curve.add_argument("--eta-det", dest="eta_det", type=float, default=0.1)
    curve.add_argument("--pd", type=float, default=1e-5, help="dark-count probability")
    curve.add_argument("--qber-opt", dest="qber_opt", type=float, default=0.01)
    curve.add_argument("--eta", type=float, default=None,
                       help="state half-angle for the four-plus-two curve")
    curve.add_argument("--nb", type=str, default=None, help="bases count or range min:max")
    curve.add_argument("--gamma", type=str, default=None,
                       help="machine parameter grid min:max:step")
    curve.add_argument("--d", type=str, default=None, help="distance grid min:max:step, km")
    curve.add_argument("--delta", type=float, default=None,
                       help="channel attenuation in dB where one is required")
    curve.add_argument("--out", type=str, default=None, help="output path (default stdout)")
    curve.add_argument("--format", choices=("csv", "json"), default="csv")
    curve.set_defaults(func=_cmd_curve)

    report = sub.add_parser("report", help="emit a case-study record")
    report.add_argument("report_id", choices=("geneva-lausanne",))
    report.add_argument("--alpha", type=positive_finite, default=0.25)
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
