"""Every printed digit of the scalar commands against the 50-digit oracle.

A command runs in-process, at its default arguments or at those a test
names, and each number it prints must equal the oracle's value rounded to
12 significant digits.
Where the oracle lies within 2% of a last-digit unit of a rounding
boundary, either neighbour passes: the float the program prints from is a
few ulps from the exact value, and such a value may round either way.
"""
import contextlib
import io
import json
import math
from decimal import ROUND_FLOOR, Decimal, localcontext

import oracle
from perfbench import workloads
from pnsqkd import cli

_BOUNDARY_SLACK = Decimal("0.02")


def _printed_at_12_digits(text, exact):
    """True when ``text`` (a %.12g print) is ``exact`` rounded to 12
    significant digits, or either neighbour near a rounding boundary."""
    printed = Decimal(text)
    if exact == 0:
        return printed == 0
    with localcontext() as ctx:
        ctx.prec = oracle.DIGITS + 20
        unit = Decimal(1).scaleb(exact.adjusted() - 11)
        scaled = abs(exact) / unit  # in [1e11, 1e12)
        low = scaled.to_integral_value(rounding=ROUND_FLOOR)
        excess = scaled - low - Decimal("0.5")
        if abs(excess) <= _BOUNDARY_SLACK:
            allowed = (low, low + 1)
        else:
            allowed = (low + 1 if excess > 0 else low,)
        return any(printed == (k * unit).copy_sign(exact) for k in allowed)


def _stdout(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main(argv) == 0
    return buf.getvalue()


def _csv(argv):
    header, *lines = _stdout(argv).splitlines()
    return header.split(","), [line.split(",") for line in lines]


def _misprinted(header, rows, exact_rows):
    """(column, first column's text, printed, oracle) of every value off."""
    return [(h, row[0], text, f"{exact:.15g}")
            for row, exact_row in zip(rows, exact_rows)
            for h, text, exact in zip(header, row, exact_row)
            if not _printed_at_12_digits(text, exact)]


def test_boundary_rule():
    assert _printed_at_12_digits("0.123456789012", Decimal("0.1234567890124"))
    assert not _printed_at_12_digits("0.123456789012", Decimal("0.1234567890126"))
    # within 2% of a unit of the boundary either neighbour passes
    for text in ("1.23456789012e-30", "1.23456789013e-30"):
        assert _printed_at_12_digits(text, Decimal("1.2345678901251e-30"))
    assert not _printed_at_12_digits("1.23456789012e-30", Decimal("1.2345678901271e-30"))
    # a rounding that carries into the next decade
    assert _printed_at_12_digits("1", Decimal("0.99999999999996"))
    assert _printed_at_12_digits("-2.5", Decimal("-2.5"))
    assert _printed_at_12_digits("0", Decimal(0))
    assert not _printed_at_12_digits("6.76155000303e-34", Decimal(0))


def test_ieclon12_prints_the_closed_form_at_every_digit():
    header, rows = _csv(["curve", "ieclon12"])
    args = cli.build_parser().parse_args(["curve", "ieclon12"])
    assert len(rows) == len(args.gamma) == 200
    exact_rows = []
    for g in args.gamma:
        d, q, i_ab, i_eve, i_ref = oracle.ng12_sifted(g)
        exact_rows.append((Decimal(g), d, q, i_ab, i_eve, i_eve, i_ref))
    assert _misprinted(header, rows, exact_rows) == []


def _distance_rows(argv, point):
    """The printed rows and the oracle rows of a curve over the --d grid:
    distance_km and delta_db (the float d * alpha the program works from)
    as they are, then ``point(delta)``."""
    header, rows = _csv(argv)
    args = cli.build_parser().parse_args(argv)
    assert len(rows) == len(args.d)
    exact_rows = [(Decimal(d), Decimal(d * args.alpha), *point(d * args.alpha))
                  for d in args.d]
    return header, rows, exact_rows


def test_pns_bb84_prints_the_rate_balanced_point_at_every_digit():
    r_split, s_multi, _, _ = oracle.poisson_moments(0.1)
    header, rows, exact_rows = _distance_rows(
        ["curve", "pns-bb84"],
        lambda delta: oracle.rate_balanced_point(0.1, delta, r_split, s_multi))
    assert _misprinted(header, rows, exact_rows) == []


def test_pns_42_prints_the_filter_attack_point_at_every_digit():
    # the float eta = fl(pi/3) and the reference mu = 0.1 of the defaults
    mu = oracle.fourtwo_mu(math.pi / 3, 0.1)
    rate, fraction = oracle.fourtwo_rate_and_fraction(math.pi / 3, mu)
    header, rows, exact_rows = _distance_rows(
        ["curve", "pns-42"], lambda delta: oracle.rate_balanced_point(mu, delta, rate, fraction))
    assert _misprinted(header, rows, exact_rows) == []


def test_strongpulse_prints_the_b92_row_at_every_digit():
    header, rows, exact_rows = _distance_rows(
        ["curve", "strongpulse"], lambda delta: oracle.strongpulse_row(0.025, delta))
    assert _misprinted(header, rows, exact_rows) == []


def _nb_model(args):
    return args.eta_det, args.pd, args.qber_opt


def test_dcrit_prints_the_nb_ladder_crossings_at_every_digit():
    header, rows = _csv(["curve", "dcrit"])
    args = cli.build_parser().parse_args(["curve", "dcrit"])
    assert len(rows) == len(args.nb) == 7
    exact_rows = [(Decimal(nb), *oracle.nb_critical_row(nb, args.alpha, *_nb_model(args)))
                  for nb in args.nb]
    assert _misprinted(header, rows, exact_rows) == []


def _stattnb_exact_rows(args):
    """The oracle's row for each printed row of ``curve stattnb``: n_b,
    distance_km and delta_db (the float d * alpha the program works from)
    as they are, then I_AB and I_Eve."""
    exact_rows = []
    for nb in args.nb:
        mu, _, ladder = oracle.nb_storing_ladder(nb, *_nb_model(args))
        for d in args.d:
            delta = d * args.alpha
            exact_rows.append((Decimal(nb), Decimal(d), Decimal(delta),
                               oracle.nb_honest_information(mu, delta, *_nb_model(args)),
                               oracle.nb_storing_info_at(ladder, delta)))
    return exact_rows


def test_stattnb_prints_the_nb_storing_informations_at_every_digit():
    header, rows = _csv(["curve", "stattnb"])
    exact_rows = _stattnb_exact_rows(cli.build_parser().parse_args(["curve", "stattnb"]))
    assert len(rows) == len(exact_rows) == 464
    assert _misprinted(header, rows, exact_rows) == []


def test_stattnb_prints_i_ab_near_half_at_every_digit():
    # the fine grid holds rows where q is within 2e-5 of 1/2, where 0.5 - q
    # would lose digits to q's rounding, such as n_b = 4 at 233 km
    argv = ["curve", "stattnb", "--nb", "2:8", "--d", "0:400:0.5"]
    header, rows = _csv(argv)
    exact_rows = _stattnb_exact_rows(cli.build_parser().parse_args(argv))
    assert len(rows) == len(exact_rows) == 5607
    assert _misprinted(header, rows, exact_rows) == []


def test_stattnb_prints_a_drawn_model_at_every_digit():
    # the stattnb invocation of the benchmark's first seed-1 nb-ladder cycle,
    # whose JSON numbers are read as the Decimals of their texts
    [argv] = [inv.argv for inv in next(workloads.cycles("nb-ladder", 1))
              if inv.kind == "curve stattnb"]
    header = ["n_b", "distance_km", "delta_db", "i_ab", "i_eve"]
    rows = [[record[h] for h in header]
            for record in json.loads(_stdout(argv), parse_float=Decimal)]
    exact_rows = _stattnb_exact_rows(cli.build_parser().parse_args(argv))
    assert len(rows) == len(exact_rows) == 7 * 116
    assert _misprinted(header, rows, exact_rows) == []
