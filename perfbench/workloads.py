"""Seeded CLI argument generators, one per workload.

A workload is an endless stream of cycles.  A cycle is a short, fixed
sequence of command kinds whose option values are drawn afresh from the
seed, each from a sub-range of the option's physical domain.  Runs time
whole cycles, so every run executes the same mix of commands and the same
number of rows per command; only the drawn values differ between seeds.
"""
from __future__ import annotations

import math
import random
from typing import NamedTuple

DEFAULT_SEED = 1
HALF_PI = math.pi / 2
NB_RANGE = "2:8"
STATTNB_DISTANCES = 116  # default stattnb grid 10:240:2 km


class Invocation(NamedTuple):
    kind: str   # command and curve id, e.g. "curve ieclon23"
    argv: list  # arguments for pnsqkd.cli.main
    rows: int   # curve rows or report records the command must emit


def _draw(rng, lo, hi, digits=6):
    return round(rng.uniform(lo, hi), digits)


def _grid(rng, lo_min, last_max, points, step_min, step_max):
    """``min:max:step`` text for exactly ``points`` points in [lo_min, last_max].

    The upper bound sits half a step past the last point, so the CLI's
    floor((max - min) / step) + 1 count is exact.
    """
    step = _draw(rng, step_min, step_max - 1e-6)  # margins absorb the rounding
    lo = _draw(rng, lo_min, last_max - (points - 1) * step - 1e-6)
    hi = round(lo + (points - 0.5) * step, 6)
    return f"{lo!r}:{hi!r}:{step!r}"


def _gamma_grid(rng, points, lo_min=0.01, min_span=0.0):
    """γ grid in [lo_min, π/2] spanning at least ``min_span`` of that range."""
    full_step = (HALF_PI - lo_min) / (points - 1)
    return _grid(rng, lo_min, HALF_PI, points, max(0.01, min_span * full_step), full_step)


def _distance_grid(rng, points):
    return _grid(rng, 4.0, 160.0, points, 0.5, 156.0 / (points - 1))


def _alpha(rng):
    return repr(_draw(rng, 0.18, 0.3, 4))


def _cloning_sweep(rng, index):
    """Eigensolver and cloning layers: sifted points of four machines.

    The cost of a sifted point depends on γ, so each γ grid spans most of
    (0, π/2] and every run does about the same work.  ieclon12 is always
    faster than ieclon23 and the report slower, and they come once per
    cycle each, so the median invocation is an ieclon23 near the middle of
    its own latency range, where it is least sensitive to the draws.
    """
    def ieclon(curve, points):
        grid = _gamma_grid(rng, points, min_span=0.85)
        return Invocation(f"curve {curve}", ["curve", curve, "--gamma", grid], points)

    return [
        ieclon("ieclon12", 24),
        ieclon("ieclon23", 12),
        Invocation("report geneva-lausanne", ["report", "geneva-lausanne", "--alpha",
                                              repr(_draw(rng, 0.15, 0.35, 4))], 1),
        ieclon("ieclon23", 12),
    ]


def _keyrate_scan(rng, index):
    """Four-state attack optimum and optimal-mu search, no eigensolves.

    Of 9 invocations, 3 closed-form curves are faster than figiepr and 4
    (muopt, pns-42) slower, so the median invocation is a figiepr in the
    upper part of its latency range.
    """
    def curve(curve_id, points, mu_range=None):
        argv = ["curve", curve_id, "--d", _distance_grid(rng, points),
                "--alpha", _alpha(rng)]
        if mu_range:
            argv += ["--mu", repr(_draw(rng, *mu_range, 4))]
        return Invocation(f"curve {curve_id}", argv, points)

    clonfid_points = 40
    return [
        curve("muopt", 8),
        curve("figiepr", 40, (0.05, 0.5)),
        curve("pns-bb84", 40, (0.05, 0.5)),
        curve("pns-42", 40, (0.05, 0.5)),
        curve("muopt", 8),
        curve("figiepr", 40, (0.05, 0.5)),
        curve("strongpulse", 40, (0.01, 0.2)),
        curve("pns-42", 40, (0.05, 0.5)),
        Invocation("curve clonfid", ["curve", "clonfid", "--gamma",
                                     _gamma_grid(rng, clonfid_points, lo_min=0.0)],
                   clonfid_points + 100),
    ]


def _nb_ladder(rng, index):
    """Many short n_b-bases invocations; output format alternates csv/json."""
    kinds = ("dcrit", "stattnb", "dcrit")
    out = []
    for j, curve_id in enumerate(kinds):
        n = index * len(kinds) + j
        argv = ["curve", curve_id, "--nb", NB_RANGE,
                "--pd", repr(float(f"{10 ** rng.uniform(-7.0, -4.0):.4g}")),
                "--eta-det", repr(_draw(rng, 0.05, 0.3, 4)),
                "--qber-opt", repr(_draw(rng, 0.0, 0.03, 4)),
                "--alpha", _alpha(rng),
                "--format", ("csv", "json")[n % 2]]
        rows = 7 if curve_id == "dcrit" else 7 * STATTNB_DISTANCES
        out.append(Invocation(f"curve {curve_id}", argv, rows))
    return out


WORKLOADS = {
    "cloning-sweep": _cloning_sweep,
    "keyrate-scan": _keyrate_scan,
    "nb-ladder": _nb_ladder,
}


def cycles(workload, seed):
    """Endless stream of cycles (lists of Invocation) for a workload and seed."""
    build = WORKLOADS[workload]
    rng = random.Random(f"{workload}/{seed}")
    index = 0
    while True:
        yield build(rng, index)
        index += 1
