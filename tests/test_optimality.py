"""Optimality guards: each reported maximum against a dense grid of its own
argument, evaluated without the search that found it.

Seeded draws; the slow runs draw more from the same streams, so their first
draws are the tier-1 draws (``pytest -m slow``).
"""
import math
import random

import numpy as np
import pytest

from pnsqkd import attacks, keyrate, photonics
from pnsqkd.keyrate import fourstate_key_rate

# a rate of the 1,500-point log grid of mu and the two ends may beat
# optimal_mu's rate by no more than this, relative
MU_BUDGET = 1e-12
# the I_Eve of the 10,001-point f grid and f* may beat the attack
# optimum's by no more than this, relative.  The slow run's 2,000 draws
# measured at most 8.9e-14 (mu = 0.00367, delta = 58.9 dB), where the
# optimum is the kink f* = 0.9999 and I rises steeply towards it, so a few
# ulps of f move I by a few 1e-14
F_BUDGET = 1e-12

_MU_GRID = [1e-3, *np.geomspace(1e-3, keyrate.MU_SEARCH_MAX, 1500).tolist(),
            keyrate.MU_SEARCH_MAX]
_F_GRID = np.linspace(0.0, 1.0, 10_001)


def _mu_shortfall(delta):
    """How far the mu grid's best rate lies above optimal_mu's, relative;
    0 where both rates are exactly 0, 1 where only the reported one is."""
    _, rate = keyrate.optimal_mu(delta)
    best = max(fourstate_key_rate(mu, delta) for mu in _MU_GRID)
    if best == 0.0:
        return 0.0 if rate == 0.0 else math.inf
    return (best - rate) / best


def _f_shortfall(mu, delta):
    """How far the best information over the f grid and the kink f* lies
    above fourstate_combined_info's I_Eve, relative.  The information is
    the interpolated attack's, written here on the same poisson_moments
    floats as the program reads."""
    i_eve, _, _ = attacks.fourstate_combined_info(mu, delta)
    required = mu * photonics.transmission(delta)
    r_store, s_store, r_irud, s_irud = photonics.poisson_moments(mu)
    kink = (r_store - required) / (r_store - r_irud)
    f = np.append(_F_GRID, min(max(kink, 0.0), 1.0))
    a = f * r_irud + (1.0 - f) * r_store
    q = np.where(a >= required, 0.0, (required - a) / (mu - a))
    wi = (1.0 - q) * f * s_irud
    ws = (1.0 - q) * (1.0 - f) * s_store
    denom = q + wi + ws
    info = np.where(denom > 0.0, (wi + ws * attacks.fourstate_storing_info()) / denom, 0.0)
    best = float(info.max())
    return 0.0 if best == 0.0 else (best - i_eve) / best


@pytest.mark.parametrize("draws", [32, pytest.param(400, marks=pytest.mark.slow)])
def test_optimal_mu_is_not_beaten_by_a_dense_grid(draws):
    # every other delta in 60-72 dB, where the optimum reaches the mu = 1e-3
    # end (about 66-71 dB) and the rate then reaches 0
    rng = random.Random("optimality-mu")
    deltas = [rng.uniform(60.0, 72.0) if k % 2 else rng.uniform(0.0, 75.0)
              for k in range(draws)]
    shortfalls = {delta: _mu_shortfall(delta) for delta in deltas}
    beaten = {delta: s for delta, s in shortfalls.items() if s > MU_BUDGET}
    assert not beaten, sorted(beaten.items())


@pytest.mark.parametrize("draws", [200, pytest.param(2000, marks=pytest.mark.slow)])
def test_combined_info_is_not_beaten_by_a_dense_f_grid(draws):
    rng = random.Random("optimality-f")
    points = [(math.exp(rng.uniform(math.log(1e-3), math.log(2.0))), rng.uniform(0.0, 70.0))
              for _ in range(draws)]
    shortfalls = {point: _f_shortfall(*point) for point in points}
    beaten = {point: s for point, s in shortfalls.items() if s > F_BUDGET}
    assert not beaten, sorted(beaten.items())
