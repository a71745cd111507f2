"""Shape guard: the monotone shapes each attack curve keeps, checked on dense
seeded grids with plain float comparisons and no oracle.

A value that is physical but wrong passes the range checks of
test_properties.py, and an oracle covers only the points it is run on; a
replaced formula that bends a curve the wrong way fails here.  Every
inequality between neighbouring grid points is non-strict: equal
neighbours (I_Eve at 1 past the critical attenuation, information at 0)
are allowed.
"""
import math
import random

import pytest

from pnsqkd import attacks, cloners, cloning, keyrate
from pnsqkd.photonics import SourceChannelModel

MUS = (1e-3, 1.1e-3, 0.05, 0.2, 0.5, 1.0, 2.0)
DELTAS = [k * 0.25 for k in range(281)]  # 0 to 70 dB


def _descents(xs, ys):
    """The (x, y, next y) where y falls from one grid point to the next."""
    return [(x, a, b) for x, a, b in zip(xs, ys, ys[1:]) if b < a]


@pytest.mark.parametrize("mu", MUS)
def test_information_grows_with_loss(mu):
    curves = {
        "bb84_pns": [attacks.bb84_pns(mu, d).i_eve for d in DELTAS],
        "fourstate_irud_pns": [attacks.fourstate_irud_pns(mu, d).i_eve for d in DELTAS],
        "fourstate_combined_info": [attacks.fourstate_combined_info(mu, d)[0] for d in DELTAS],
    }
    for eta in (0.3, math.pi / 3, 1.5):
        moments = attacks.fourtwo_moments(eta, mu)
        curves[f"fourtwo_pns eta={eta}"] = [attacks.fourtwo_pns(eta, d, mu, moments).i_eve
                                            for d in DELTAS]
    assert {name: _descents(DELTAS, ys) for name, ys in curves.items()} == {
        name: [] for name in curves}


def test_critical_attenuations_fall_with_mu():
    mus = [1e-6 * (2e6) ** (k / 1260) for k in range(1261)]  # log-spaced, 1e-6 to 2
    rises = {}
    for critical in (attacks.bb84_critical_attenuation, attacks.fourstate_irud_critical):
        deltas = [critical(mu) for mu in mus]
        # a rise is a descent of the negated curve
        rises[critical.__name__] = _descents(mus, [-d for d in deltas])
    assert rises == {"bb84_critical_attenuation": [], "fourstate_irud_critical": []}


def test_combined_attack_knows_at_least_the_block_below_three_attack():
    # at f = 1 the combined attack stores nothing: that is the
    # block-below-three attack, so the best f never learns less
    rng = random.Random(17)
    short = []
    for _ in range(2000):
        mu, delta = 10.0 ** rng.uniform(-6.0, math.log10(2.0)), rng.uniform(0.0, 70.0)
        combined = attacks.fourstate_combined_info(mu, delta)[0]
        block = attacks.fourstate_irud_pns(mu, delta).i_eve
        if combined < block:
            short.append((mu, delta, combined, block))
    assert short == []


def test_nb_storing_columns_trade_honest_for_eavesdropped_information():
    model = SourceChannelModel()
    deltas = [k * 0.25 for k in range(241)]  # 0 to 60 dB
    found = {}
    for n_bases in range(2, 9):
        i_ab, i_eve = attacks.nb_storing_columns(n_bases, model, deltas)
        found[n_bases] = (_descents(deltas, [-i for i in i_ab]), _descents(deltas, i_eve))
    assert found == {n_bases: ([], []) for n_bases in range(2, 9)}


def test_strong_pulse_information_grows_towards_its_asymptote():
    # checked to 100 dB, where the gap to the asymptote is still about 1e-10
    # relative; from about 110 dB on the curve lies within an ulp or two of
    # it, where rounding moves it by an ulp either way
    deltas = [k * 0.05 for k in range(2001)]
    found = {}
    for mu in (1e-3, 0.01, 0.025, 0.1, 0.2, 0.5, 0.9, 0.999):
        infos = [attacks.strongpulse_b92(mu, d)[4] for d in deltas]
        limit = attacks.strongpulse_asymptotic_info(mu)
        found[mu] = (_descents(deltas, infos), [d for d, i in zip(deltas, infos) if i > limit])
    assert found == {mu: ([], []) for mu in found}


def test_ng12_information_peaks_at_a_quarter_disturbance():
    # dt/dgamma has the sign of 2 cos gamma - 1, so I_Eve rises up to
    # gamma = pi/3 (D = 1/4, t = 1/sqrt 6) and falls after it
    gammas = [k * (math.pi / 2) / 1200 for k in range(1201)]  # pi/3 is k = 800
    infos = [row[3] for row in cloners.ng12_sifted_rows(gammas)]
    peak = infos.index(max(infos))
    assert peak == 800
    assert _descents(gammas[:peak + 1], infos[:peak + 1]) == []
    assert _descents(gammas[peak:], [-i for i in infos[peak:]]) == []
    assert infos[peak] == pytest.approx(0.557710, abs=5e-7)


@pytest.mark.parametrize("make,peak,top", [(cloning.make_ngs23, 1.38971, 0.737956),
                                           (cloning.make_ng23, 1.06691, 0.601418)],
                         ids=["ngs23", "ng23"])
def test_two_to_three_information_rises_then_falls(make, peak, top):
    # the peaks are measured on this grid, not derived: ngs23 at D = 0.18927,
    # ng23 at D = 0.10675; the argmax may move by one grid step
    step = (math.pi / 2 - 1e-4) / 399
    gammas = [1e-4 + k * step for k in range(400)]
    infos = cloning.sifted_points(make(gammas))["i_eve"].tolist()
    k = infos.index(max(infos))
    assert abs(gammas[k] - peak) <= step
    assert infos[k] == pytest.approx(top, abs=1e-5)
    assert _descents(gammas[:k + 1], infos[:k + 1]) == []
    assert _descents(gammas[k:], [-i for i in infos[k:]]) == []


def test_optimal_key_rate_falls_with_loss():
    deltas = [float(k) for k in range(76)]  # 0 to 75 dB
    rates = [keyrate.optimal_mu(d)[1] for d in deltas]
    assert _descents(deltas, [-r for r in rates]) == []


def test_storing_attack_sets_the_critical_attenuation_for_every_nb():
    # the storing crossing delta2 lies below the USD bound delta1 for
    # n_b = 2..8 (clause 10a checks 2..5)
    above = {}
    for n_bases in range(2, 9):
        s = keyrate.nb_security_summary(n_bases, SourceChannelModel())
        if not s.delta2_db < s.delta1_db:
            above[n_bases] = (s.delta1_db, s.delta2_db)
    assert above == {}
