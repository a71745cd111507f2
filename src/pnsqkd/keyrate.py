"""Security criterion, secret-key rate, optimal mean photon number and the
many-bases protocol comparison.  The 67 km field-experiment case study,
which reads a cloning stack, is in ``cloning``.
"""
from __future__ import annotations

import functools
from typing import NamedTuple

from . import attacks, photonics, solvers
from .photonics import nonnegative_finite, positive_finite

MU_SEARCH_MAX = 2.0


def secure(i_ab, i_ae):
    """One-way key distillation is possible iff I_AB > min(I_AE, I_BE).

    The bound is strict; the eavesdropper's one figure stands for both
    I_AE and I_BE.
    """
    for v in (i_ab, i_ae):
        if not 0.0 <= v <= 1.0:
            raise ValueError("informations must be in [0, 1]")
    return i_ab > i_ae


def key_rate(mu, delta_db, i_eve):
    """Secret bits per pulse after error correction and privacy amplification.

    mu 10^(-delta/10) (1 - I_Eve) / 4: the four-state protocol has sifting
    factor 1/4 (right measurement and right outcome).
    """
    positive_finite(mu, "mu")
    nonnegative_finite(delta_db, "attenuation")
    if not 0.0 <= i_eve <= 1.0:
        raise ValueError("i_eve must be in [0, 1]")
    return 0.25 * mu * photonics.transmission(delta_db) * (1.0 - i_eve)


def fourstate_key_rate(mu, delta_db):
    """Key rate of the four-state protocol under the best interpolated attack."""
    i_eve, _, _ = attacks.fourstate_combined_info(mu, delta_db)
    return key_rate(mu, delta_db, i_eve)


def optimal_mu(delta_db):
    """Mean photon number maximizing the four-state key rate at a given loss.

    Golden-section search over [1e-3, MU_SEARCH_MAX] (the cap keeps the weak
    pulse model in its validity region; at short distance larger mu would
    invite intercept-resend).  The search calls the rate at each of its 120
    steps and revisits points once its bracket is a few ulps wide, so the
    rate is cached: each distinct mu runs the attack optimum once.  The
    result is the best of the search and the two ends: the search returns
    the midpoint of its last bracket, so an end whose rate is strictly
    larger is returned exactly (mu = 1e-3 from about 66 dB until the rate
    reaches 0 near 71 dB, MU_SEARCH_MAX at short distance).  Returns
    (mu_opt, rate).
    """
    rate = functools.cache(lambda mu: fourstate_key_rate(mu, delta_db))
    lo, hi = 1e-3, MU_SEARCH_MAX
    best = solvers.golden_max(rate, lo, hi, 120)
    for end in (lo, hi):
        if rate(end) > best[1]:
            best = end, rate(end)
    return best


class NbSecuritySummary(NamedTuple):
    n_bases: int
    mu: float
    delta1_db: float          # unambiguous-discrimination attack
    delta2_db: float          # storing-attack crossing with I_AB
    critical_delta_db: float  # min of the two
    critical_distance_km: float


def nb_security_summary(n_bases, model=photonics.SourceChannelModel()):
    """Critical attenuations of the n_b-bases protocol under both attacks,
    at the protocol's own mean photon number nb_mu(n_bases).

    delta1 comes from the multicopy unambiguous-discrimination rate
    equation; delta2 is where the storing-attack information crosses I_AB
    computed from the dark-count and optical error model.  The ladder stops
    at its first rung with I_Eve >= I_AB, and the margin I_AB - I_Eve does
    not increase, so the crossing lies between the last two rungs, or
    between 0 dB and the rung of a one-rung ladder; delta2 is found there to
    the last bit.  A link with I_AB = 0 at 0 dB is never secure, and its
    delta2 is 0.  min(delta1, delta2) estimates the critical attenuation of
    the unknown optimal attack.  Both attacks read their rate targets from
    one pass of click sums.
    """
    mu = attacks.nb_mu(n_bases)
    sums = attacks.nb_click_sums(n_bases, model)
    delta1 = attacks.nb_critical_usd(n_bases, model, sums)
    ladder = attacks.nb_storing_ladder(n_bases, model, sums)

    def margin(delta):  # I_AB - I_Eve, decreasing across the ladder
        i_ab = attacks.honest_information(model, mu, delta)
        return i_ab - attacks.nb_storing_info_at(ladder, delta)

    lo = ladder[-2][0] if len(ladder) > 1 else 0.0
    delta2 = solvers.root_decreasing(margin, lo, ladder[-1][0])
    critical = min(delta1, delta2)
    return NbSecuritySummary(n_bases, mu, delta1, delta2, critical, critical / model.alpha)
