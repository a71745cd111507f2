"""Security criterion, secret-key rate, optimal mean photon number and the
many-bases protocol comparison, plus the 67 km field-experiment case study.
"""
from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

from . import attacks, cloning, photonics, qmath, solvers
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
    invite intercept-resend).  Returns (mu_opt, rate).
    """
    return solvers.golden_max(lambda mu: fourstate_key_rate(mu, delta_db),
                              1e-3, MU_SEARCH_MAX, 120)


@dataclass
class NbSecuritySummary:
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
    the unknown optimal attack.
    """
    mu = attacks.nb_mu(n_bases)
    delta1 = attacks.nb_critical_usd(n_bases, model)
    ladder = attacks.nb_storing_ladder(n_bases, model)

    def margin(delta):  # I_AB - I_Eve, decreasing across the ladder
        i_ab = attacks.honest_information(model, mu, delta)
        return i_ab - attacks.nb_storing_info_at(ladder, delta)

    lo = ladder[-2][0] if len(ladder) > 1 else 0.0
    delta2 = solvers.root_decreasing(margin, lo, ladder[-1][0])
    critical = min(delta1, delta2)
    return NbSecuritySummary(n_bases, mu, delta1, delta2, critical, critical / model.alpha)


@dataclass
class GenevaLausanneReport:
    """Security audit of the 67 km field experiment (mu = 0.2, QBER 5%:
    4% detector noise + 1% optical)."""

    mu: float
    distance_km: float
    delta_db: float
    qber: float
    i_ab: float
    i_eve_pns: float          # interpolated photon-number attack, no errors
    i_eve_cloning_optical: float   # cloning bounded by the optical error share
    i_eve_cloning_full: float      # cloning credited with the full error
    secure_optical_attribution: bool
    secure_full_error: bool


_CLONING_GRID = [1e-6 + (math.pi / 2 - 2e-6) * k / 240 for k in range(241)]


def _cloning_infos(qbers):
    """Eavesdropper information of the two-photon cloning attack (stronger,
    symmetrized machine) at each target sifted error rate, interpolated
    linearly from the first row of the 241-point gamma grid that reaches it.

    The rows are located by the closed-form root: on every machine the
    sifted error rate is q = 2D/(1 + 2D), so the gamma of disturbance
    q/(2(1 - q)) guesses the row, and only the rows around each guess are
    projected, in one stack (each slice of a stack equals its one-point
    machine, so they read as on the full grid).  A row is used once the row
    before it is seen to fall short of the target (the error rate increases
    along the grid); until then more rows are read.  Only the bracket rows
    are eigensolved.  A target the first row already reaches reads the
    first row, and one that no row reaches reads the last.
    """
    last = len(_CLONING_GRID) - 1
    windows = []
    for qber in qbers:
        if 0.0 < qber < 0.5:  # the disturbance is at most 1/4, where q = 1/3
            gamma = cloning.ngs23_gamma_for_disturbance(min(qber / (2.0 * (1.0 - qber)), 0.25))
            k = bisect.bisect_left(_CLONING_GRID, gamma)
        else:
            k = 0 if qber <= 0.0 else last
        windows.append([max(k - 2, 0), min(k + 1, last)])
    brackets = []
    while len(brackets) < len(qbers):
        rows = sorted(set().union(*(range(a, b + 1) for a, b in windows)))
        scan = dict(zip(rows, cloning.sifted_qber(
            cloning.make_ngs23([_CLONING_GRID[k] for k in rows])).tolist()))
        brackets = []
        for qber, window in zip(qbers, windows):
            a, b = window
            k = next((k for k in range(a, b + 1) if scan[k] >= qber), None)
            if k is None and b < last:
                window[1] = min(b + 4, last)
            elif k == a and a > 0:
                window[0] = max(a - 4, 0)
            else:
                brackets.append((last,) if k is None else (k,) if k == 0 else (k - 1, k))
    rows = sorted(set().union(*brackets))
    i_eve = dict(zip(rows, cloning.sifted_points(
        cloning.make_ngs23([_CLONING_GRID[k] for k in rows]))["i_eve"].tolist()))
    infos = []
    for qber, bracket in zip(qbers, brackets):
        if len(bracket) == 1:
            infos.append(i_eve[bracket[0]])
            continue
        lo, hi = bracket
        t = (qber - scan[lo]) / (scan[hi] - scan[lo])
        infos.append(i_eve[lo] + t * (i_eve[hi] - i_eve[lo]))
    return infos


def geneva_lausanne_report(alpha=photonics.DEFAULT_ALPHA_DB_PER_KM):
    """Case study: four-state sifting retrofitted onto the 67 km experiment.

    I_AB = I(5%) ~ 0.71 bits.  The error-free interpolated photon-number
    attack at 16.75 dB stays below 0.5 bits, and crediting the eavesdropper
    with cloning up to either the optical error (1%) or the full observed
    error (5%) still leaves her short of I_AB, so the link is secure under
    both attributions.
    """
    mu, distance = 0.2, 67.0
    delta = distance * alpha
    qber, qber_optical = 0.05, 0.01
    i_ab = qmath.binary_information(qber)
    i_eve_pns, _, _ = attacks.fourstate_combined_info(mu, delta)
    i_clone_opt, i_clone_full = _cloning_infos((qber_optical, qber))
    return GenevaLausanneReport(
        mu=mu,
        distance_km=distance,
        delta_db=delta,
        qber=qber,
        i_ab=i_ab,
        i_eve_pns=i_eve_pns,
        i_eve_cloning_optical=i_clone_opt,
        i_eve_cloning_full=i_clone_full,
        secure_optical_attribution=secure(i_ab, max(i_eve_pns, i_clone_opt)),
        secure_full_error=secure(i_ab, max(i_eve_pns, i_clone_full)),
    )
