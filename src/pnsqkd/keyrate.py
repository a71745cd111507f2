"""Security criterion, secret-key rate, optimal mean photon number and the
many-bases protocol comparison, plus the 67 km field-experiment case study.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from . import attacks, photonics, qmath, solvers
from .photonics import SourceChannelModel

MU_SEARCH_MAX = 2.0
BISECTION_TOL_DB = 1e-6


@dataclass(frozen=True)
class ProtocolConfig:
    """Many-bases protocol configuration.

    ``mu="auto"`` selects the mean photon number that keeps the sifted rate
    equal to the two-basis mu = 0.1 reference.
    """

    n_bases: int = 2
    mu: float | str = "auto"

    def __post_init__(self):
        if self.n_bases < 2:
            raise ValueError("n_bases must be at least 2")

    @property
    def sifting_factor(self):
        return attacks.nb_sifting_probability(self.n_bases)

    @property
    def mean_photon_number(self):
        if self.mu == "auto":
            return attacks.nb_mu(self.n_bases)
        return float(self.mu)


def secure(i_ab, i_ae, i_be=None):
    """One-way key distillation is possible iff I_AB > min(I_AE, I_BE).

    The bound is strict; with a single eavesdropper figure I_BE defaults to
    I_AE.
    """
    for v in (i_ab, i_ae) + (() if i_be is None else (i_be,)):
        if not 0.0 <= v <= 1.0:
            raise ValueError("informations must be in [0, 1]")
    if i_be is None:
        i_be = i_ae
    return i_ab > min(i_ae, i_be)


def key_rate(mu, delta_db, i_eve, sifting_factor=0.25):
    """Secret bits per pulse after error correction and privacy amplification.

    sifting_factor * mu * 10^(-delta/10) * (1 - I_Eve); the four-state
    protocol has sifting factor 1/4 (right measurement and right outcome).
    """
    if not 0.0 <= i_eve <= 1.0:
        raise ValueError("i_eve must be in [0, 1]")
    return sifting_factor * mu * photonics.transmission(delta_db) * (1.0 - i_eve)


def fourstate_key_rate(mu, delta_db):
    """Key rate of the four-state protocol under the best interpolated attack."""
    i_eve, _, _ = attacks.fourstate_combined_info(mu, delta_db)
    return key_rate(mu, delta_db, i_eve)


def optimal_mu(delta_db, mu_min=1e-3, mu_max=MU_SEARCH_MAX):
    """Mean photon number maximizing the four-state key rate at a given loss.

    Golden-section search over [mu_min, mu_max] (the cap keeps the weak
    pulse model in its validity region; at short distance larger mu would
    invite intercept-resend).  Returns (mu_opt, rate).
    """
    return solvers.golden_max(lambda mu: fourstate_key_rate(mu, delta_db), mu_min, mu_max, 120)


@dataclass
class NbSecuritySummary:
    n_bases: int
    mu: float
    delta1_db: float          # unambiguous-discrimination attack
    delta2_db: float          # storing-attack crossing with I_AB
    critical_delta_db: float  # min of the two
    critical_distance_km: float


def nb_security_summary(n_bases, model=None, alpha=photonics.DEFAULT_ALPHA_DB_PER_KM):
    """Critical attenuations of the n_b-bases protocol under both attacks.

    delta1 comes from the multicopy unambiguous-discrimination rate
    equation; delta2 is where the storing-attack information crosses I_AB
    computed from the dark-count and optical error model.  min(delta1,
    delta2) estimates the critical attenuation of the unknown optimal
    attack.
    """
    mu = attacks.nb_mu(n_bases)
    if model is None:
        model = SourceChannelModel(mu=mu, alpha=alpha)
    delta1 = attacks.nb_critical_usd(n_bases, model)
    ladder = attacks.nb_storing_ladder(n_bases, model)

    def margin(delta):  # I_AB - I_Eve, decreasing across the ladder
        i_eve = attacks.nb_storing_info_at(ladder, delta)
        i_ab = qmath.binary_information(photonics.qber_total(model, delta))
        return i_ab - i_eve

    delta2 = solvers.bisect_decreasing(margin, ladder[0][0], ladder[-1][0],
                                       BISECTION_TOL_DB)
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


def _cloning_info_at_qber(qber, grid_size=240):
    """Eavesdropper information of the two-photon cloning attack at a given
    sifted error rate (stronger, symmetrized machine)."""
    from . import cloning

    best = 0.0
    prev = None
    for k in range(grid_size + 1):
        g = 1e-6 + (math.pi / 2 - 2e-6) * k / grid_size
        row = cloning.sifted_point(cloning.make_ngs23(g))
        if row["qber_sifted"] >= qber:
            if prev is None:
                return row["i_eve"]
            q0, i0 = prev
            t = (qber - q0) / (row["qber_sifted"] - q0)
            return i0 + t * (row["i_eve"] - i0)
        prev = (row["qber_sifted"], row["i_eve"])
    return row["i_eve"]


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
    i_clone_opt = _cloning_info_at_qber(qber_optical)
    i_clone_full = _cloning_info_at_qber(qber)
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
