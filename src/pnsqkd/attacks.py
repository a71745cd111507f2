"""Photon-number-splitting attack evaluations per protocol.

Each attack answers the same two questions: how many pulses can the
eavesdropper intercept while leaving the receiver's expected detection
rate unchanged, and how much information does she gain per accepted bit.
Critical attenuations are the loss levels beyond which she simulates the
full rate from multiphoton pulses alone and learns everything without
introducing errors.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

from . import photonics, qmath, solvers
from .photonics import (
    SourceChannelModel,
    poisson_click_sum,
    poisson_cutoff,
    poisson_photon_sum,
    poisson_pmf,
    transmission,
)

STORING_OVERLAP = 1.0 / math.sqrt(2.0)  # announced-pair overlap in the four-state protocol
RATE_RESIDUAL_TOL = 1e-10


@dataclass
class AttackPoint:
    """Attack evaluation at a single attenuation."""

    delta_db: float
    q_passed: float
    i_eve: float
    i_ab: float = 1.0
    rate_residual: float = 0.0


@dataclass
class AttackReport:
    """Attack evaluation over an attenuation grid."""

    delta_db: list = field(default_factory=list)
    i_eve: list = field(default_factory=list)
    i_ab: list = field(default_factory=list)
    q_passed: list = field(default_factory=list)
    rate_residual: list = field(default_factory=list)
    critical_delta_db: float | None = None
    critical_distance_km: float | None = None

    def append(self, point):
        self.delta_db.append(point.delta_db)
        self.i_eve.append(point.i_eve)
        self.i_ab.append(point.i_ab)
        self.q_passed.append(point.q_passed)
        self.rate_residual.append(point.rate_residual)


class InfeasibleModelError(ValueError):
    """Raised when an attack cannot satisfy its rate constraint."""


def _rate_balanced_point(mu, delta_db, r_att, s_att):
    """Attack point where the untouched fraction q balances the expected rate.

    Solves q mu + (1-q) r_att = mu 10^(-delta/10) and weighs full
    information on attacked pulses (a share s_att of them concludes)
    against silence on passed ones: I = (1-q) s_att / (q + (1-q) s_att).
    When the attack alone supplies the rate, q = 0 and the surplus
    conclusive pulses are discarded, so I = 1.
    """
    required = mu * transmission(delta_db)
    if r_att >= required:
        return AttackPoint(delta_db, 0.0, 1.0, 1.0, 0.0)
    q = (required - r_att) / (mu - r_att)
    residual = abs(q * mu + (1.0 - q) * r_att - required)
    i_eve = (1.0 - q) * s_att / (q + (1.0 - q) * s_att)
    return AttackPoint(delta_db, q, i_eve, 1.0, residual)


# ---------------------------------------------------------------------------
# standard two-basis protocol (split one photon off every multiphoton pulse)

def bb84_split_rate(mu):
    """Photons per pulse the eavesdropper can forward when she keeps one
    photon of every multiphoton pulse: sum_{n>=2} p_n (n-1) = mu - 1 + e^-mu."""
    return mu - 1.0 + math.exp(-mu)


def bb84_multiphoton_fraction(mu):
    """Probability of two or more photons: 1 - e^-mu (1 + mu)."""
    return 1.0 - math.exp(-mu) * (1.0 + mu)


def bb84_critical_attenuation(mu):
    """Attenuation where splitting alone reproduces the expected raw rate:
    10 log10(mu / (mu - 1 + e^-mu))."""
    return 10.0 * math.log10(mu / bb84_split_rate(mu))


def bb84_pns(mu, delta_db):
    """Photon-number-splitting attack point for the two-basis protocol.

    Solves q mu + (1-q) R = mu 10^(-delta/10) for the untouched fraction q
    and weighs full information on split pulses against silence on passed
    ones: I = (1-q) S / (q + (1-q) S) with S the multiphoton fraction.
    """
    if mu <= 0:
        raise ValueError("mu must be positive")
    return _rate_balanced_point(mu, delta_db, bb84_split_rate(mu),
                                bb84_multiphoton_fraction(mu))


def bb84_pns_curve(mu, delta_grid, alpha=photonics.DEFAULT_ALPHA_DB_PER_KM):
    report = AttackReport()
    for d in delta_grid:
        report.append(bb84_pns(mu, d))
    report.critical_delta_db = bb84_critical_attenuation(mu)
    report.critical_distance_km = report.critical_delta_db / alpha
    return report


# ---------------------------------------------------------------------------
# two-state protocol, weak pulses

def b92_weakpulse_analysis(eta, mu, delta_grid=(), alpha=photonics.DEFAULT_ALPHA_DB_PER_KM):
    """Intercept-discriminate-resend model for the two-state protocol.

    The eavesdropper runs the receiver's unambiguous measurement at the
    source and re-prepares conclusive pulses next to the receiver.  Her
    delivered fraction is 1 - cos(eta), so interception becomes rate
    invisible at delta_c = -10 log10(1 - cos eta); with no quantum memory
    or lossless line she cannot attack a sub-fraction below that, hence
    the information curve is a step.
    """
    if not 0 < eta <= math.pi / 2:
        raise ValueError("eta must be in (0, pi/2]")
    if mu <= 0:
        raise ValueError("mu must be positive")
    p_ok = 1.0 - math.cos(eta)
    delta_c = -10.0 * math.log10(p_ok) if p_ok < 1.0 else 0.0
    report = AttackReport()
    for d in delta_grid:
        attacked = transmission(d) <= p_ok + 1e-15
        report.append(AttackPoint(d, 0.0 if attacked else 1.0, 1.0 if attacked else 0.0))
    report.critical_delta_db = delta_c
    report.critical_distance_km = delta_c / alpha
    return report


# ---------------------------------------------------------------------------
# four-plus-two protocol

def fourtwo_mu(eta, reference_mu=0.1):
    """Mean photon number keeping the sifted rate equal to the two-basis
    reference: mu = reference / (1 - cos eta)."""
    return reference_mu / (1.0 - math.cos(eta))


def fourtwo_split_rate(eta, mu):
    """Deliverable photons per pulse when the eavesdropper filters photons
    one at a time until a conclusive result.

    A failed filter spoils its photon (forwarding it would cause errors),
    so from an n-photon pulse a success on trial k leaves n - k photons:
    E_n = sum_{k=1}^{n-1} s (1-s)^(k-1) (n-k) with s = 1 - cos eta.
    """
    s = 1.0 - math.cos(eta)
    c = 1.0 - s
    total = 0.0
    for n in range(2, poisson_cutoff(mu) + 1):
        p = poisson_pmf(n, mu)
        e_n = sum(s * c ** (k - 1) * (n - k) for k in range(1, n))
        total += p * e_n
    return total


def fourtwo_success_fraction(eta, mu):
    """Probability a multiphoton pulse yields a conclusive filtered photon
    with at least one photon left to forward."""
    c = math.cos(eta)
    total = 0.0
    for n in range(2, poisson_cutoff(mu) + 1):
        total += poisson_pmf(n, mu) * (1.0 - c ** (n - 1))
    return total


def fourtwo_critical_attenuation(eta, reference_mu=0.1):
    mu = fourtwo_mu(eta, reference_mu)
    return 10.0 * math.log10(mu / fourtwo_split_rate(eta, mu))


def fourtwo_pns(eta, delta_db, reference_mu=0.1):
    """Filter-based splitting attack point for the four-plus-two protocol."""
    if not 0 < eta <= math.pi / 2:
        raise ValueError("eta must be in (0, pi/2]")
    mu = fourtwo_mu(eta, reference_mu)
    return _rate_balanced_point(mu, delta_db, fourtwo_split_rate(eta, mu),
                                fourtwo_success_fraction(eta, mu))


# ---------------------------------------------------------------------------
# two-state protocol with a strong reference pulse

@dataclass(frozen=True)
class StrongPulseModel:
    """Weak signal plus strong reference pulse, receiver floor of 10 photons.

    The reference must always arrive, so its mean photon number grows with
    the attenuation: mu_prime 10^(-delta/10) = bob_floor.
    """

    mu: float
    delta_db: float
    bob_floor: float = 10.0

    def __post_init__(self):
        if not 0 < self.mu < 1:
            raise ValueError("mu must be in (0, 1)")
        if self.delta_db < 0:
            raise ValueError("attenuation must be non-negative")

    @property
    def mu_prime(self):
        return self.bob_floor * 10.0 ** (self.delta_db / 10.0)

    @property
    def intensity_ratio(self):
        return self.mu / self.mu_prime


def strongpulse_b92(delta_db, mu, bob_floor=10.0):
    """Eavesdropper information against the strong-pulse two-state scheme.

    She measures the total photon number, forwards the floor the receiver
    expects and keeps the rest, then discriminates two pure states with
    overlap ((1-t)/(1+t))^(mu' - floor) where t = mu/mu'.  Returns
    (overlap, error probability, information).  As the distance grows the
    overlap tends to e^(-2 mu), so the information saturates and the
    protocol stays secure at any loss.
    """
    model = StrongPulseModel(mu, delta_db, bob_floor)
    t = model.intensity_ratio
    kept = model.mu_prime - bob_floor
    # log space: rounding (1-t)/(1+t) and raising it to kept ~ 1/t would
    # amplify one ulp to ~1e-9 in the overlap at large loss
    overlap = math.exp(kept * (math.log1p(-t) - math.log1p(t))) if kept > 0 else 1.0
    p_e = 0.5 * (1.0 - math.sqrt(1.0 - overlap * overlap))
    return overlap, p_e, qmath.binary_information(p_e)


def strongpulse_asymptotic_info(mu):
    """Distance limit of the strong-pulse information: I(p_e(e^(-2 mu)))."""
    overlap = math.exp(-2.0 * mu)
    p_e = 0.5 * (1.0 - math.sqrt(1.0 - overlap * overlap))
    return qmath.binary_information(p_e)


# ---------------------------------------------------------------------------
# four-state protocol (two bases, alternative sifting)

def fourstate_irud_rate(mu, p_ok=0.5):
    """Deliverable photons per pulse for the block-below-three attack:
    p_ok sum_{n>=3} p_n (n-2) = p_ok (mu - 2 + e^-mu (2 + mu))."""
    return p_ok * (mu - 2.0 + math.exp(-mu) * (2.0 + mu))


def fourstate_irud_fraction(mu, p_ok=0.5):
    """Probability a pulse has >= 3 photons and the discrimination concludes."""
    return p_ok * (1.0 - math.exp(-mu) * (1.0 + mu + 0.5 * mu * mu))


def fourstate_irud_critical(mu, p_ok=0.5):
    """Attenuation where unambiguous discrimination of three-photon pulses
    reproduces the expected rate: 10 log10(mu / (p_ok sum p_n (n-2)))."""
    if mu <= 0:
        raise ValueError("mu must be positive")
    target = fourstate_irud_rate(mu, p_ok)
    if target <= 0:
        return float("inf")
    return 10.0 * math.log10(mu / target)


def fourstate_irud_pns(mu, delta_db):
    """Block-below-three attack point for the four-state protocol: pulses
    with >= 3 photons are discriminated unambiguously, the rest blocked."""
    if mu <= 0:
        raise ValueError("mu must be positive")
    return _rate_balanced_point(mu, delta_db, fourstate_irud_rate(mu),
                                fourstate_irud_fraction(mu))


def storing_attack_info(pair):
    """Information from storing one photon and discriminating the announced pair.

    Equiprobable minimum-error discrimination of the two announced states;
    for the four-state protocol the pair overlap is 1/sqrt(2), giving
    p_e ~ 0.1464 and I ~ 0.399 bits.  Returns (p_e, info).
    """
    s0, s1 = pair
    p_e = qmath.helstrom_error(s0, s1, 0.5)
    return p_e, qmath.binary_information(p_e)


def fourstate_storing_info():
    """Storing-attack information for the four-state announced pair."""
    p_e = 0.5 * (1.0 - math.sqrt(1.0 - STORING_OVERLAP**2))
    return qmath.binary_information(p_e)


def fourstate_combined_info(mu, delta_db, p_ok=0.5):
    """Best undetectable mix of storing and multicopy-discrimination attacks.

    A fraction f of the attack capacity goes to unambiguous discrimination
    of >= 3-photon pulses (full information), 1 - f to storing one photon
    of every multiphoton pulse (0.399 bits after the announcement); the
    untouched fraction q balances the expected rate.  When the attack
    oversupplies photons the surplus successful pulses are discarded
    uniformly, which leaves the per-bit information unchanged.  f is
    optimized by a coarse grid scan plus golden-section refinement.
    Returns (i_eve, q_passed, f_irud).
    """
    required = mu * transmission(delta_db)
    r_store = bb84_split_rate(mu)
    r_irud = fourstate_irud_rate(mu, p_ok)
    s_store = bb84_multiphoton_fraction(mu)
    s_irud = fourstate_irud_fraction(mu, p_ok)
    i_store = fourstate_storing_info()

    def q_of(f):
        a = f * r_irud + (1.0 - f) * r_store
        if a >= required:
            return 0.0
        return (required - a) / (mu - a)

    def info(f):
        q = q_of(f)
        wi = (1.0 - q) * f * s_irud
        ws = (1.0 - q) * (1.0 - f) * s_store
        denom = q + wi + ws
        if denom <= 0.0:
            return 0.0
        return (wi + ws * i_store) / denom

    grid = [k / 100.0 for k in range(101)]
    vals = [info(f) for f in grid]
    k_best = max(range(101), key=lambda k: vals[k])
    lo = grid[max(0, k_best - 1)]
    hi = grid[min(100, k_best + 1)]
    f_best, i_best = solvers.golden_max(info, lo, hi, 90)
    if vals[k_best] > i_best:
        f_best, i_best = grid[k_best], vals[k_best]
    return i_best, q_of(f_best), f_best


def fourstate_combined_curve(mu, delta_grid, p_ok=0.5,
                             alpha=photonics.DEFAULT_ALPHA_DB_PER_KM):
    """Interpolated-attack information over an attenuation grid.

    The information is continuous and non-decreasing in the attenuation and
    reaches one at the blocking critical point.
    """
    if mu <= 0:
        raise ValueError("mu must be positive")
    report = AttackReport()
    for d in delta_grid:
        i_eve, q, _ = fourstate_combined_info(mu, d, p_ok)
        required = mu * transmission(d)
        report.append(AttackPoint(d, q, i_eve, 1.0,
                                  0.0 if required <= mu else required - mu))
    report.critical_delta_db = fourstate_irud_critical(mu, p_ok)
    report.critical_distance_km = report.critical_delta_db / alpha
    return report


# ---------------------------------------------------------------------------
# many-bases generalization

def nb_sifting_probability(n_bases):
    """Acceptance probability: (1/n_b) sin^2(pi / (2 n_b))."""
    return math.sin(math.pi / (2.0 * n_bases)) ** 2 / n_bases


def nb_mu(n_bases, reference_rate=1.0 / 20.0):
    """Mean photon number equalizing the sifted rate with the mu = 0.1
    two-basis reference: mu = n_b / (20 sin^2(pi / (2 n_b)))."""
    return reference_rate / nb_sifting_probability(n_bases)


def nb_neighbor_overlap(n_bases):
    """Overlap of the two announced neighboring states: cos(pi / (2 n_b))."""
    return math.cos(math.pi / (2.0 * n_bases))


def _solve_click_attenuation(model, mu, target):
    """Attenuation at which the click rate 1 - e^(-eta mu 10^(-d/10)) equals
    ``target``, inverted exactly: d = -10 log10(-ln(1 - target) / (eta mu)).

    Returns 0 when the rate is reached without loss and inf when the target
    is zero (unreachable at any attenuation).
    """
    if target <= 0.0:
        return float("inf")
    x = -math.log1p(-target) / (model.eta_det * mu)
    return 0.0 if x >= 1.0 else -10.0 * math.log10(x)


def nb_critical_usd(n_bases, model=None, rate_form="click"):
    """Critical attenuation against unambiguous discrimination of
    n_e = 2 n_b - 1 copies.

    In the default click form both sides count detector clicks:
      1 - e^(-eta mu 10^(-d/10))
        = p_ok sum_{m>=n_e} p(m, mu) (1 - (1 - eta)^(m - n_e + 1)).
    The photon form counts forwardable photons instead and is the
    convention used for the low-loss critical distances:
      mu 10^(-d/10) = p_ok sum_{m>=n_e} p(m, mu) (m - n_e + 1).
    """
    from .discrimination import usd_optimal_pok

    if not 2 <= n_bases <= 8:
        raise ValueError("n_bases must be in 2..8")
    mu = nb_mu(n_bases)
    n_e = 2 * n_bases - 1
    p_ok = usd_optimal_pok(n_bases)
    nmax = poisson_cutoff(mu)
    if rate_form == "click":
        if model is None:
            model = SourceChannelModel(mu=mu)
        target = p_ok * poisson_click_sum(mu, model.eta_det, n_e - 1, nmax)
        return _solve_click_attenuation(model, mu, target)
    if rate_form == "photon":
        target = p_ok * poisson_photon_sum(mu, n_e, nmax)
        return 10.0 * math.log10(mu / target)
    raise ValueError("rate_form must be 'click' or 'photon'")


def nb_storing_critical(n_bases, n_stored, model=None, rate_form="click"):
    """Attenuation at which storing ``n_stored`` photons per pulse becomes
    rate invisible, with the information it yields.

    Click form: 1 - e^(-eta mu 10^(-d/10))
      = sum_{m>=n_s} p(m, mu) (1 - (1 - eta)^(m - n_s)).
    The stored copies are discriminated collectively, so the effective
    overlap is cos(pi/(2 n_b))^n_s.  Returns (delta_db, i_eve).
    """
    if n_stored < 1:
        raise ValueError("n_stored must be at least 1")
    mu = nb_mu(n_bases)
    nmax = poisson_cutoff(mu)
    overlap = nb_neighbor_overlap(n_bases) ** n_stored
    p_e = 0.5 * (1.0 - math.sqrt(1.0 - overlap * overlap))
    i_eve = qmath.binary_information(p_e)
    if rate_form == "click":
        if model is None:
            model = SourceChannelModel(mu=mu)
        target = poisson_click_sum(mu, model.eta_det, n_stored, nmax)
        delta = _solve_click_attenuation(model, mu, target)
    elif rate_form == "photon":
        target = poisson_photon_sum(mu, n_stored + 1, nmax)
        delta = 10.0 * math.log10(mu / target) if target > 0 else float("inf")
    else:
        raise ValueError("rate_form must be 'click' or 'photon'")
    return delta, i_eve


def nb_storing_ladder(n_bases, model=None):
    """Storing-attack ladder [(delta(n_s), I(n_s))] until it overtakes I_AB.

    Stops at the first rung whose information meets or exceeds the honest
    parties' information at that attenuation.  Past the Poisson cutoff no
    pulse holds n_s photons, so the rung is unreachable (infinite
    attenuation); reaching it first raises InfeasibleModelError.
    """
    mu = nb_mu(n_bases)
    if model is None:
        model = SourceChannelModel(mu=mu)
    ladder = []
    for n_s in itertools.count(1):
        delta, i_eve = nb_storing_critical(n_bases, n_s, model)
        if math.isinf(delta):
            raise InfeasibleModelError(
                f"storing ladder for {n_bases} bases: no reachable rung with {n_s} stored "
                f"photons, and no earlier rung gives the eavesdropper I_AB")
        ladder.append((delta, i_eve))
        i_ab = qmath.binary_information(photonics.qber_total(model, delta))
        if i_eve >= i_ab:
            return ladder


def nb_storing_info_at(ladder, delta_db):
    """Eavesdropper information at an attenuation, interpolating the ladder.

    Between rungs she mixes the two adjacent storing attacks; the mix is
    modeled as linear in attenuation between the rung endpoints.
    """
    if delta_db <= ladder[0][0]:
        return 0.0
    if delta_db >= ladder[-1][0]:
        return ladder[-1][1]
    for (d0, i0), (d1, i1) in zip(ladder, ladder[1:]):
        if d0 <= delta_db <= d1:
            t = (delta_db - d0) / (d1 - d0)
            return i0 + t * (i1 - i0)
    return ladder[-1][1]
