"""Photon-number-splitting attack evaluations per protocol.

Each attack answers the same two questions: how many pulses can the
eavesdropper intercept while leaving the receiver's expected detection
rate unchanged, and how much information does she gain per accepted bit.
Critical attenuations are the loss levels beyond which she simulates the
full rate from multiphoton pulses alone and learns everything without
introducing errors.
"""
from __future__ import annotations

import bisect
import itertools
import math
from typing import NamedTuple

from . import information, photonics
from .photonics import (
    POSITIVE_SERIES_MU,
    SourceChannelModel,
    nonnegative_finite,
    poisson_click_sums,
    poisson_cutoff,
    poisson_moments,
    poisson_tails,
    positive_finite,
    transmission,
)
from .solvers import _GOLDEN

STORING_OVERLAP = 1.0 / math.sqrt(2.0)  # announced-pair overlap in the four-state protocol
BOB_FLOOR = 10.0  # photons the strong reference pulse must deliver to the receiver


class AttackPoint(NamedTuple):
    """Attack evaluation at a single attenuation."""

    q_passed: float
    i_eve: float


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
    required = mu * transmission(nonnegative_finite(delta_db, "attenuation"))
    if r_att >= required:
        return AttackPoint(0.0, 1.0)
    q = (required - r_att) / (mu - r_att)
    i_eve = (1.0 - q) * s_att / (q + (1.0 - q) * s_att)
    return AttackPoint(q, i_eve)


# ---------------------------------------------------------------------------
# standard two-basis protocol (split one photon off every multiphoton pulse)

def bb84_critical_attenuation(mu):
    """Attenuation where splitting alone reproduces the expected raw rate:
    10 log10(mu / (mu - 1 + e^-mu)).  Below mu = POSITIVE_SERIES_MU it is
    summed in logs as 10 log10(2 e^mu / (mu A)) with A of ``poisson_tails``,
    so that mu^2 cannot underflow.  Above mu = 1 the ratio tends to 1, so it
    is taken as -10 log10(1 - (1 - e^-mu)/mu) by log1p, which stays above 0
    where the ratio rounds to 1 (mu > 9e15)."""
    positive_finite(mu, "mu")
    if mu > 1.0:
        return -10.0 * math.log1p(math.expm1(-mu) / mu) / math.log(10.0)
    if mu >= POSITIVE_SERIES_MU:
        return 10.0 * math.log10(mu / poisson_moments(mu)[0])
    a = poisson_tails(mu)[0]
    return 10.0 * (math.log10(2.0) - math.log10(mu) - math.log10(a) + mu / math.log(10.0))


def bb84_pns(mu, delta_db, moments=None):
    """Photon-number-splitting attack point for the two-basis protocol.

    Solves q mu + (1-q) R = mu 10^(-delta/10) for the untouched fraction q
    and weighs full information on split pulses against silence on passed
    ones: I = (1-q) S / (q + (1-q) S) with S the multiphoton fraction.
    ``moments`` are ``poisson_moments(mu)``, computed here if not given.
    """
    positive_finite(mu, "mu")
    if moments is None:
        moments = poisson_moments(mu)
    r_split, s_multi, _, _ = moments
    return _rate_balanced_point(mu, delta_db, r_split, s_multi)


# ---------------------------------------------------------------------------
# four-plus-two protocol

def _fourtwo_s_c(eta):
    """Filter success probability s = 1 - cos(eta), written 2 sin^2(eta/2)
    so that it keeps full precision at small eta, and c = cos(eta)."""
    return 2.0 * math.sin(eta / 2.0) ** 2, math.cos(eta)


def _expm1_minus_x(x):
    """e^x - 1 - x, summed as its Taylor series where the closed form cancels;
    a NaN takes the closed form, so the series never sees it."""
    if not abs(x) < 1.0:
        return math.expm1(x) - x
    term, total, m = x * x / 2.0, 0.0, 2
    while total + term != total:
        total += term
        m += 1
        term *= x / m
    return total


def fourtwo_mu(eta, reference_mu=0.1):
    """Mean photon number keeping the sifted rate equal to the two-basis
    reference: mu = reference / (1 - cos eta)."""
    fourtwo_half_angle(eta, "eta")
    positive_finite(reference_mu, "reference_mu")
    s, _ = _fourtwo_s_c(eta)
    if s == 0.0:
        raise ValueError("eta too small: 1 - cos(eta) underflows to 0")
    mu = reference_mu / s
    if not math.isfinite(mu):
        raise ValueError(f"the mean photon number reference_mu / (1 - cos eta) = "
                         f"{reference_mu:g} / {s:g} overflows")
    return mu


def fourtwo_moments(eta, reference_mu=0.1):
    """(mu, E, F) of the filter attack on the four-plus-two protocol: the
    mean photon number of ``fourtwo_mu``, the photons per pulse delivered
    when the eavesdropper filters photons one at a time until a conclusive
    result, and the probability that a multiphoton pulse yields a conclusive
    filtered photon with at least one photon left to forward.

    A failed filter spoils its photon (forwarding it would cause errors),
    so from an n-photon pulse a success on trial k leaves n - k photons:
    E_n = sum_{k=1}^{n-1} s (1-s)^(k-1) (n-k) with s = 1 - cos eta.  Over
    the Poisson source this sums to
    E = mu - 1 + e^-mu - (c/s) F = (mu s - 1 + e^(-mu s)) / s
    with c = cos eta; the last form has no cancellation.  And
    F = sum_{n>=2} p_n (1 - c^(n-1))
      = P(n>=2) - (e^(-mu s) - e^-mu - mu c e^-mu) / c
      = (1 - e^(-mu s) - s (1 - e^-mu)) / c.
    The last form divides by c, so where mu c < 1 the sum of p_n c^(n-1)
    is taken as mu e^-mu (e^x - 1 - x)/x with x = mu c instead.

    ``fourtwo_mu`` checks eta and reference_mu, each once, and mu is then
    positive and finite.
    """
    mu = fourtwo_mu(eta, reference_mu)
    s, c = _fourtwo_s_c(eta)
    rate = _expm1_minus_x(-mu * s) / s
    x = mu * c
    if x >= 1.0:
        return mu, rate, (s * math.expm1(-mu) - math.expm1(-mu * s)) / c
    if mu < 1.0:
        multiphoton = math.exp(-mu) * _expm1_minus_x(mu)
    else:
        multiphoton = 1.0 - math.exp(-mu) * (1.0 + mu)
    kept = mu * math.exp(-mu) * _expm1_minus_x(x) / x if x > 0.0 else 0.0
    return mu, rate, multiphoton - kept


def fourtwo_half_angle(value, name):
    """``value`` if it is a state half-angle of the four-plus-two protocol,
    in (0, pi/2]; otherwise ValueError naming it."""
    if not 0 < value <= math.pi / 2:
        raise ValueError(f"{name} must be in (0, pi/2]")
    return value


def fourtwo_pns(eta, delta_db, reference_mu=0.1, moments=None):
    """Filter-based splitting attack point for the four-plus-two protocol.
    ``moments`` are ``fourtwo_moments(eta, reference_mu)``, computed here if
    not given."""
    if moments is None:
        moments = fourtwo_moments(eta, reference_mu)
    mu, rate, fraction = moments
    return _rate_balanced_point(mu, delta_db, rate, fraction)


# ---------------------------------------------------------------------------
# two-state protocol with a strong reference pulse

def strongpulse_b92(mu, delta_db):
    """Eavesdropper information against the strong-pulse two-state scheme:
    a weak signal of mean photon number mu plus a strong reference pulse.

    The reference must always arrive, so its mean photon number grows with
    the attenuation: mu' 10^(-delta/10) = BOB_FLOOR.  She measures the total
    photon number, forwards the floor the receiver expects and keeps the
    rest, then discriminates two pure states with overlap
    ((1-t)/(1+t))^(mu' - floor) where t = mu/mu'.  Returns
    (mu', t, overlap, error probability, information).  As the distance
    grows the overlap tends to e^(-2 mu), so the information saturates and
    the protocol stays secure at any loss.
    """
    if not 0 < mu < 1:
        raise ValueError("mu must be in (0, 1)")
    nonnegative_finite(delta_db, "attenuation")
    try:
        mu_prime = BOB_FLOOR * 10.0 ** (delta_db / 10.0)
    except OverflowError:
        mu_prime = math.inf
    if not math.isfinite(mu_prime):
        raise ValueError(f"attenuation {delta_db:g} dB too large: "
                         "the reference pulse overflows")
    ratio = mu / mu_prime
    overlap = information.two_mode_overlap(mu_prime - BOB_FLOOR, ratio)
    p_e = information.pure_state_error(overlap)
    return mu_prime, ratio, overlap, p_e, information.binary_information(p_e)


def strongpulse_asymptotic_info(mu):
    """Distance limit of the strong-pulse information: I(p_e(e^(-2 mu)))."""
    return information.binary_information(information.pure_state_error(math.exp(-2.0 * mu)))


# ---------------------------------------------------------------------------
# four-state protocol (two bases, alternative sifting)

def fourstate_irud_critical(mu):
    """Attenuation where unambiguous discrimination of three-photon pulses
    reproduces the expected rate: 10 log10(mu / (sum p_n (n-2) / 2)).  Below
    mu = POSITIVE_SERIES_MU it is summed in logs as
    10 log10(12 e^mu / (mu^2 C)) with C of ``poisson_tails``, so that mu^3
    cannot underflow."""
    positive_finite(mu, "mu")
    if mu >= POSITIVE_SERIES_MU:
        return 10.0 * math.log10(mu / poisson_moments(mu)[2])
    c = poisson_tails(mu)[2]
    return 10.0 * (math.log10(12.0) - 2.0 * math.log10(mu) - math.log10(c)
                   + mu / math.log(10.0))


def fourstate_irud_pns(mu, delta_db, moments=None):
    """Block-below-three attack point for the four-state protocol: pulses
    with >= 3 photons are discriminated unambiguously, the rest blocked.
    ``moments`` are ``poisson_moments(mu)``, computed here if not given."""
    positive_finite(mu, "mu")
    if moments is None:
        moments = poisson_moments(mu)
    _, _, r_irud, s_irud = moments
    return _rate_balanced_point(mu, delta_db, r_irud, s_irud)


def fourstate_storing_info():
    """Storing-attack information for the four-state announced pair."""
    return information.binary_information(information.pure_state_error(STORING_OVERLAP))


_FOURSTATE_STORING_INFO = fourstate_storing_info()


def _f_scan_indices(mu, required, r_store, s_store, r_irud, s_irud):
    """The f = k/100 indices holding the grid maximum; see fourstate_combined_info."""
    if not (s_irud > 1e-10 * s_store and r_store > 1.99 * r_irud):
        return range(101)
    k0 = math.floor(100.0 * ((r_store - required) / (r_store - r_irud)))
    w0, p = s_store * _FOURSTATE_STORING_INFO, mu - required
    t = ((s_irud - w0) * (required - r_store + p * s_store)
         - w0 * (r_store - r_irud + p * (s_irud - s_store)))
    # grid points past the window on the q > 0 side need the slope check
    if k0 <= 96 and not abs(t) * p > 2.0 ** -52 * mu * (s_store + s_irud) * (32.0 * p + 6e4 * mu):
        return range(101)
    return [0, *range(max(k0 - 2, 1), min(k0 + 2, 99) + 1), 100]


def fourstate_combined_info(mu, delta_db, moments=None):
    """Best undetectable mix of storing and multicopy-discrimination attacks.

    A fraction f of the attack capacity goes to unambiguous discrimination
    of >= 3-photon pulses (full information), 1 - f to storing one photon
    of every multiphoton pulse (0.399 bits after the announcement); the
    untouched fraction q balances the expected rate.  When the attack
    oversupplies photons the surplus successful pulses are discarded
    uniformly, which leaves the per-bit information unchanged.  f is the
    first maximum over f = k/100 (a NaN at 0 would win, a later one never)
    refined by 90 golden-section steps between its neighbours: the steps of
    ``solvers.golden_max`` and its result (the midpoint of the final bracket
    and I there), in a loop of their own that evaluates I inline, with the
    floats of ``info``, so that a step makes no call, and that stops on a
    2-cycle with the result of the full step count.  The grid point is kept
    where it beats that result.  Returns (i_eve, q_passed, f_irud).

    That maximum is read from at most seven points.  The kink
    f* = (R_split - R)/(R_split - R_irud), where the attack's photon rate
    a = f R_irud + (1 - f) R_split meets the required rate R, splits [0, 1]
    into pieces on which I is linear-fractional, so monotone (Charnes &
    Cooper 1962): I = W/V rises for q = 0, and I = (mu - R) W/d, with
    d = R - a + (mu - R) V, has slopes of the sign of t = W' d(0) - W(0) d'
    for q > 0.  With k0 = floor(100 f*) (f* is off by a few ulps), a grid
    point outside {0, 100} and [k0 - 2, k0 + 2] is below a window point of
    its piece by a relative margin, which must exceed both rounding errors
    (u = 2^-53).  For q = 0 these are <= 9u and the margin is >= 0.0099
    (1 - i_s) x/(1 + x)^2 >= 5.9e-13, x = S_irud/S_multi in (1e-10, 1].  For
    q > 0 the points lie 0.01 (0.02 outside the window) past the kink, so
    with R_split > 1.99 R_irud the errors 3u M (1 + a/(R - a)) + 13u,
    M = mu/(mu - R), are <= 623 u M (320 u M).  The margin is >= 0.0099
    |t|/(mu (S_irud + S_multi)), and t is known to 27u mu (S_irud + S_multi),
    so it is >= 1188 u M where |t| (mu - R) > 2^-52 mu (S_irud + S_multi)
    (32 (mu - R) + 6e4 mu).  Near the kink R - a cancels and the error grows
    like u R/(mu d), but those points are in the window.  Where a check fails
    (delta near 0, mu < 6e-10, a flat q > 0 piece) all 101 are read.
    ``moments`` are ``poisson_moments(mu)``, computed here if not given.
    """
    positive_finite(mu, "mu")
    required = mu * transmission(nonnegative_finite(delta_db, "attenuation"))
    if moments is None:
        moments = poisson_moments(mu)
    r_store, s_store, r_irud, s_irud = moments
    i_store = _FOURSTATE_STORING_INFO

    def info(f):
        g = 1.0 - f
        a = f * r_irud + g * r_store
        if a >= required:
            # q = 0 written out gives the q > 0 form's floats: 1.0 - 0.0 == 1.0,
            # 1.0 * f == f, 0.0 + wi == wi (wi >= 0), and +0 or -0 returns 0
            wi = f * s_irud
            ws = g * s_store
            denom = wi + ws
        else:
            q = (required - a) / (mu - a)
            p = 1.0 - q
            wi = p * f * s_irud
            ws = p * g * s_store
            denom = q + wi + ws
        if denom <= 0.0:
            return 0.0
        return (wi + ws * i_store) / denom

    scan = {k: info(k / 100.0) for k in _f_scan_indices(mu, required, *moments)}
    k = max(scan, key=scan.get)
    # the steps of solvers.golden_max(info, lo, hi, 90), with info written out
    lo, hi = max(k - 1, 0) / 100.0, min(k + 1, 100) / 100.0
    c1 = hi - _GOLDEN * (hi - lo)
    c2 = lo + _GOLDEN * (hi - lo)
    i1, i2 = info(c1), info(c2)
    # A step is a function of the state (lo, hi, c1, c2), since i1 and i2
    # follow from it.  Once a state equals the state two steps earlier, the
    # remaining steps alternate between the last two states, and these have
    # the same ends: two steps that move lo would need i1 < i(lo) and then
    # i(lo) < i1; two that move hi bring it back only if hi - g (hi - lo)
    # rounds to hi, that is if hi == lo; and a step of each kind returns to
    # its state only if neither moved its end.  So the result is that of the
    # current state, whatever the parity of the steps left, and the loop
    # stops there.  A step from a state with lo < c1 < c2 < hi moves an end
    # strictly inward, so such a state lies on no cycle, and an unordered
    # state that matches the one two unordered steps back matches the state
    # two steps back: back1 and back2 are those two unordered states.
    back1 = back2 = None
    for _ in range(90):
        up = i1 < i2
        if up:
            lo, c1, i1 = c1, c2, i2
            f = c2 = lo + _GOLDEN * (hi - lo)
        else:
            hi, c2, i2 = c2, c1, i1
            f = c1 = hi - _GOLDEN * (hi - lo)
        g = 1.0 - f
        a = f * r_irud + g * r_store
        if a >= required:
            wi = f * s_irud
            ws = g * s_store
            denom = wi + ws
        else:
            q = (required - a) / (mu - a)
            p = 1.0 - q
            wi = p * f * s_irud
            ws = p * g * s_store
            denom = q + wi + ws
        i_f = 0.0 if denom <= 0.0 else (wi + ws * i_store) / denom
        if up:
            i2 = i_f
        else:
            i1 = i_f
        if not lo < c1 < c2 < hi:
            state = (lo, hi, c1, c2)
            if state == back2:
                break
            back1, back2 = state, back1
    f_best = 0.5 * (lo + hi)
    i_best = info(f_best)
    if scan[k] > i_best:
        f_best, i_best = k / 100.0, scan[k]
    a = f_best * r_irud + (1.0 - f_best) * r_store
    return i_best, 0.0 if a >= required else (required - a) / (mu - a), f_best


# ---------------------------------------------------------------------------
# many-bases generalization

def nb_sifting_probability(n_bases):
    """Acceptance probability: (1/n_b) sin^2(pi / (2 n_b))."""
    return math.sin(math.pi / (2.0 * n_bases)) ** 2 / n_bases


def nb_mu(n_bases):
    """Mean photon number equalizing the sifted rate with the mu = 0.1
    two-basis reference: mu = n_b / (20 sin^2(pi / (2 n_b))).

    Every n_b-bases attack starts here, so this is where n_b is checked
    against the modelled domain 2..8.
    """
    if not 2 <= n_bases <= 8:
        raise ValueError("n_bases must be in 2..8")
    return 0.05 / nb_sifting_probability(n_bases)


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


def nb_click_sums(n_bases, model):
    """The click sums of ``poisson_click_sums`` at mu = nb_mu(n_bases) and the
    model's detector efficiency, to the Poisson cutoff of mu: one pass that
    holds the rate targets of both n_b-bases attacks."""
    mu = nb_mu(n_bases)
    return poisson_click_sums(mu, model.eta_det, poisson_cutoff(mu))


# discrimination loads NumPy for p_ok's eigensolve, which only
# nb_critical_usd needs; bound on that function's first call, so that the
# other scalar commands start without it.  The function cannot move: the
# benchmark traces both it and usd_optimal_pok, which it reads through the
# module at every call.
discrimination = None


def nb_critical_usd(n_bases, model=SourceChannelModel(), sums=None):
    """Critical attenuation against unambiguous discrimination of
    n_e = 2 n_b - 1 copies, where both sides count detector clicks:
      1 - e^(-eta mu 10^(-d/10))
        = p_ok sum_{m>=n_e} p(m, mu) (1 - (1 - eta)^(m - n_e + 1)).
    ``sums`` are ``nb_click_sums(n_bases, model)``, summed here if not given.
    """
    global discrimination
    if discrimination is None:
        from . import discrimination
    mu = nb_mu(n_bases)
    n_e = 2 * n_bases - 1
    p_ok = discrimination.usd_optimal_pok(n_bases)
    if sums is None:
        sums = nb_click_sums(n_bases, model)
    return _solve_click_attenuation(model, mu, p_ok * sums[n_e - 1])


def _storing_rungs(n_bases, model, sums):
    """(delta(n_s), I(n_s)) for n_s = 1, 2, ..., from the click sums ``sums``
    of ``nb_click_sums``.

    Both sides count detector clicks: 1 - e^(-eta mu 10^(-d/10))
      = sum_{m>=n_s} p(m, mu) (1 - (1 - eta)^(m - n_s)).
    The stored copies are discriminated collectively, so the effective
    overlap is cos(pi/(2 n_b))^n_s.  Past the Poisson cutoff the sum is 0
    and the attenuation infinite.
    """
    mu = nb_mu(n_bases)
    overlap = nb_neighbor_overlap(n_bases)
    for n_s in itertools.count(1):
        target = sums[n_s] if n_s < len(sums) else 0.0
        i_eve = information.binary_information(information.pure_state_error(overlap ** n_s))
        yield _solve_click_attenuation(model, mu, target), i_eve


def nb_storing_critical(n_bases, n_stored, model=SourceChannelModel()):
    """Rung ``n_stored`` of ``_storing_rungs``: the attenuation at which storing
    that many photons per pulse becomes rate invisible, and the information
    it yields, as (delta_db, i_eve)."""
    if n_stored < 1:
        raise ValueError("n_stored must be at least 1")
    rungs = _storing_rungs(n_bases, model, nb_click_sums(n_bases, model))
    return next(itertools.islice(rungs, n_stored - 1, None))


def honest_information(model, mu, delta_db):
    """Honest parties' information I_AB = 1 - h(q) at the model's QBER q.
    Below q = 1/4 it is taken from q; from there up, from the gap 1/2 - q of
    ``photonics.qber_gap``, which keeps the relative precision that 1 - h(q)
    and 0.5 - q lose near q = 1/2."""
    q = photonics.qber_total(model, mu, delta_db)
    if q < 0.25:
        return information.binary_information(q)
    return information.gap_information(photonics.qber_gap(model, mu, delta_db))


def nb_storing_ladder(n_bases, model=SourceChannelModel(), sums=None):
    """Storing-attack ladder [(delta(n_s), I(n_s))] until it overtakes I_AB.

    Stops at the first rung whose information meets or exceeds the honest
    parties' information at that attenuation.  Past the Poisson cutoff no
    pulse holds n_s photons, so the rung is unreachable (infinite
    attenuation); reaching it first raises InfeasibleModelError.  ``sums``
    are ``nb_click_sums(n_bases, model)``, summed here if not given.
    """
    mu = nb_mu(n_bases)
    if sums is None:
        sums = nb_click_sums(n_bases, model)
    ladder = []
    for n_s, (delta, i_eve) in enumerate(_storing_rungs(n_bases, model, sums), 1):
        if math.isinf(delta):
            raise InfeasibleModelError(
                f"storing ladder for {n_bases} bases: no reachable rung with {n_s} stored "
                f"photons, and no earlier rung gives the eavesdropper I_AB")
        ladder.append((delta, i_eve))
        if i_eve >= honest_information(model, mu, delta):
            return ladder


def _storing_infos(ladder, deltas):
    """``nb_storing_info_at`` at each attenuation of ``deltas`` in turn: one
    that is negative or not finite raises before any later one is read."""
    first, (last, i_last) = ladder[0][0], ladder[-1]
    infos = []
    for delta in deltas:
        if not 0.0 <= delta < math.inf:
            nonnegative_finite(delta, "attenuation")
        if delta <= first:
            infos.append(0.0)
        elif delta >= last:
            infos.append(i_last)
        else:
            # the first rung at or above delta, as a scan for d0 <= delta <= d1 finds it
            k = bisect.bisect_left(ladder, (delta,))
            (d0, i0), (d1, i1) = ladder[k - 1], ladder[k]
            infos.append(i0 + (delta - d0) / (d1 - d0) * (i1 - i0))
    return infos


def nb_storing_info_at(ladder, delta_db):
    """Eavesdropper information at an attenuation, interpolating the ladder.

    Between rungs she mixes the two adjacent storing attacks; the mix is
    modeled as linear in attenuation between the rung endpoints.
    """
    return _storing_infos(ladder, (delta_db,))[0]


def nb_storing_columns(n_bases, model, deltas):
    """([I_AB], [I_Eve]) at each attenuation of the sequence ``deltas``: the
    values of ``honest_information`` and of ``nb_storing_info_at`` on the
    ladder of ``nb_storing_ladder``, which is built once."""
    mu = nb_mu(n_bases)
    i_eve = _storing_infos(nb_storing_ladder(n_bases, model), deltas)
    return [honest_information(model, mu, delta) for delta in deltas], i_eve
