"""Photon statistics of the source, channel attenuation, detection and QBER.

An attenuated laser pulse with no external phase reference behaves as a
Poisson mixture of photon-number states with mean mu.  The channel is
described by its attenuation in dB; detection by an efficiency and a
dark-count probability per gate.  The detector click sums for every
photon-number offset come from one backward pass, and the four Poisson
moments the splitting and block-below-three attacks read come from one
function, ``poisson_moments``.

mu belongs to the protocol, not to ``SourceChannelModel``: the n_b-bases
attacks take it from ``attacks.nb_mu(n_b)``, and ``qber_total`` takes it as
an argument.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

DEFAULT_ALPHA_DB_PER_KM = 0.25


def positive_finite(value, name):
    """``value`` if it is a finite number > 0 (a mean photon number, a fiber
    loss); otherwise ValueError naming it."""
    if not 0.0 < value < math.inf:
        raise ValueError(f"{name} must be positive and finite")
    return value


def nonnegative_finite(value, name):
    """``value`` if it is a finite number >= 0 (an attenuation); otherwise
    ValueError naming it."""
    if not 0.0 <= value < math.inf:
        raise ValueError(f"{name} must be non-negative and finite")
    return value


@dataclass(frozen=True)
class SourceChannelModel:
    """Channel and detector parameters.

    alpha     fiber attenuation in dB/km
    eta_det   detector efficiency
    p_d       dark-count probability per gate
    qber_opt  optical error fraction
    """

    alpha: float = DEFAULT_ALPHA_DB_PER_KM
    eta_det: float = 0.1
    p_d: float = 1e-5
    qber_opt: float = 0.01

    def __post_init__(self):
        positive_finite(self.alpha, "alpha")
        if not 0 < self.eta_det <= 1:
            raise ValueError("eta_det must be in (0, 1]")
        if not 0 <= self.p_d < 1:
            raise ValueError("p_d must be in [0, 1)")
        if not 0 <= self.qber_opt < 0.5:
            raise ValueError("qber_opt must be in [0, 0.5)")


def transmission(delta_db):
    """Channel transmission 10^(-delta/10)."""
    return 10.0 ** (-delta_db / 10.0)


def poisson_pmf(n, mu):
    """Poisson probability e^(-mu) mu^n / n!, computed in log space."""
    if n < 0:
        raise ValueError("n must be non-negative")
    if mu < 0:
        raise ValueError("mu must be non-negative")
    if mu == 0.0:
        return 1.0 if n == 0 else 0.0
    return math.exp(-mu + n * math.log(mu) - math.lgamma(n + 1))


def poisson_cutoff(mu):
    """Truncation index N with sum_{n>N} p(n, mu) < 1e-12."""
    return int(math.ceil(mu + 12.0 * math.sqrt(mu) + 30.0))


def poisson_distribution(mu):
    """Truncated Poisson pmf as a list indexed by photon number."""
    return [poisson_pmf(n, mu) for n in range(poisson_cutoff(mu) + 1)]


def poisson_click_sums(mu, eta, nmax):
    """Click sums S(k) = sum over k < n <= nmax of p(n, mu) (1 - (1 - eta)^(n - k))
    for every offset k = 0..nmax, from one backward pass.

    S(k) = eta T(k) + (1 - eta) S(k + 1) with S(nmax) = 0 and T(k) the
    Poisson mass on k < n <= nmax; no term is negative, so nothing cancels.
    Poisson weights come from the stable multiplicative recurrence; the
    caller chooses ``nmax`` so that the neglected tail is below 1e-12."""
    if mu < 0.0:
        raise ValueError("mu must be non-negative")
    if nmax < 0:
        raise ValueError("nmax must be non-negative")
    pmf = [math.exp(-mu)]
    for n in range(1, nmax + 1):
        pmf.append(pmf[-1] * (mu / n))
    sums = [0.0] * (nmax + 1)
    tail, loss = 0.0, 1.0 - eta
    for k in range(nmax - 1, -1, -1):
        tail += pmf[k + 1]
        sums[k] = eta * tail + loss * sums[k + 1]
    return sums


def poisson_tails(mu):
    """(A, B, C, D): the Poisson sums over t_n = mu^n / n! that the splitting
    and block-below-three attacks read, each divided by its leading term,
      A = sum_{n>=2} (n-1) t_n / (mu^2/2)    B = sum_{n>=2} t_n / (mu^2/2)
      C = sum_{n>=3} (n-2) t_n / (mu^3/6)    D = sum_{n>=3} t_n / (mu^3/6),
    summed as positive series (for mu < 1e-3).  All four tend to 1 as mu -> 0,
    so callers can take logs where mu^2 or mu^3 underflows."""
    term, c, d, n = 1.0, 0.0, 0.0, 3
    while c + (n - 2) * term != c:
        d += term
        c += (n - 2) * term
        n += 1
        term *= mu / n
    # over mu^2/2 the n >= 3 terms are mu/3 times their values over mu^3/6
    third = mu / 3.0
    return 1.0 + third * (c + d), 1.0 + third * d, c, d


def poisson_moments(mu):
    """(R_split, S_multi, R_irud, S_irud) of the Poisson source:
      R_split = sum_{n>=2} (n-1) p_n = mu - 1 + e^-mu
      S_multi = P(n >= 2)            = 1 - e^-mu (1 + mu)
      R_irud  = sum_{n>=3} (n-2) p_n / 2 = (mu - 2 + e^-mu (2 + mu)) / 2
      S_irud  = P(n >= 3) / 2            = (1 - e^-mu (1 + mu + mu^2/2)) / 2,
    the photons per pulse and the share of pulses that splitting one photon
    off (two-basis) and unambiguous three-copy discrimination concluding with
    probability 1/2 (four-state) give the eavesdropper.  The closed forms
    cancel below mu = 1e-3, where the ``poisson_tails`` series are taken."""
    head = math.exp(-mu)
    if mu < 1e-3:
        a, b, c, d = poisson_tails(mu)
        two = head * (mu * mu / 2.0)
        three = head * (mu * mu * mu / 12.0)
        return two * a, two * b, three * c, three * d
    # mu * mu overflows above about 1.3e154, where exp(-mu) is already 0
    return (mu - 1.0 + head, 1.0 - head * (1.0 + mu),
            0.5 * (mu - 2.0 + head * (2.0 + mu)),
            0.5 * (1.0 - (head * (1.0 + mu + 0.5 * mu * mu) if head else 0.0)))


def qber_total(model, mu, delta_db):
    """Total QBER at mean photon number ``mu``: dark-count term plus the
    optical error.

    (p_d / 2) / (p_d + mu eta_det 10^(-delta/10)) + qber_opt, clamped to
    [0, 0.5] (information is symmetric beyond one half).  Without dark
    counts the first term is 0 at every attenuation, also where the
    transmission underflows to 0.
    """
    # one chained test on the hot path; the helpers only word the error
    if not (0.0 < mu < math.inf and 0.0 <= delta_db < math.inf):
        positive_finite(mu, "mu")
        nonnegative_finite(delta_db, "attenuation")
    signal = mu * model.eta_det * transmission(delta_db)
    dark = (model.p_d / 2.0) / (model.p_d + signal) if model.p_d else 0.0
    return min(dark + model.qber_opt, 0.5)
