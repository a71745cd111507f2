"""Closed forms of the phase-covariant cloners, in ``math`` alone.

The equatorial clone fidelities of the two 2 -> 3 machines, and the sifted
attack of the two 1 -> 2 machines as a function of the disturbance, which
``curve clonfid`` and ``curve ieclon12`` print with no machine built, so
they start without NumPy.  ``cloning`` builds the machines themselves as
NumPy isometries, and its stacked evaluator ``sifted_points`` checks these
closed forms.
"""
from __future__ import annotations

import math

from .information import gap_information

CERF23_X_MAX = 1 / math.sqrt(8)  # the Bell-ancilla 2 -> 3 cloner's x range is [0, 1/sqrt 8]


def ng23_fidelities(gamma):
    if not 0.0 <= gamma <= math.pi / 2:
        raise ValueError("gamma must be in [0, pi/2]")
    f12 = (0.5 + math.cos(gamma) / (2.0 * math.sqrt(3.0 + math.cos(2 * gamma)))
           + 1.0 / math.sqrt(17.0 - math.cos(4 * gamma)))
    f3 = (0.5 + math.sin(gamma) / (2.0 * math.sqrt(3.0 + math.cos(2 * gamma)))
          + math.sin(2 * gamma) / math.sqrt(17.0 - math.cos(4 * gamma)))
    return f12, f3


def cerf23_fidelities(x):
    if not 0.0 <= x <= CERF23_X_MAX:
        raise ValueError("x must be in [0, 1/sqrt 8]")
    v = math.sqrt(max(0.0, 1.0 - 8.0 * x * x))
    return 1.0 - 2.0 * x * x, 1.0 - 0.5 * (v - 2.0 * x) ** 2


def bb84_reference_information(disturbance):
    """Optimal individual-attack information for basis-revealing sifting:
    1 - h(1/2 + sqrt(D (1 - D))), read from its gap sqrt(D (1 - D)).
    Crosses 1 - h(D) at D = (1 - 1/sqrt 2)/2."""
    if not 0.0 <= disturbance <= 0.5:
        raise ValueError("disturbance must be in [0, 1/2]")
    return gap_information(math.sqrt(disturbance * (1.0 - disturbance)))


def _sifted_12(d, c):
    """(q, 1/2 - q, 1/2 - p_e) of the sifted 1 -> 2 attack at disturbance d,
    with c = 1 - 2d passed in exactly: cos gamma for ng12, 2F - 1 for cerf12.

    q = 2d/(1 + 2d) (see ``cloning.sifted_points``), so
    1/2 - q = c/(2(1 + 2d)), and the gap of the eavesdropper's error is
    t = sqrt(2d(1 - d))/(1 + 2d): on ng12 both signals are accepted with
    weight 1 - (cos gamma)/2 and M has the eigenvalues
    +-sin gamma/(sqrt 2 (2 - cos gamma)), and cerf12 at F = 1 - d gives the
    same t, as clause 07b's Choi identity requires.
    """
    s = 1.0 + 2.0 * d
    return 2.0 * d / s, 0.5 * c / s, math.sqrt(2.0 * d * (1.0 - d)) / s


def ng12_sifted_rows(gammas):
    """The sifted attack of the 1 -> 2 cloners at each of ng12's gammas, in
    closed form and Python floats, with no machine built: one tuple
    (disturbance, qber_sifted, i_ab, i_eve, i_eve_bb84_ref) per gamma.

    The disturbance is D = sin^2(gamma/2) and each information is read from
    its gap by ``information.gap_information``, never from an error rate
    near 1/2.  i_eve is that of both machines, ng12 at gamma and cerf12 at
    F = 1 - D, and i_eve_bb84_ref is ``bb84_reference_information(D)``.
    """
    rows = []
    for g in gammas:
        if not 0.0 <= g <= math.pi / 2:
            raise ValueError("gamma must be in [0, pi/2]")
        d = math.sin(0.5 * g) ** 2
        q, gap_ab, gap_eve = _sifted_12(d, math.cos(g))
        rows.append((d, q, gap_information(gap_ab), gap_information(gap_eve),
                     bb84_reference_information(d)))
    return rows
