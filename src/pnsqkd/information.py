"""Binary mutual information, from an error probability or from its gap to
1/2, and the two closed forms that the pure-state attacks read it through:
the minimum error for two equiprobable pure states and the overlap of the
strong-pulse scheme's two-mode states.

``math`` alone: the scalar commands read these, and they start without
NumPy.
"""
from __future__ import annotations

import math

_TWO_LN2 = 2.0 * math.log(2.0)


def pure_state_error(overlap):
    """Minimum-error probability (1 - sqrt(1 - c^2)) / 2 for two
    equiprobable pure states with overlap c."""
    return 0.5 * (1.0 - math.sqrt(1.0 - overlap * overlap))


def binary_information(p):
    """Binary mutual information 1 + p log2 p + (1-p) log2 (1-p), in bits.

    0 log 0 is taken as 0; p is an error probability in [0, 1].  Near
    p = 1/2 the sum cancels to a rounding residue, which can be negative;
    the result is then 0.  A caller that knows the gap t = 1/2 - p calls
    ``gap_information(t)``, which keeps its relative precision there.  This
    form keeps its floats for a given p: the four-state storing information
    reads it, and the gap form would move that by 2 ulps and, through it,
    the optimal mu beyond its pinned benchmark reference.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError("probability out of range")
    out = 1.0
    if p > 0.0:
        out += p * math.log2(p)
    q = 1.0 - p
    if q > 0.0:
        out += q * math.log2(q)
    return out if out > 0.0 else 0.0


def gap_information(t):
    """``binary_information(1/2 - t)`` from the gap t in [0, 1/2], without
    forming p where that cancels.

    With x = 2t it is ((1 + x) log2(1 + x) + (1 - x) log2(1 - x))/2, taken
    below t = 1/4 as (2x atanh x + log1p(-x^2)) / (2 ln 2), whose two terms
    are about 2x^2 and -x^2; from t = 1/4 up, 1/2 - t is exact (Sterbenz)
    and p's form does not cancel.
    """
    if not 0.0 <= t <= 0.5:
        raise ValueError("gap out of range")
    if t >= 0.25:
        return binary_information(0.5 - t)
    x = 2.0 * t
    return (2.0 * x * math.atanh(x) + math.log1p(-x * x)) / _TWO_LN2


def two_mode_overlap(n, ratio):
    """Closed form |<phi_n(pi)|phi_n(0)>| = ((1-t)/(1+t))^n for t = ratio
    in [0, 1) and any real n >= 0, the overlap of two
    ``qmath.two_mode_number_state`` vectors with phases pi and 0.

    Taken in log space, exp(n (log1p(-t) - log1p(t))): rounding (1-t)/(1+t)
    and raising it to a large n (n ~ 1/t in the strong-pulse scheme) would
    amplify one ulp to ~1e-9 in the overlap.
    """
    if not 0.0 <= n < math.inf:
        raise ValueError("photon number n must be non-negative and finite")
    if not 0.0 <= ratio < 1.0:
        raise ValueError("intensity ratio must be in [0, 1)")
    return math.exp(n * (math.log1p(-ratio) - math.log1p(ratio)))
