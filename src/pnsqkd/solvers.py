"""One-dimensional searches shared by the attack, key-rate and cloning layers.

Both are plain, fixed-schedule loops: their results depend only on the
function, the bracket and the tolerance or iteration count, so a caller's
output is reproducible to the last digit.
"""
from __future__ import annotations

import math

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def bisect_decreasing(f, lo, hi, tol):
    """Root of a decreasing function on [lo, hi] by bisection.

    Returns ``lo`` when f(lo) <= 0.  Otherwise the caller guarantees
    f(hi) <= 0; the bracket is halved until it is narrower than ``tol`` and
    its midpoint is returned.
    """
    if f(lo) <= 0.0:
        return lo
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if f(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def golden_max(f, lo, hi, iters):
    """Maximum of a unimodal function on [lo, hi] by ``iters`` golden-section
    steps.  Returns (x, f(x)) at the midpoint of the final bracket.

    ``f`` must be a pure function of x: each distinct point is evaluated
    once.  Once the bracket is narrower than an ulp of x, further steps
    revisit the same floats, and their values are looked up in a dict kept
    for this call only, so the result equals that of evaluating f at every
    step.  The lookups are written inline and ``f`` is called only on a
    miss, because a helper call per step would cost more than the
    arithmetic of a cheap ``f``.
    """
    values = {}
    a, b = lo, hi
    c1 = b - _GOLDEN * (b - a)
    c2 = a + _GOLDEN * (b - a)
    f1 = values[c1] = f(c1)
    f2 = values.get(c2)
    if f2 is None:
        f2 = values[c2] = f(c2)
    for _ in range(iters):
        if f1 < f2:
            a, c1, f1 = c1, c2, f2
            c2 = a + _GOLDEN * (b - a)
            f2 = values.get(c2)
            if f2 is None:
                f2 = values[c2] = f(c2)
        else:
            b, c2, f2 = c2, c1, f1
            c1 = b - _GOLDEN * (b - a)
            f1 = values.get(c1)
            if f1 is None:
                f1 = values[c1] = f(c1)
    x = 0.5 * (a + b)
    fx = values.get(x)
    if fx is None:
        fx = f(x)
    return x, fx
