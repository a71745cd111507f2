"""One-dimensional searches of the key-rate and cloning layers.  The
four-state attack optimum runs the maximum search's steps in a loop of its
own, with its function inline and a stop on a 2-cycle.

Neither takes a tolerance: the root search runs until the bracket holds
two neighbouring floats, and the maximum search for a fixed number of
steps.  Their results depend only on the function, the bracket and the
step count, so a caller's output is reproducible to the last digit.
"""
from __future__ import annotations

import math

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def root_decreasing(f, lo, hi):
    """Root of a decreasing function on [lo, hi], to the last bit.

    Returns ``lo`` when f(lo) <= 0, without evaluating f(hi), and ``hi``
    when f(hi) > 0.  Otherwise the bracket [a, b] with f(a) > 0 >= f(b) is
    closed by regula falsi in its Illinois form (Dowell & Jarratt, BIT 11,
    1971): an end kept twice in a row has its f value halved in the secant,
    and a secant point not strictly inside the bracket is replaced by the
    midpoint.  Every step moves an end strictly inward, so the loop ends
    when no float lies strictly between a and b; of those two neighbours it
    returns the one with the smaller |f|.
    """
    fa = f(lo)
    if fa <= 0.0:
        return lo
    fb = f(hi)
    if fb > 0.0:
        return hi
    a, b = lo, hi
    wa, wb = fa, fb  # secant weights: the true values, halved by the Illinois rule
    kept = 0  # +1 after a step that kept b, -1 after one that kept a
    while True:
        x = (a * wb - b * wa) / (wb - wa)
        if not a < x < b:
            x = a + 0.5 * (b - a)
            if not a < x < b:
                return a if abs(fa) < abs(fb) else b
        fx = f(x)
        if fx > 0.0:
            a, fa, wa = x, fx, fx
            if kept == 1:
                wb *= 0.5
            kept = 1
        else:
            b, fb, wb = x, fx, fx
            if kept == -1:
                wa *= 0.5
            kept = -1


def golden_max(f, lo, hi, iters):
    """Maximum of a unimodal function on [lo, hi] by ``iters`` golden-section
    steps (Press et al., *Numerical Recipes*, section 10.2).  Returns
    (x, f(x)) at the midpoint of the final bracket.

    ``f`` is called once per step, and points recur once the bracket is a
    few ulps wide, so a caller whose ``f`` is costly caches it.
    """
    a, b = lo, hi
    c1 = b - _GOLDEN * (b - a)
    c2 = a + _GOLDEN * (b - a)
    f1, f2 = f(c1), f(c2)
    for _ in range(iters):
        if f1 < f2:
            a, c1, f1 = c1, c2, f2
            c2 = a + _GOLDEN * (b - a)
            f2 = f(c2)
        else:
            b, c2, f2 = c2, c1, f1
            c1 = b - _GOLDEN * (b - a)
            f1 = f(c1)
    x = 0.5 * (a + b)
    return x, f(x)
