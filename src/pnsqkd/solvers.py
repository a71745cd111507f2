"""One-dimensional searches shared by the attack, key-rate and cloning layers.

Neither takes a tolerance: the root search runs until the bracket holds
two neighbouring floats, and the maximum search for a fixed number of
steps.  Their results depend only on the function, the bracket and the
step count, so a caller's output is reproducible to the last digit.  The
maximum search evaluates each distinct point once, and stops early once
its state alternates between two values, with the result of the full
step count.
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

    ``f`` must be a pure function of x: each distinct point is evaluated
    once, so the result equals that of evaluating f at every step.  The
    search runs in two phases.

    While a < c1 < c2 < b, every point evaluated before, other than c1 and
    c2, lies outside (a, b); so a new point strictly between the carried
    point and the far end is new, and f is called on it with no lookup.

    Once the bracket is a few ulps wide that order breaks, and points start
    to recur.  From then on values are looked up in a dict kept for this
    call only, seeded with a, b, c1 and c2 where evaluated.  All four lie in
    [a, b], and so does every later point, since a rounded a + g (b - a)
    lies between a and b; no other earlier point does.  The lookups are
    written inline, because a helper call per step would cost more than
    the arithmetic of a cheap ``f``.

    A step is a function of the state (a, b, c1, c2), since f(c1) and f(c2)
    follow from it.  Once a state equals the state two steps earlier, the
    remaining steps alternate between the last two states, and these have
    the same ends: two steps that move a would need f(c1) < f(a) and then
    f(a) < f(c1); two that move b bring it back only if b - g (b - a)
    rounds to b, that is if b == a; and a step of each kind returns to its
    state only if neither moved its end.  So the result is that of the
    current state, whatever the parity of the steps left, and the search
    stops there.  A cycle revisits a point on every step, so only such
    steps are compared.
    """
    a, b = lo, hi
    c1 = b - _GOLDEN * (b - a)
    c2 = a + _GOLDEN * (b - a)
    f1 = f(c1)
    f2 = f1 if c2 == c1 else f(c2)
    fa = fb = None  # f(a) and f(b), once the ends are evaluated points
    left = iters  # steps not taken by the ordered phase
    if a < c1 < c2 < b:
        for step in range(iters):
            if f1 < f2:
                a, fa, c1, f1 = c1, f1, c2, f2
                c2 = a + _GOLDEN * (b - a)
                if c1 < c2 < b:
                    f2 = f(c2)
                    continue
                f2 = None
            else:
                b, fb, c2, f2 = c2, f2, c1, f1
                c1 = b - _GOLDEN * (b - a)
                if a < c1 < c2:
                    f1 = f(c1)
                    continue
                f1 = None
            left = iters - 1 - step
            break
        else:
            left = 0
    values = {x: fx for x, fx in ((a, fa), (b, fb), (c1, f1), (c2, f2)) if fx is not None}
    # the point the step that broke the order computed, not yet evaluated
    if f1 is None:
        f1 = values.get(c1)
        if f1 is None:
            f1 = values[c1] = f(c1)
    elif f2 is None:
        f2 = values.get(c2)
        if f2 is None:
            f2 = values[c2] = f(c2)
    trail = []  # the state after each step that revisited a point
    fresh = -1  # the last step that evaluated a new point
    for step in range(left):
        if f1 < f2:
            a, c1, f1 = c1, c2, f2
            c2 = a + _GOLDEN * (b - a)
            f2 = values.get(c2)
            if f2 is None:
                f2 = values[c2] = f(c2)
                fresh = step
                continue
        else:
            b, c2, f2 = c2, c1, f1
            c1 = b - _GOLDEN * (b - a)
            f1 = values.get(c1)
            if f1 is None:
                f1 = values[c1] = f(c1)
                fresh = step
                continue
        state = (a, b, c1, c2)
        # trail[-2] is the state two steps back when neither step was fresh
        if step - fresh > 2 and state == trail[-2]:
            break
        trail.append(state)
    x = 0.5 * (a + b)
    fx = values.get(x)
    if fx is None:
        fx = f(x)
    return x, fx
