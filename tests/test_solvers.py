"""Shared one-dimensional searches: bracketed root and golden-section maximum."""
import math

import pytest

from pnsqkd import photonics
from pnsqkd.keyrate import fourstate_key_rate
from pnsqkd.solvers import _GOLDEN, golden_max, root_decreasing


def golden_max_loop(f, lo, hi, iters):
    """Reference golden-section search that calls f at every step,
    revisited points included."""
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


def _recorded(f, calls):
    def g(x):
        calls.append(x)
        return f(x)
    return g


def test_root_returns_lo_when_already_nonpositive():
    calls = []
    assert root_decreasing(_recorded(lambda x: -1.0 - x, calls), 0.5, 3.0) == 0.5
    assert calls == [0.5]  # the hi end is never evaluated


def test_root_returns_hi_when_still_positive():
    # a one-rung ladder brackets its crossing with lo == hi
    assert root_decreasing(lambda x: 1.0, 2.5, 2.5) == 2.5
    assert root_decreasing(lambda x: 1.0 - x, 0.0, 0.5) == 0.5


def test_root_finds_sqrt2():
    root = root_decreasing(lambda x: 2.0 - x * x, 0.0, 2.0)
    assert abs(root - math.sqrt(2.0)) <= math.ulp(math.sqrt(2.0))


def test_root_does_not_stall_where_plain_regula_falsi_does():
    # plain regula falsi keeps the end at 2 for ever and creeps up from 0
    # (after 100,000 steps it is still below 0.2); bisection to the ulp
    # takes 56 calls
    calls = []
    assert root_decreasing(_recorded(lambda x: 1.0 - x ** 20, calls), 0.0, 2.0) == 1.0
    assert len(calls) < 56


def test_golden_max_finds_parabola_vertex():
    x, fx = golden_max(lambda x: -(x - 0.3) ** 2, 0.0, 1.0, 90)
    assert x == pytest.approx(0.3, abs=1e-8)
    assert fx == pytest.approx(0.0, abs=1e-15)


def _parabola(x):
    return -(x - 0.3) ** 2


@pytest.mark.parametrize("iters", [0, 1, 30, 90, 120])
def test_golden_max_evaluates_each_point_once(iters):
    calls, loop_calls = [], []
    golden_max(_recorded(_parabola, calls), 0.0, 1.0, iters)
    golden_max_loop(_recorded(_parabola, loop_calls), 0.0, 1.0, iters)
    assert len(calls) == len(set(calls))
    assert set(calls) == set(loop_calls)
    if iters == 120:  # the bracket is narrower than an ulp long before
        assert len(loop_calls) == 123 > len(calls)


def _plateau(x):
    return min(x, 0.4)  # f1 == f2 on most steps


def _key_rate_20db(mu):
    return fourstate_key_rate(mu, 20.0)


# step counts far past the 2-cycle, where the search stops early, in both
# parities; from [0, 1] a constant function never cycles, since its bracket
# still shrinks towards 0 after 1,001 steps
_PAST_THE_CYCLE = [pytest.param(f, lo, hi, iters, id=f"{name}-{iters}")
                   for name, f, lo, hi in [("parabola", _parabola, 0.0, 1.0),
                                           ("plateau", _plateau, 0.0, 1.0),
                                           ("constant", lambda x: 1.0, 0.5, 1.0),
                                           ("constant-from-0", lambda x: 1.0, 0.0, 1.0),
                                           ("increasing", lambda x: x, 0.0, 1.0),
                                           ("decreasing", lambda x: -x, 0.3, 0.5),
                                           ("key-rate-20dB", _key_rate_20db, 1e-3, 2.0)]
                   for iters in (200, 201, 1000, 1001)]


# at 0 dB the key-rate optimum sits at the cap of [1e-3, 2], at 20 and 25 dB inside it
@pytest.mark.parametrize("f, lo, hi, iters", [
    pytest.param(_parabola, 0.0, 1.0, 90, id="parabola-90"),
    pytest.param(_parabola, 0.0, 1.0, 120, id="parabola-120"),
    pytest.param(_plateau, 0.0, 1.0, 90, id="plateau"),
    pytest.param(lambda mu: fourstate_key_rate(mu, 0.0), 1e-3, 2.0, 120, id="key-rate-0dB"),
    pytest.param(_key_rate_20db, 1e-3, 2.0, 120, id="key-rate-20dB"),
    pytest.param(lambda mu: fourstate_key_rate(mu, 100 * photonics.DEFAULT_ALPHA_DB_PER_KM),
                 1e-3, 2.0, 120, id="key-rate-100km"),
] + _PAST_THE_CYCLE)
def test_golden_max_matches_the_unmemoized_loop(f, lo, hi, iters):
    assert golden_max(f, lo, hi, iters) == golden_max_loop(f, lo, hi, iters)


@pytest.mark.parametrize("f, lo, hi", [
    (lambda x: 1.0, 0.5, 1.0),
    (lambda x: x, 0.0, 1.0),
    (lambda x: -abs(x - 1.0), 1.0 - 2e-16, 1.0 + 4e-16),  # a bracket of a few ulps
    # about 0 the bracket shrinks into the subnormals, and the point that
    # breaks the order is new: c1 on [-5, 3], c2 on [-3, 5]
    (lambda x: -abs(x), -5.0, 3.0),
    (lambda x: -abs(x), -3.0, 5.0),
    (lambda x: 0.0, 1.0, 1.0),  # no point lies inside: no ordered phase
    (lambda x: -(x - 0.3) ** 2, 1.0, 0.0),  # reversed ends
])
def test_golden_max_evaluates_each_point_once_in_both_phases(f, lo, hi):
    # the ordered phase calls f without a lookup; the points it evaluated
    # must not be evaluated again once the order breaks
    calls, loop_calls = [], []
    assert golden_max(_recorded(f, calls), lo, hi, 300) == \
        golden_max_loop(_recorded(f, loop_calls), lo, hi, 300)
    assert len(calls) == len(set(calls))
    assert set(calls) == set(loop_calls)
