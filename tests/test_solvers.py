"""Shared one-dimensional searches: bracketed root and golden-section maximum."""
import functools
import math
import random

import pytest

from pnsqkd import attacks, keyrate, photonics
from pnsqkd.keyrate import fourstate_key_rate
from pnsqkd.solvers import golden_max, root_decreasing


def optimum_with_ends(rate):
    """optimal_mu's rule over a plain rate: the golden search's (mu, rate),
    or an end of [1e-3, MU_SEARCH_MAX] whose rate is strictly larger."""
    best = golden_max(rate, 1e-3, keyrate.MU_SEARCH_MAX, 120)
    for end in (1e-3, keyrate.MU_SEARCH_MAX):
        r = rate(end)
        if r > best[1]:
            best = end, r
    return best


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


def _plateau(x):
    return min(x, 0.4)  # f1 == f2 on most steps


def _key_rate_20db(mu):
    return fourstate_key_rate(mu, 20.0)


# step counts far past the step where the state starts to alternate
# between two values, in both parities; from [0, 1] a constant function
# never cycles, since its bracket still shrinks towards 0 after 1,001 steps
_PAST_THE_CYCLE = [pytest.param(f, lo, hi, iters, id=f"{name}-{iters}")
                   for name, f, lo, hi in [("parabola", _parabola, 0.0, 1.0),
                                           ("plateau", _plateau, 0.0, 1.0),
                                           ("constant", lambda x: 1.0, 0.5, 1.0),
                                           ("constant-from-0", lambda x: 1.0, 0.0, 1.0),
                                           ("increasing", lambda x: x, 0.0, 1.0),
                                           ("decreasing", lambda x: -x, 0.3, 0.5),
                                           ("key-rate-20dB", _key_rate_20db, 1e-3, 2.0)]
                   for iters in (200, 201, 1000, 1001)]

# brackets run far past the step where their order breaks, 300 steps each
_ODD_BRACKETS = [
    pytest.param(lambda x: 1.0, 0.5, 1.0, 300, id="constant-300"),
    pytest.param(lambda x: x, 0.0, 1.0, 300, id="increasing-300"),
    pytest.param(lambda x: -abs(x - 1.0), 1.0 - 2e-16, 1.0 + 4e-16, 300, id="few-ulps-300"),
    # about 0 the bracket shrinks into the subnormals, and the point that
    # breaks the order is c1 on [-5, 3], c2 on [-3, 5]
    pytest.param(lambda x: -abs(x), -5.0, 3.0, 300, id="abs-c1-breaks-300"),
    pytest.param(lambda x: -abs(x), -3.0, 5.0, 300, id="abs-c2-breaks-300"),
    pytest.param(lambda x: 0.0, 1.0, 1.0, 300, id="equal-ends-300"),  # never ordered
    pytest.param(_parabola, 1.0, 0.0, 300, id="reversed-300"),
]


# at 0 dB the key-rate optimum sits at the cap of [1e-3, 2], at 20 and 25 dB inside it
@pytest.mark.parametrize("f, lo, hi, iters", [
    pytest.param(_parabola, 0.0, 1.0, 90, id="parabola-90"),
    pytest.param(_parabola, 0.0, 1.0, 120, id="parabola-120"),
    pytest.param(_plateau, 0.0, 1.0, 90, id="plateau"),
    pytest.param(lambda mu: fourstate_key_rate(mu, 0.0), 1e-3, 2.0, 120, id="key-rate-0dB"),
    pytest.param(_key_rate_20db, 1e-3, 2.0, 120, id="key-rate-20dB"),
    pytest.param(lambda mu: fourstate_key_rate(mu, 100 * photonics.DEFAULT_ALPHA_DB_PER_KM),
                 1e-3, 2.0, 120, id="key-rate-100km"),
] + _PAST_THE_CYCLE + _ODD_BRACKETS)
def test_golden_max_matches_the_unmemoized_loop(f, lo, hi, iters):
    # golden_max is the plain loop, and the cache optimal_mu puts in front
    # of it changes nothing
    _assert_plain_loop(f, lo, hi, iters)
    assert golden_max(functools.cache(f), lo, hi, iters) == golden_max(f, lo, hi, iters)


def _assert_plain_loop(f, lo, hi, iters):
    """golden_max calls f at both inner points, once per step, revisits
    included, and at the midpoint, and returns that last call's finite
    (x, f(x)) from inside the bracket."""
    calls = []
    x, fx = golden_max(_recorded(f, calls), lo, hi, iters)
    assert len(calls) == iters + 3
    assert calls[-1] is x and math.isfinite(x) and math.isfinite(fx)
    assert fx == f(x) and min(lo, hi) <= x <= max(lo, hi)


def _draw_bracket(kind, rng):
    if kind == "random":
        return sorted(rng.uniform(-10.0, 10.0) for _ in range(2))
    if kind == "few-ulps":
        lo = hi = rng.uniform(-10.0, 10.0)
        for _ in range(rng.randint(1, 8)):
            hi = math.nextafter(hi, math.inf)
        return lo, hi
    if kind == "subnormal":
        return sorted(rng.randint(-1000, 1000) * 5e-324 for _ in range(2))
    if kind == "reversed":
        return sorted((rng.uniform(-10.0, 10.0) for _ in range(2)), reverse=True)
    x = rng.uniform(-10.0, 10.0)  # equal ends
    return x, x


_SHAPES = {
    "parabola": lambda m: lambda x: -(x - m) ** 2,
    "plateau": lambda m: lambda x: min(x, m),
    "constant": lambda m: lambda x: 1.0,
    "monotone": lambda m: lambda x: -x,
    "abs": lambda m: lambda x: -abs(x - m),
    "step": lambda m: lambda x: 1.0 if x < m else 0.0,
}


@pytest.mark.parametrize("kind", ["random", "few-ulps", "subnormal", "reversed", "equal-ends"])
def test_golden_max_matches_the_loop_on_drawn_brackets(kind):
    # odd brackets and shapes: every step still calls f, and the result is
    # a finite point of the bracket and its value
    rng = random.Random(f"golden-{kind}")
    for _ in range(20):
        lo, hi = _draw_bracket(kind, rng)
        m = lo + rng.random() * (hi - lo)  # the shape's break point, inside the bracket
        for make in _SHAPES.values():
            for iters in (0, 1, 2, 3, 90, 120, 1001):
                _assert_plain_loop(make(m), lo, hi, iters)


def test_golden_max_runs_every_step():
    # iters + 3 calls: the two inner points, one per step and the midpoint,
    # though the parabola's state alternates between two values long before
    # step 200
    calls = []
    golden_max(_recorded(_parabola, calls), 0.0, 1.0, 200)
    assert len(calls) == 203


def test_golden_max_keeps_the_sign_of_a_zero_midpoint():
    # f(-0.0) is -0.0, though -0.0 == 0.0 (a lookup keyed by x would mix them)
    x, fx = golden_max(lambda x: x, -5e-324, 5e-324, 1001)
    assert math.copysign(1.0, x) == math.copysign(1.0, fx) == -1.0


@pytest.mark.parametrize("delta", [0.0, 10.0, 20.0, 25.0, 30.0])
def test_optimal_mu_runs_the_attack_optimum_once_per_mu(delta, monkeypatch):
    # the mu search revisits points once its bracket is a few ulps wide, and
    # its cached rate runs the costly attack optimum once per distinct mu,
    # both ends of the range included
    loop_mus = []
    expected = optimum_with_ends(_recorded(lambda mu: fourstate_key_rate(mu, delta), loop_mus))
    calls = []
    combined = attacks.fourstate_combined_info
    monkeypatch.setattr(attacks, "fourstate_combined_info",
                        lambda mu, d: calls.append(mu) or combined(mu, d))
    assert keyrate.optimal_mu(delta) == expected
    assert len(calls) == len(set(calls)) < len(loop_mus)
    assert set(calls) == set(loop_mus) >= {1e-3, keyrate.MU_SEARCH_MAX}
