"""Shared one-dimensional searches: bisection and golden-section maximum."""
import math

import pytest

from pnsqkd.solvers import bisect_decreasing, golden_max


def test_bisect_returns_lo_when_already_nonpositive():
    calls = []

    def f(x):
        calls.append(x)
        return -1.0 - x

    assert bisect_decreasing(f, 0.5, 3.0, 1e-9) == 0.5
    assert calls == [0.5]  # the hi end is never evaluated


def test_bisect_finds_sqrt2():
    tol = 1e-10
    root = bisect_decreasing(lambda x: 2.0 - x * x, 0.0, 2.0, tol)
    assert abs(root - math.sqrt(2.0)) <= tol


def test_golden_max_finds_parabola_vertex():
    x, fx = golden_max(lambda x: -(x - 0.3) ** 2, 0.0, 1.0, 90)
    assert x == pytest.approx(0.3, abs=1e-8)
    assert fx == pytest.approx(0.0, abs=1e-15)
