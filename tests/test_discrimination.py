"""Filters, unambiguous discrimination and state-set structure tests."""
import math

import numpy as np
import pytest

from pnsqkd import qmath
from pnsqkd.discrimination import (
    b92_filter,
    b92_pair,
    b92_povm,
    filtered_overlap_bound,
    linear_independence_check,
    usd_optimal_pok,
)
from pnsqkd.qmath import apply_measurement, state
from conftest import random_qubit


def _conjugate_pair(eta):
    """The four-plus-two protocol's second set: the two-state pair turned
    by pi/2 about z, on the same parallel of the Bloch sphere."""
    c, s = math.cos(eta / 2), math.sin(eta / 2)
    return state([c, 1j * s]), state([c, -1j * s])


def _reflected_pair(eta):
    """The two-state pair reflected through the equatorial plane."""
    c, s = math.cos(eta / 2), math.sin(eta / 2)
    return state([s, -c]), state([s, c])


class TestStateSets:
    def test_b92_overlap(self):
        for eta in (0.3, math.pi / 4, math.pi / 3):
            psi0, psi1 = b92_pair(eta)
            assert abs(np.vdot(psi0, psi1)) == pytest.approx(math.cos(eta), abs=1e-12)


class TestB92Povm:
    def test_projective_limit(self):
        meas = b92_povm(math.pi / 2)
        res = apply_measurement(meas, b92_pair(math.pi / 2)[0])
        assert res[0][1] == pytest.approx(1.0, abs=1e-12)
        assert res[2][1] == pytest.approx(0.0, abs=1e-12)

    def test_inconclusive_probability(self):
        for eta in (0.4, math.pi / 3, 1.2):
            meas = b92_povm(eta)
            for signal in b92_pair(eta):
                res = apply_measurement(meas, signal)
                assert res[2][1] == pytest.approx(math.cos(eta), abs=1e-12)

    def test_unambiguous(self, rng):
        for eta in rng.uniform(0.1, math.pi / 2, size=20):
            meas = b92_povm(eta)
            psi0, psi1 = b92_pair(eta)
            a1 = dict(meas)["1"]
            # no misidentification in either direction: <psi_0|A_1^dag A_1|psi_0> = 0
            assert np.vdot(psi0, a1.conj().T @ a1 @ psi0).real \
                == pytest.approx(0.0, abs=1e-12)
            res = apply_measurement(meas, psi1)
            assert res[0][1] == pytest.approx(0.0, abs=1e-12)

    def test_range(self):
        with pytest.raises(ValueError):
            b92_povm(0.0)


class TestB92Filter:
    def test_success_probability_and_targets(self):
        eta = math.pi / 3
        meas = b92_filter(eta)
        for signal, target in zip(b92_pair(eta), (qmath.PLUS_X, qmath.MINUS_X)):
            res = apply_measurement(meas, signal)
            _, p_ok, post = res[0]
            assert p_ok == pytest.approx(0.5, abs=1e-12)
            assert np.vdot(target, post @ target).real == pytest.approx(1.0, abs=1e-12)

    def test_reproduces_povm_statistics(self):
        # filter followed by an x-basis measurement = three-outcome POVM
        eta = 0.8
        filt = b92_filter(eta)
        povm = b92_povm(eta)
        for signal in b92_pair(eta):
            _, p_ok, post = apply_measurement(filt, signal)[0]
            p_plus = np.vdot(qmath.PLUS_X, post @ qmath.PLUS_X).real
            stats = {"0": p_ok * p_plus, "1": p_ok * (1 - p_plus), "?": 1 - p_ok}
            direct = {label: p for label, p, _ in apply_measurement(povm, signal)}
            for k in stats:
                assert stats[k] == pytest.approx(direct[k], abs=1e-12)

    def test_fourtwo_geometry_maps_set_b_to_y_basis(self):
        eta = math.pi / 3
        psi0, psi1 = _conjugate_pair(eta)
        assert abs(np.vdot(psi0, psi1)) == pytest.approx(math.cos(eta), abs=1e-12)
        meas = b92_filter(eta)
        for psi, target in ((psi0, qmath.PLUS_Y), (psi1, qmath.equatorial(-math.pi / 2))):
            post = apply_measurement(meas, psi)[0][2]
            assert np.vdot(target, post @ target).real == pytest.approx(1.0, abs=1e-12)

    def test_near_projective_limit(self):
        res = apply_measurement(b92_filter(math.pi / 2 - 1e-8),
                                b92_pair(math.pi / 2 - 1e-8)[0])
        assert res[0][1] == pytest.approx(1.0, abs=1e-7)


class TestFilteredOverlapBound:
    def test_closed_form_pi3(self):
        new_ov, p_b = filtered_overlap_bound(math.pi / 3)
        assert new_ov == pytest.approx(0.8, abs=1e-12)
        assert new_ov >= 0.5

    def test_near_orthogonal_limit(self):
        new_ov, p_b = filtered_overlap_bound(math.pi / 2 - 1e-9)
        assert new_ov == pytest.approx(0.0, abs=1e-8)
        assert p_b == pytest.approx(1.0, abs=1e-8)

    def test_inequality_on_grid(self):
        for eta in np.linspace(1e-3, math.pi / 2 - 1e-3, 1000):
            new_ov, _ = filtered_overlap_bound(eta)
            assert new_ov >= math.cos(eta) - 1e-14

    def test_numeric_cross_check(self):
        # apply the explicit set-a orthogonalizing filter to the reflected
        # set and measure the new overlap and pass probability directly
        for eta in (0.5, 0.9, 1.2):
            psi0, psi1 = _reflected_pair(eta)
            assert abs(np.vdot(psi0, psi1)) == pytest.approx(math.cos(eta), abs=1e-12)
            a_ok = dict(b92_filter(eta))["ok"]
            img0 = a_ok @ psi0
            img1 = a_ok @ psi1
            got_overlap = abs(np.vdot(img0, img1)) / (np.linalg.norm(img0) * np.linalg.norm(img1))
            got_p = float(np.vdot(img0, img0).real)
            exp_overlap, exp_p = filtered_overlap_bound(eta)
            assert got_overlap == pytest.approx(exp_overlap, abs=1e-10)
            assert got_p == pytest.approx(exp_p, abs=1e-10)


class TestLinearIndependence:
    def test_orthogonal_pair(self):
        ok, det = linear_independence_check([qmath.KET_0, state([0, 1])])
        assert ok and det == pytest.approx(1.0)

    def test_four_states_three_copies(self):
        states = [qmath.equatorial(k * math.pi / 2) for k in range(4)]
        ok, _ = linear_independence_check(states)
        assert ok

    def test_random_five_states(self, rng):
        for _ in range(1000):
            states = [state(random_qubit(rng)) for _ in range(5)]
            ok, _ = linear_independence_check(states)
            assert ok

    def test_duplicate_rejected(self):
        with pytest.raises(ValueError):
            linear_independence_check([qmath.PLUS_X, qmath.PLUS_X])


class TestUsdOptimal:
    def test_anchor_two_bases(self):
        assert usd_optimal_pok(2) == pytest.approx(0.5, abs=1e-9)

    @pytest.mark.parametrize("nb", range(1, 9))
    def test_conjectured_closed_form(self, nb):
        assert usd_optimal_pok(nb) == pytest.approx(nb / 4 ** (nb - 1), rel=1e-13, abs=0)

    def test_range(self):
        with pytest.raises(ValueError):
            usd_optimal_pok(9)
