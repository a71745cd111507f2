"""Attack-model tests: rates, critical attenuations, information curves."""
import contextlib
import decimal
import io
import math
import random
import re

import numpy as np
import pytest

from pnsqkd import attacks, cli, cloning, information, keyrate, photonics, qmath, solvers
from pnsqkd.attacks import (
    bb84_critical_attenuation,
    bb84_pns,
    fourstate_combined_info,
    fourstate_irud_critical,
    fourstate_irud_pns,
    fourtwo_pns,
    nb_critical_usd,
    nb_mu,
    nb_storing_columns,
    nb_storing_critical,
    nb_storing_info_at,
    nb_storing_ladder,
    strongpulse_asymptotic_info,
    strongpulse_b92,
)
from pnsqkd.photonics import SourceChannelModel, poisson_click_sums, poisson_pmf
from pnsqkd.qmath import storing_attack_info
import oracle
from test_solvers import optimum_with_ends


class TestBB84:
    def test_no_loss_no_attack(self):
        pt = bb84_pns(0.1, 0.0)
        assert pt.q_passed == pytest.approx(1.0, abs=1e-12)
        assert pt.i_eve == pytest.approx(0.0, abs=1e-12)

    def test_critical_point(self):
        delta_c = bb84_critical_attenuation(0.1)
        assert delta_c == pytest.approx(13.15, abs=0.01)
        assert delta_c / 0.25 == pytest.approx(52.6, abs=0.1)

    def test_closed_form_invariant(self):
        for mu in (0.05, 0.1, 0.2, 0.5):
            expected = 10 * math.log10(mu / (mu - 1 + math.exp(-mu)))
            assert bb84_critical_attenuation(mu) == pytest.approx(expected, abs=1e-9)

    @pytest.mark.parametrize("mu", [5e-324, 1e-300, 1e-151, 1e-149, 1e-10, 1e-8, 1e-4,
                                    9.99e-4])
    def test_small_mu_matches_oracle(self, mu):
        # mu - 1 + e^-mu cancels to 0 at mu = 1e-10 (a ZeroDivisionError) and
        # mu^2 underflows below 1e-154
        want = float(oracle.bb84_critical_attenuation(mu))
        assert bb84_critical_attenuation(mu) == pytest.approx(want, rel=1e-15)

    def test_beyond_critical_full_information(self):
        delta_c = bb84_critical_attenuation(0.1)
        assert bb84_pns(0.1, delta_c + 0.01).i_eve == 1.0
        assert bb84_pns(0.1, delta_c + 5.0).i_eve == 1.0

    def test_rate_residuals(self):
        # the untouched fraction balances the rate: q mu + (1-q) R = mu T
        mu, split = 0.1, photonics.poisson_moments(0.1)[0]
        for d in np.linspace(0.0, 12.0, 40):
            q = bb84_pns(mu, d).q_passed
            assert abs(q * mu + (1 - q) * split - mu * photonics.transmission(d)) < 1e-10

    def test_monotone_information(self):
        i_eve = [bb84_pns(0.1, d).i_eve for d in np.linspace(0.0, 20.0, 80)]
        assert all(b >= a - 1e-12 for a, b in zip(i_eve, i_eve[1:]))


def _fourtwo_critical_attenuation(eta):
    """Attenuation where the filter attack alone supplies the expected rate."""
    mu, rate, _ = attacks.fourtwo_moments(eta)
    return 10 * math.log10(mu / rate)


class TestFourTwo:
    def test_orthogonal_limit_is_reference(self):
        # eta -> pi/2 reduces the filter to the identity: exactly the
        # one-photon-per-multiphoton-pulse splitting numbers
        got = _fourtwo_critical_attenuation(math.pi / 2)
        assert got == pytest.approx(bb84_critical_attenuation(0.1), abs=1e-9)

    def test_pi3_critical_distance(self):
        d_c = _fourtwo_critical_attenuation(math.pi / 3) / 0.25
        assert d_c == pytest.approx(52.0, abs=1.0)

    def test_sweep_nearly_angle_independent(self):
        dists = [_fourtwo_critical_attenuation(eta) / 0.25
                 for eta in (math.pi / 6, math.pi / 4, math.pi / 3)]
        assert max(dists) - min(dists) < 2.0

    def test_point_behaviour(self):
        pt0 = fourtwo_pns(math.pi / 3, 0.0)
        assert pt0.i_eve == pytest.approx(0.0, abs=1e-12)
        pt = fourtwo_pns(math.pi / 3, 20.0)
        assert pt.i_eve == 1.0


class TestFourTwoSums:
    @pytest.mark.parametrize("eta,mu", [(math.pi / 3, 0.2), (0.4, 1.3), (1.2, 0.7), (1.5, 2.5)])
    def test_oracle_closed_forms_match_the_defining_sums(self, eta, mu):
        # E = sum_n p_n sum_{k=1}^{n-1} s c^(k-1) (n - k),
        # F = sum_n p_n (1 - c^(n-1)), summed until p_n < 1e-60
        want_e, want_f = oracle.fourtwo_rate_and_fraction(eta, mu)
        with decimal.localcontext() as ctx:
            ctx.prec = 100
            c = oracle.decimal_cos(decimal.Decimal(eta))
            s, mu_d = 1 - c, decimal.Decimal(mu)
            p = (-mu_d).exp() * mu_d  # p_1
            e = f = decimal.Decimal(0)
            n = 1
            while n < 3 or p > decimal.Decimal(10) ** -60:
                n += 1
                p = p * mu_d / n
                e += p * sum(s * c ** (k - 1) * (n - k) for k in range(1, n))
                f += p * (1 - c ** (n - 1))
            assert abs(e - want_e) < decimal.Decimal(10) ** -50
            assert abs(f - want_f) < decimal.Decimal(10) ** -50

    @pytest.mark.parametrize("reference_mu", [0.1, 1.0])
    def test_closed_forms_match_oracle(self, reference_mu):
        # eta down to 1e-4 covers the c/s cancellation (mu ~ 2e7 there)
        etas = np.geomspace(1e-4, math.pi / 2, 60).tolist() + [math.pi / 3, math.pi / 2]
        for eta in etas:
            mu, got_e, got_f = attacks.fourtwo_moments(eta, reference_mu)
            want_e, want_f = oracle.fourtwo_rate_and_fraction(eta, mu)
            assert abs(decimal.Decimal(got_e) / want_e - 1) < 1e-14, eta
            assert abs(decimal.Decimal(got_f) / want_f - 1) < 1e-14, eta

    def test_small_eta_keeps_full_precision(self):
        # 1 - cos(eta) is written 2 sin^2(eta/2), which keeps full precision
        mu = attacks.fourtwo_mu(1e-6)
        assert mu == pytest.approx(0.1 / (2 * math.sin(5e-7) ** 2), rel=1e-15)
        with pytest.raises(ValueError, match="eta too small"):
            attacks.fourtwo_mu(1e-170)

    @pytest.mark.parametrize("eta, reference_mu", [(math.pi / 3, 1e308), (1e-160, 0.1)])
    def test_overflow_names_the_ratio(self, eta, reference_mu):
        # 1 - cos(eta) is still positive, so the ratio overflows, not eta
        with pytest.raises(ValueError, match=r"reference_mu / \(1 - cos eta\).* overflows"):
            attacks.fourtwo_mu(eta, reference_mu)


class TestStrongPulse:
    def test_model_construction(self):
        mu_prime, ratio, _, _, _ = strongpulse_b92(0.025, 20.0)
        assert mu_prime == pytest.approx(1000.0)
        assert ratio == pytest.approx(2.5e-5)
        # receiver floor exactly satisfied
        assert mu_prime * 10 ** (-20.0 / 10) == pytest.approx(10.0)

    def test_paper_scale_point(self):
        # delta = 20 dB, mu = 0.25: mu' = 1e3 and t = 1e-4/4 scaled by mu/0.025
        mu_prime, ratio, _, _, _ = strongpulse_b92(0.25, 20.0)
        assert mu_prime == pytest.approx(1000.0)
        assert ratio == pytest.approx(2.5e-4)

    def test_mu_validation(self):
        # mu is checked first, so an attenuation that overflows does not mask it
        for mu in (1.0, 0.0, math.nan):
            with pytest.raises(ValueError, match=r"mu must be in \(0, 1\)"):
                strongpulse_b92(mu, 1e6)

    def test_overflow_names_the_reference_pulse(self):
        # 10^(delta/10) overflows beyond about 3,083 dB; BOB_FLOOR times it
        # already at about 3,073 dB
        for delta in (3075.0, 1e6):
            with pytest.raises(ValueError, match=r"too large: the reference pulse overflows"):
                strongpulse_b92(0.1, delta)

    def test_asymptotes(self):
        assert strongpulse_asymptotic_info(0.025) == pytest.approx(0.0698, abs=1e-3)
        assert strongpulse_asymptotic_info(0.25) == pytest.approx(0.5232, abs=1e-3)

    def test_monotone_convergence(self):
        limit = strongpulse_asymptotic_info(0.025)
        vals = [strongpulse_b92(0.025, d)[4] for d in (5.0, 10.0, 20.0, 30.0, 40.0)]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
        assert all(v <= limit + 1e-12 for v in vals)
        assert vals[-1] == pytest.approx(limit, abs=1e-4)

    def test_large_loss_approaches_limit_from_below(self):
        # with t = mu/mu' -> 0 the overlap must stay accurate to rounding:
        # a naive ((1-t)/(1+t))^kept overshoots the limit by ~1e-9 here
        mu = 0.025
        limit = strongpulse_asymptotic_info(mu)
        vals = [strongpulse_b92(mu, 0.5 * k)[4] for k in range(120, 241)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))
        assert max(vals) <= limit
        assert strongpulse_b92(mu, 120.0)[2] == pytest.approx(math.exp(-2 * mu), abs=1e-12)

    def test_overlap_limit_relative_error(self):
        # mu' = 1e4: ((1-t)/(1+t))^mu' within 1e-3 relative of e^-2mu
        mu = 0.025
        mu_prime = 1e4
        t = mu / mu_prime
        got = ((1 - t) / (1 + t)) ** mu_prime
        assert abs(got - math.exp(-2 * mu)) / math.exp(-2 * mu) < 1e-3


class TestFourStateIrud:
    def test_critical_distance(self):
        delta_c = fourstate_irud_critical(0.2)
        assert delta_c / 0.25 == pytest.approx(100.0, abs=1.0)

    def test_closed_form_invariant(self):
        mu = 0.2
        expected = 10 * math.log10(2 * mu / (mu - 2 + math.exp(-mu) * (2 + mu)))
        assert fourstate_irud_critical(mu) == pytest.approx(expected, abs=1e-9)

    def test_bisection_oracle(self):
        # independent root solve of mu 10^(-d/10) = p_ok sum p_n (n-2)
        mu, p_ok = 0.2, 0.5
        target = p_ok * sum(poisson_pmf(n, mu) * (n - 2) for n in range(3, 60))
        lo, hi = 0.0, 60.0
        while hi - lo > 1e-9:
            mid = 0.5 * (lo + hi)
            if mu * 10 ** (-mid / 10) > target:
                lo = mid
            else:
                hi = mid
        assert fourstate_irud_critical(mu) == pytest.approx(0.5 * (lo + hi), abs=1e-6)

    def test_block_attack_full_information_from_critical_point(self):
        delta_c = fourstate_irud_critical(0.2)
        # at delta_c itself the rate balance is exact only up to rounding
        assert fourstate_irud_pns(0.2, delta_c).i_eve == pytest.approx(1.0, abs=1e-12)
        for d in (delta_c + 1e-9, delta_c + 0.5, delta_c + 20.0):
            assert fourstate_irud_pns(0.2, d).i_eve == 1.0
        for d in (0.0, 10.0, delta_c - 1.0, delta_c - 1e-6):
            assert fourstate_irud_pns(0.2, d).i_eve < 1.0

    def test_small_mu_rate(self):
        # numerator is cubic in mu, so the critical attenuation grows
        # like 20 log10(1/mu)
        d1 = fourstate_irud_critical(1e-3)
        d2 = fourstate_irud_critical(1e-4)
        assert d2 - d1 == pytest.approx(20.0, abs=0.2)

    @pytest.mark.parametrize("mu", [1e-12, 1e-10, 1e-8, 1e-6, 1e-5, 3e-5, 1e-4, 5e-4,
                                    9.99e-4])
    def test_small_mu_matches_oracle(self, mu):
        # the closed form cancels below mu = 1e-3: the critical attenuation
        # read +inf at mu = 1e-6 and 109.55 dB (for 110.79) at 1e-5
        critical = oracle.irud_critical_attenuation(mu)
        assert abs(decimal.Decimal(fourstate_irud_critical(mu)) / critical - 1) < 1e-14

    def test_tiny_mu_stays_finite(self):
        # mu^3 underflows below about 1.7e-108; the critical attenuation is
        # summed in logs, 10 log10(12 / mu^2) to leading order
        for mu in (1e-110, 1e-300, 5e-324):
            want = 10 * (math.log10(12.0) - 2 * math.log10(mu))
            assert fourstate_irud_critical(mu) == pytest.approx(want, rel=1e-15)

    def test_huge_mu_stays_finite(self):
        # mu * mu overflows to inf where exp(-mu) is 0; 0 * inf gave nan
        assert photonics.poisson_moments(1e200)[3] == 0.5
        for delta in (0.0, 1.25, 2.5, 30.0):
            values = fourstate_combined_info(1e200, delta)
            assert all(0.0 <= v <= 1.0 for v in values)


class TestStoring:
    def test_orthogonal_pair(self):
        _, info = storing_attack_info((qmath.KET_0, qmath.state([0, 1])))
        assert info == pytest.approx(1.0, abs=1e-12)

    def test_four_state_pair(self):
        p_e, info = storing_attack_info((qmath.PLUS_X, qmath.PLUS_Y))
        assert p_e == pytest.approx(0.1464466, abs=1e-6)
        assert info == pytest.approx(0.399, abs=1e-3)

    def test_eight_state_neighbor_pair(self):
        # overlap cos(pi/8) pair, evaluated against the closed form
        a = qmath.equatorial(0.0)
        b = qmath.equatorial(math.pi / 4)
        p_e, info = storing_attack_info((a, b))
        c = math.cos(math.pi / 8)
        assert p_e == pytest.approx(0.5 * (1 - math.sqrt(1 - c * c)), abs=1e-12)
        assert info == pytest.approx(information.binary_information(p_e), abs=1e-12)


class TestCombinedCurve:
    def test_zero_loss(self):
        i_eve, q, _ = fourstate_combined_info(0.2, 0.0)
        assert i_eve == pytest.approx(0.0, abs=1e-12)
        assert q == pytest.approx(1.0, abs=1e-12)

    def test_full_information_beyond_blocking_critical(self):
        delta_c = fourstate_irud_critical(0.2)
        i_eve, _, _ = fourstate_combined_info(0.2, delta_c + 0.1)
        assert i_eve == pytest.approx(1.0, abs=1e-9)

    def test_dominates_pure_strategies(self):
        mu = 0.2
        for delta in (8.0, 12.0, 16.0, 20.0):
            i_comb, _, _ = fourstate_combined_info(mu, delta)
            required = mu * 10 ** (-delta / 10)
            r_store, s_store, r_irud, s_irud = photonics.poisson_moments(mu)
            i_store = attacks.fourstate_storing_info()
            if r_store >= required:
                pure_storing = i_store
            else:
                q = (required - r_store) / (mu - r_store)
                pure_storing = (1 - q) * s_store * i_store / (q + (1 - q) * s_store)
            if r_irud >= required:
                pure_irud = 1.0
            else:
                q = (required - r_irud) / (mu - r_irud)
                pure_irud = (1 - q) * s_irud / (q + (1 - q) * s_irud)
            assert i_comb >= pure_storing - 1e-9
            assert i_comb >= pure_irud - 1e-9

    def test_monotone_curve(self):
        i_eve = [fourstate_combined_info(0.2, d)[0] for d in np.linspace(0.0, 26.0, 60)]
        assert all(b >= a - 1e-9 for a, b in zip(i_eve, i_eve[1:]))


def _combined_info_scan(mu, delta_db):
    """Reference attack optimum: the interpolated attack's information at
    every point of the 101-point f grid, then golden-section steps that
    call it at every step."""
    required = mu * photonics.transmission(delta_db)
    r_store, s_store, r_irud, s_irud = photonics.poisson_moments(mu)
    i_store = attacks.fourstate_storing_info()

    def q_of(f):
        a = f * r_irud + (1.0 - f) * r_store
        if a >= required:
            return 0.0
        return (required - a) / (mu - a)

    def info(f):
        q = q_of(f)
        wi = (1.0 - q) * f * s_irud
        ws = (1.0 - q) * (1.0 - f) * s_store
        denom = q + wi + ws
        if denom <= 0.0:
            return 0.0
        return (wi + ws * i_store) / denom

    grid = [k / 100.0 for k in range(101)]
    vals = [info(f) for f in grid]
    k_best = max(range(101), key=lambda k: vals[k])
    lo = grid[max(0, k_best - 1)]
    hi = grid[min(100, k_best + 1)]
    f_best, i_best = solvers.golden_max(info, lo, hi, 90)
    if vals[k_best] > i_best:
        f_best, i_best = grid[k_best], vals[k_best]
    return i_best, q_of(f_best), f_best


class TestCombinedOptimumMatchesScan:
    def test_random_points(self):
        rng = random.Random(20261018)
        kinds = set()
        for _ in range(400):
            mu = math.exp(rng.uniform(math.log(1e-3), math.log(2.0)))
            delta = rng.uniform(0.0, 45.0)
            result = fourstate_combined_info(mu, delta)
            assert result == _combined_info_scan(mu, delta), (mu, delta)
            _, q, f = result
            kinds.add("full" if f == 1.0 else "kink" if q == 0.0 else
                      "storing" if f < 1e-15 else "interior")
        # the sample reaches every branch of the optimum
        assert kinds == {"full", "kink", "storing", "interior"}

    @pytest.mark.parametrize("mu", [1e-3, 0.05, 0.2, 1.0, 2.0])
    def test_grid_points(self, mu):
        for delta in [0.0, 1e-12, 1.0, 3.0, 6.0, 10.0, 15.0, 20.0, 30.0, 45.0,
                      fourstate_irud_critical(mu), bb84_critical_attenuation(mu)]:
            assert fourstate_combined_info(mu, delta) == _combined_info_scan(mu, delta), delta

    def test_optimal_mu_at_default_distances(self):
        deltas = [distance * photonics.DEFAULT_ALPHA_DB_PER_KM for distance in range(4, 161, 4)]
        # and distances and losses drawn as the keyrate-scan benchmark draws them
        rng = random.Random(20261020)
        deltas += [round(rng.uniform(4.0, 160.0), 6) * round(rng.uniform(0.18, 0.3), 4)
                   for _ in range(10)]
        for delta in deltas:
            expected = optimum_with_ends(
                lambda mu: keyrate.key_rate(mu, delta, _combined_info_scan(mu, delta)[0]))
            assert keyrate.optimal_mu(delta) == expected, delta


def _record_scan_sizes(monkeypatch):
    """Count the candidate f indices of every ``fourstate_combined_info``
    call; returns the list that the counts are appended to."""
    sizes = []
    choose = attacks._f_scan_indices

    def recorded(*args):
        indices = choose(*args)
        sizes.append(len(indices))
        return indices

    monkeypatch.setattr(attacks, "_f_scan_indices", recorded)
    return sizes


class TestCombinedScanWindow:
    def test_window_matches_the_full_scan_over_the_domain(self, monkeypatch):
        sizes = _record_scan_sizes(monkeypatch)
        rng = random.Random(20261019)
        kinds = set()
        for i in range(3000):
            wide = i % 2 == 1
            lo, hi = (5e-324, 1.7e308) if wide else (1e-3, 2.0)
            mu = math.exp(rng.uniform(math.log(lo), math.log(hi)))
            kind = rng.choice(["zero", "small", "bb84", "irud", "kink", "uniform"])
            if kind == "zero":
                delta = 0.0
            elif kind == "small":  # mu - R cancels, so q's rounding is amplified
                delta = math.exp(rng.uniform(math.log(1e-17), math.log(0.1)))
            elif kind in ("bb84", "irud"):
                critical = (bb84_critical_attenuation if kind == "bb84"
                            else fourstate_irud_critical)(mu)
                delta = critical * (1.0 + rng.choice([0.0, 1e-15, -1e-15, 1e-12, -1e-12, 1e-9]))
            else:
                delta = None
                if kind == "kink":  # the kink within 1e-12 of f = k/100
                    r_store, _, r_irud, _ = photonics.poisson_moments(mu)
                    k = rng.randrange(101)
                    kink = k / 100.0 + rng.uniform(-1e-12, 1e-12)
                    required = r_store - kink * (r_store - r_irud)
                    if 0.0 < required < mu:
                        delta = -10.0 * math.log10(required / mu)
                        required = mu * photonics.transmission(delta)
                        if abs((r_store - required) / (r_store - r_irud) - k / 100.0) > 1e-12:
                            kind = "kink off the grid"
                if delta is None:
                    kind = "uniform"
                    delta = rng.uniform(0.0, 60.0)
            before = len(sizes)
            result = fourstate_combined_info(mu, delta)
            assert result == _combined_info_scan(mu, delta), (mu, delta)
            path = "window" if sizes[before] <= 7 else "all"
            kinds.add((kind, wide, path))
        # every kind of draw is taken, on both mu ranges and by both paths
        for kind in ("small", "bb84", "irud", "kink", "uniform"):
            for wide in (False, True):
                assert (kind, wide, "window") in kinds, (kind, wide)
            assert (kind, True, "all") in kinds, kind
        assert ("zero", False, "all") in kinds and ("zero", True, "all") in kinds

    def test_default_distance_curves_read_at_most_seven_points(self, monkeypatch):
        sizes = _record_scan_sizes(monkeypatch)
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["curve", "muopt"]) == 0
            assert cli.main(["curve", "figiepr", "--d", "4:120:1"]) == 0
        assert len(sizes) > 1000 and max(sizes) <= 7

    @pytest.mark.parametrize("mu,delta", [(0.2, 0.0), (1e-200, 10.0)])
    def test_zero_loss_and_tiny_mu_scan_every_point(self, monkeypatch, mu, delta):
        sizes = _record_scan_sizes(monkeypatch)
        fourstate_combined_info(mu, delta)
        assert sizes == [101]


def _scan_storing_info(ladder, delta_db):
    """Reference rung lookup: the first rung pair d0 <= delta_db <= d1 by a
    linear scan, interpolated linearly in attenuation."""
    if delta_db <= ladder[0][0]:
        return 0.0
    if delta_db >= ladder[-1][0]:
        return ladder[-1][1]
    for (d0, i0), (d1, i1) in zip(ladder, ladder[1:]):
        if d0 <= delta_db <= d1:
            t = (delta_db - d0) / (d1 - d0)
            return i0 + t * (i1 - i0)
    return ladder[-1][1]


class TestNbGeneralization:
    def test_mu_values(self):
        assert nb_mu(2) == pytest.approx(0.2, abs=1e-12)
        assert nb_mu(8) == pytest.approx(10.5097, abs=1e-3)

    def test_usd_critical_click_form(self):
        model = SourceChannelModel()
        delta1 = nb_critical_usd(2, model)
        # independent check: equality of the two click rates at the root
        from pnsqkd.discrimination import usd_optimal_pok

        mu = nb_mu(2)
        lhs = 1 - math.exp(-model.eta_det * mu * 10 ** (-delta1 / 10))
        rhs = usd_optimal_pok(2) * poisson_click_sums(mu, model.eta_det,
                                                      photonics.poisson_cutoff(mu))[2]
        assert lhs == pytest.approx(rhs, abs=1e-9)

    def test_storing_critical_bisection_matches_closed_form(self):
        # (3, 12) lies at ~126.8 dB, beyond any fixed 120 dB search bracket
        for n_b, n_s in [(3, 2), (3, 12)]:
            model = SourceChannelModel()
            delta, _ = nb_storing_critical(n_b, n_s, model)

            mu = nb_mu(n_b)
            target = poisson_click_sums(mu, model.eta_det, photonics.poisson_cutoff(mu))[n_s]
            # log1p: at ~1e-14 the target is lost to rounding in 1 - target
            expected = -10 * math.log10(-math.log1p(-target) / (model.eta_det * mu))
            assert delta == pytest.approx(expected, abs=1e-5)
            # the defining equation: the click rate at delta equals the target
            click = -math.expm1(-model.eta_det * mu * 10 ** (-delta / 10))
            assert click == pytest.approx(target, rel=1e-9)

    def test_storing_info_increases_with_copies(self):
        infos = [nb_storing_critical(2, ns)[1] for ns in range(1, 6)]
        assert all(b > a for a, b in zip(infos, infos[1:]))
        # many copies give full information
        assert nb_storing_critical(2, 40)[1] == pytest.approx(1.0, abs=1e-3)

    def test_storing_rung_domain(self):
        # no pulse holds more photons than the Poisson cutoff (36 at n_b = 2)
        assert math.isinf(nb_storing_critical(2, 40)[0])
        with pytest.raises(ValueError):
            nb_storing_critical(2, 0)

    def test_two_bases_single_copy_matches_storing_value(self):
        _, info = nb_storing_critical(2, 1)
        assert info == pytest.approx(0.399, abs=1e-3)

    def test_ladder_monotone(self):
        ladder = nb_storing_ladder(3)
        deltas = [d for d, _ in ladder]
        infos = [i for _, i in ladder]
        assert all(b > a for a, b in zip(deltas, deltas[1:]))
        assert all(b > a for a, b in zip(infos, infos[1:]))

    @pytest.mark.parametrize("n_bases", range(2, 9))
    def test_rung_lookup_matches_linear_scan(self, n_bases):
        ladder = nb_storing_ladder(n_bases)
        deltas = [d for d, _ in ladder]
        probes = [0.0, deltas[0] / 2, deltas[-1] + 1.0, 1e6]
        for d0, d1 in zip(deltas, deltas[1:]):
            probes.append((d0 + d1) / 2)
        for d in deltas:
            probes += [d, math.nextafter(d, -math.inf), math.nextafter(d, math.inf)]
        for delta in probes:
            assert nb_storing_info_at(ladder, delta) == _scan_storing_info(ladder, delta), delta

    @pytest.mark.parametrize("seed", range(12))
    def test_columns_equal_the_per_point_functions_bit_for_bit(self, seed):
        rng = random.Random(seed)
        n_bases = rng.randint(2, 8)
        model = SourceChannelModel(alpha=rng.uniform(0.15, 0.35),
                                   eta_det=rng.uniform(0.02, 1.0),
                                   p_d=0.0 if seed % 3 == 0 else 10 ** rng.uniform(-8, -3),
                                   qber_opt=rng.uniform(0.0, 0.06))
        try:
            ladder = nb_storing_ladder(n_bases, model)
        except attacks.InfeasibleModelError as exc:
            with pytest.raises(attacks.InfeasibleModelError, match=re.escape(str(exc))):
                nb_storing_columns(n_bases, model, [0.0])
            return
        rungs = [d for d, _ in ladder]
        deltas = [0.0, 1e4, rungs[0] / 2, rungs[-1] + 1.0, *rungs]
        deltas += [math.nextafter(d, side) for d in rungs for side in (-math.inf, math.inf)]
        deltas += [d * model.alpha for d in (rng.uniform(0.0, 400.0) for _ in range(60))]
        rng.shuffle(deltas)
        i_ab, i_eve = nb_storing_columns(n_bases, model, deltas)
        mu = nb_mu(n_bases)
        assert [x.hex() for x in i_ab] == [
            attacks.honest_information(model, mu, d).hex() for d in deltas]
        assert [x.hex() for x in i_eve] == [nb_storing_info_at(ladder, d).hex() for d in deltas]

    @pytest.mark.parametrize("bad", [math.inf, math.nan, -1.0])
    def test_columns_reject_an_attenuation_as_the_point_function_does(self, bad):
        ladder = nb_storing_ladder(2)
        with pytest.raises(ValueError) as expected:
            nb_storing_info_at(ladder, bad)
        with pytest.raises(ValueError, match=f"^{re.escape(str(expected.value))}$"):
            nb_storing_columns(2, SourceChannelModel(), [1.0, bad, 2.0])

    def test_exact_sums_no_weak_pulse_approximation(self):
        # at n_b = 8 the mean photon number is ~10.5; the click solver must
        # still satisfy its defining equation exactly
        model = SourceChannelModel()
        delta1 = nb_critical_usd(8, model)
        from pnsqkd.discrimination import usd_optimal_pok

        mu = nb_mu(8)
        lhs = 1 - math.exp(-model.eta_det * mu * 10 ** (-delta1 / 10))
        rhs = usd_optimal_pok(8) * poisson_click_sums(mu, model.eta_det,
                                                      photonics.poisson_cutoff(mu))[14]
        assert lhs == pytest.approx(rhs, rel=1e-6)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("call", [
    lambda x: bb84_pns(x, 1.0),
    lambda x: bb84_pns(0.1, x),
    lambda x: fourstate_irud_pns(x, 3.0),
    lambda x: fourtwo_pns(1.0, x),
    lambda x: fourtwo_pns(math.pi / 3, 10.0, x),
    lambda x: fourstate_irud_critical(x),
    lambda x: fourstate_combined_info(0.2, x),
    lambda x: strongpulse_b92(0.1, x),
    lambda x: photonics.qber_total(SourceChannelModel(), x, 10.0),
    lambda x: photonics.qber_total(SourceChannelModel(), 0.1, x),
    lambda x: nb_storing_info_at(nb_storing_ladder(2), x),
    lambda x: bb84_critical_attenuation(x),
    lambda x: keyrate.key_rate(x, 10.0, 0.1),
    lambda x: keyrate.key_rate(0.2, x, 0.1),
    lambda x: cloning.pns_cloning_attack(cloning.make_ngs23, x, 12.0, [0.3]),
    lambda x: cloning.pns_cloning_attack(cloning.make_ngs23, 0.2, x, [0.3]),
    lambda x: photonics.poisson_tails(x),  # its series looped forever on a NaN
    lambda x: attacks.fourtwo_moments(x),
    lambda x: attacks.fourtwo_moments(1.0, x),
    lambda x: attacks.fourtwo_mu(x),
], ids=["bb84_pns-mu", "bb84_pns-delta", "fourstate_irud_pns-mu", "fourtwo_pns-delta",
        "fourtwo_pns-mu", "fourstate_irud_critical-mu", "fourstate_combined_info-delta",
        "strongpulse_b92-delta", "qber_total-mu", "qber_total-delta", "nb_storing_info_at-delta",
        "bb84_critical_attenuation-mu", "key_rate-mu", "key_rate-delta",
        "pns_cloning_attack-mu", "pns_cloning_attack-delta", "poisson_tails-mu",
        "fourtwo_moments-eta", "fourtwo_moments-reference_mu", "fourtwo_mu-eta"])
def test_non_finite_input_is_rejected(call, bad):
    with pytest.raises(ValueError):
        call(bad)


@pytest.mark.parametrize("call", [
    lambda: attacks.fourtwo_moments(-1.0),
    lambda: attacks.fourtwo_moments(1.0, -1.0),
    lambda: attacks.fourtwo_mu(-1.0),
    lambda: photonics.poisson_tails(-1e-4),
], ids=["fourtwo_moments-eta", "fourtwo_moments-reference_mu", "fourtwo_mu-eta",
        "poisson_tails-mu"])
def test_negative_input_is_rejected(call):
    # fourtwo_mu(-1.0) returned a mean photon number for a negative angle
    with pytest.raises(ValueError):
        call()


def test_series_returns_nan_for_nan():
    # e^x - 1 - x took a Taylor series whose loop never ended on a NaN
    assert math.isnan(attacks._expm1_minus_x(math.nan))


@pytest.mark.parametrize("call", [
    lambda x: bb84_pns(0.2, x),
    lambda x: fourstate_irud_pns(0.2, x),
    lambda x: fourtwo_pns(1.0, x),
    lambda x: fourstate_combined_info(0.2, x),
    lambda x: keyrate.optimal_mu(x),
    lambda x: keyrate.key_rate(0.2, x, 0.1),
    lambda x: cloning.pns_cloning_attack(cloning.make_ngs23, 0.2, x, [0.3]),
    lambda x: photonics.qber_total(SourceChannelModel(), 0.1, x),
    lambda x: nb_storing_info_at(nb_storing_ladder(2), x),
    lambda x: strongpulse_b92(0.1, x),
], ids=["bb84_pns", "fourstate_irud_pns", "fourtwo_pns", "fourstate_combined_info",
        "optimal_mu", "key_rate", "pns_cloning_attack", "qber_total", "nb_storing_info_at",
        "strongpulse_b92"])
@pytest.mark.parametrize("delta", [-40.0, -3.0, -1e-300])
def test_negative_attenuation_is_rejected(call, delta):
    with pytest.raises(ValueError, match="attenuation must be non-negative and finite"):
        call(delta)


@pytest.mark.parametrize("reference_mu", [-0.1, 0.0, math.nan])
def test_nonpositive_reference_mu_is_rejected(reference_mu):
    # without the check, -0.1 and 0 gave I_Eve = 1 and NaN blamed eta
    with pytest.raises(ValueError, match="reference_mu must be positive and finite"):
        fourtwo_pns(math.pi / 3, 10.0, reference_mu)
