"""Attack-model tests: rates, critical attenuations, information curves."""
import math

import numpy as np
import pytest

from pnsqkd import attacks, photonics, qmath
from pnsqkd.attacks import (
    StrongPulseModel,
    b92_weakpulse_analysis,
    bb84_critical_attenuation,
    bb84_pns,
    bb84_pns_curve,
    bb84_split_rate,
    fourstate_combined_curve,
    fourstate_combined_info,
    fourstate_irud_critical,
    fourstate_irud_pns,
    fourtwo_critical_attenuation,
    fourtwo_pns,
    nb_critical_usd,
    nb_mu,
    nb_storing_critical,
    nb_storing_ladder,
    storing_attack_info,
    strongpulse_asymptotic_info,
    strongpulse_b92,
)
from pnsqkd.photonics import SourceChannelModel, poisson_click_sum, poisson_pmf


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

    def test_beyond_critical_full_information(self):
        delta_c = bb84_critical_attenuation(0.1)
        assert bb84_pns(0.1, delta_c + 0.01).i_eve == 1.0
        assert bb84_pns(0.1, delta_c + 5.0).i_eve == 1.0

    def test_rate_residuals(self):
        report = bb84_pns_curve(0.1, np.linspace(0.0, 12.0, 40))
        assert max(report.rate_residual) < 1e-10

    def test_monotone_information(self):
        report = bb84_pns_curve(0.1, np.linspace(0.0, 20.0, 80))
        assert all(b >= a - 1e-12 for a, b in zip(report.i_eve, report.i_eve[1:]))

    def test_split_rate_oracle(self):
        # direct truncated sum of p_n (n - 1)
        oracle = sum(poisson_pmf(n, 0.1) * (n - 1) for n in range(2, 60))
        assert bb84_split_rate(0.1) == pytest.approx(oracle, abs=1e-14)


class TestB92Weakpulse:
    def test_orthogonal_limit(self):
        report = b92_weakpulse_analysis(math.pi / 2, 0.1)
        assert report.critical_delta_db == pytest.approx(0.0, abs=1e-12)

    def test_pi3(self):
        report = b92_weakpulse_analysis(math.pi / 3, 0.1)
        assert report.critical_delta_db == pytest.approx(-10 * math.log10(0.5), abs=1e-9)
        assert report.critical_delta_db == pytest.approx(3.01, abs=0.01)

    def test_small_angle_diverges(self):
        report = b92_weakpulse_analysis(0.01, 0.1)
        assert report.critical_delta_db > 40.0

    def test_step_curve(self):
        report = b92_weakpulse_analysis(math.pi / 3, 0.1, delta_grid=[1.0, 2.0, 4.0, 6.0])
        assert report.i_eve == [0.0, 0.0, 1.0, 1.0]


class TestFourTwo:
    def test_orthogonal_limit_is_reference(self):
        # eta -> pi/2 reduces the filter to the identity: exactly the
        # one-photon-per-multiphoton-pulse splitting numbers
        got = fourtwo_critical_attenuation(math.pi / 2)
        assert got == pytest.approx(bb84_critical_attenuation(0.1), abs=1e-9)

    def test_pi3_critical_distance(self):
        d_c = fourtwo_critical_attenuation(math.pi / 3) / 0.25
        assert d_c == pytest.approx(52.0, abs=1.0)

    def test_sweep_nearly_angle_independent(self):
        dists = [fourtwo_critical_attenuation(eta) / 0.25
                 for eta in (math.pi / 6, math.pi / 4, math.pi / 3)]
        assert max(dists) - min(dists) < 2.0

    def test_point_behaviour(self):
        pt0 = fourtwo_pns(math.pi / 3, 0.0)
        assert pt0.i_eve == pytest.approx(0.0, abs=1e-12)
        pt = fourtwo_pns(math.pi / 3, 20.0)
        assert pt.i_eve == 1.0
        assert pt.rate_residual < 1e-10


class TestStrongPulse:
    def test_model_construction(self):
        m = StrongPulseModel(0.025, 20.0)
        assert m.mu_prime == pytest.approx(1000.0)
        assert m.intensity_ratio == pytest.approx(2.5e-5)
        # receiver floor exactly satisfied
        assert m.mu_prime * 10 ** (-20.0 / 10) == pytest.approx(10.0)

    def test_paper_scale_point(self):
        # delta = 20 dB, mu = 0.25: mu' = 1e3 and t = 1e-4/4 scaled by mu/0.025
        m = StrongPulseModel(0.25, 20.0)
        assert m.mu_prime == pytest.approx(1000.0)
        assert m.intensity_ratio == pytest.approx(2.5e-4)

    def test_mu_validation(self):
        with pytest.raises(ValueError):
            StrongPulseModel(1.0, 10.0)

    def test_asymptotes(self):
        assert strongpulse_asymptotic_info(0.025) == pytest.approx(0.0698, abs=1e-3)
        assert strongpulse_asymptotic_info(0.25) == pytest.approx(0.5232, abs=1e-3)

    def test_monotone_convergence(self):
        limit = strongpulse_asymptotic_info(0.025)
        vals = [strongpulse_b92(d, 0.025)[2] for d in (5.0, 10.0, 20.0, 30.0, 40.0)]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
        assert all(v <= limit + 1e-12 for v in vals)
        assert vals[-1] == pytest.approx(limit, abs=1e-4)

    def test_large_loss_approaches_limit_from_below(self):
        # with t = mu/mu' -> 0 the overlap must stay accurate to rounding:
        # a naive ((1-t)/(1+t))^kept overshoots the limit by ~1e-9 here
        mu = 0.025
        limit = strongpulse_asymptotic_info(mu)
        vals = [strongpulse_b92(0.5 * k, mu)[2] for k in range(120, 241)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))
        assert max(vals) <= limit
        assert strongpulse_b92(120.0, mu)[0] == pytest.approx(math.exp(-2 * mu), abs=1e-12)

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

    def test_sequential_variant_needs_more_loss(self):
        # the sequential measurement succeeds less often (1 - 1/sqrt 2 vs
        # 1/2), so the eavesdropper needs *more* channel loss to hide: the
        # critical attenuation is monotone decreasing in p_ok
        seq = fourstate_irud_critical(0.2, p_ok=1 - 1 / math.sqrt(2))
        assert seq > fourstate_irud_critical(0.2)

    def test_small_mu_rate(self):
        # numerator is cubic in mu, so the critical attenuation grows
        # like 20 log10(1/mu)
        d1 = fourstate_irud_critical(1e-3)
        d2 = fourstate_irud_critical(1e-4)
        assert d2 - d1 == pytest.approx(20.0, abs=0.2)


class TestStoring:
    def test_orthogonal_pair(self):
        _, info = storing_attack_info((qmath.KET_0, qmath.KET_1))
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
        assert info == pytest.approx(qmath.binary_information(p_e), abs=1e-12)


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
            r_store = attacks.bb84_split_rate(mu)
            s_store = attacks.bb84_multiphoton_fraction(mu)
            i_store = attacks.fourstate_storing_info()
            if r_store >= required:
                pure_storing = i_store
            else:
                q = (required - r_store) / (mu - r_store)
                pure_storing = (1 - q) * s_store * i_store / (q + (1 - q) * s_store)
            r_irud = attacks.fourstate_irud_rate(mu)
            s_irud = attacks.fourstate_irud_fraction(mu)
            if r_irud >= required:
                pure_irud = 1.0
            else:
                q = (required - r_irud) / (mu - r_irud)
                pure_irud = (1 - q) * s_irud / (q + (1 - q) * s_irud)
            assert i_comb >= pure_storing - 1e-9
            assert i_comb >= pure_irud - 1e-9

    def test_monotone_curve(self):
        report = fourstate_combined_curve(0.2, np.linspace(0.0, 26.0, 60))
        assert all(b >= a - 1e-9 for a, b in zip(report.i_eve, report.i_eve[1:]))


class TestNbGeneralization:
    def test_mu_values(self):
        assert nb_mu(2) == pytest.approx(0.2, abs=1e-12)
        assert nb_mu(8) == pytest.approx(10.5097, abs=1e-3)

    def test_usd_critical_photon_form_matches_fourstate(self):
        model = SourceChannelModel(mu=nb_mu(2), eta_det=1.0)
        got = nb_critical_usd(2, model, rate_form="photon")
        assert abs(got - fourstate_irud_critical(0.2)) < 0.05

    def test_usd_critical_click_form(self):
        model = SourceChannelModel(mu=nb_mu(2))
        delta1 = nb_critical_usd(2, model)
        # independent check: equality of the two click rates at the root
        from pnsqkd.discrimination import usd_optimal_pok

        mu = nb_mu(2)
        lhs = 1 - math.exp(-model.eta_det * mu * 10 ** (-delta1 / 10))
        rhs = usd_optimal_pok(2) * poisson_click_sum(mu, model.eta_det, 2,
                                                     photonics.poisson_cutoff(mu))
        assert lhs == pytest.approx(rhs, abs=1e-9)

    def test_storing_critical_bisection_matches_closed_form(self):
        # (3, 12) lies at ~126.8 dB, beyond any fixed 120 dB search bracket
        for n_b, n_s in [(3, 2), (3, 12)]:
            model = SourceChannelModel(mu=nb_mu(n_b))
            delta, _ = nb_storing_critical(n_b, n_s, model)

            mu = nb_mu(n_b)
            target = poisson_click_sum(mu, model.eta_det, n_s, photonics.poisson_cutoff(mu))
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

    def test_two_bases_single_copy_matches_storing_value(self):
        _, info = nb_storing_critical(2, 1)
        assert info == pytest.approx(0.399, abs=1e-3)

    def test_ladder_monotone(self):
        ladder = nb_storing_ladder(3)
        deltas = [d for d, _ in ladder]
        infos = [i for _, i in ladder]
        assert all(b > a for a, b in zip(deltas, deltas[1:]))
        assert all(b > a for a, b in zip(infos, infos[1:]))

    def test_exact_sums_no_weak_pulse_approximation(self):
        # at n_b = 8 the mean photon number is ~10.5; the click solver must
        # still satisfy its defining equation exactly
        model = SourceChannelModel(mu=nb_mu(8))
        delta1 = nb_critical_usd(8, model)
        from pnsqkd.discrimination import usd_optimal_pok

        mu = nb_mu(8)
        lhs = 1 - math.exp(-model.eta_det * mu * 10 ** (-delta1 / 10))
        rhs = usd_optimal_pok(8) * poisson_click_sum(mu, model.eta_det, 14,
                                                     photonics.poisson_cutoff(mu))
        assert lhs == pytest.approx(rhs, rel=1e-6)
