"""Source statistics, channel and error-model tests."""
import decimal
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pnsqkd.attacks import nb_mu
from pnsqkd.photonics import (
    SourceChannelModel,
    poisson_click_sums,
    poisson_cutoff,
    poisson_distribution,
    poisson_moments,
    poisson_pmf,
    poisson_tails,
    qber_gap,
    qber_total,
    transmission,
)
import oracle


class TestPoisson:
    def test_zero_mean(self):
        assert poisson_pmf(0, 0.0) == 1.0
        assert poisson_pmf(3, 0.0) == 0.0

    def test_values(self):
        assert poisson_pmf(0, 0.1) == pytest.approx(math.exp(-0.1), abs=1e-15)
        assert poisson_pmf(1, 0.2) == pytest.approx(0.2 * math.exp(-0.2), abs=1e-15)
        assert poisson_pmf(1, 0.2) == pytest.approx(0.163746, abs=1e-6)

    @given(st.floats(min_value=1e-3, max_value=12.0))
    @settings(max_examples=60, deadline=None)
    def test_tail_bound(self, mu):
        n = poisson_cutoff(mu)
        head = sum(poisson_pmf(k, mu) for k in range(n + 1))
        assert 1.0 - head < 1e-12

    def test_distribution_normalized(self):
        for mu in (0.1, 0.2, 1.37, 10.5):
            assert sum(poisson_distribution(mu)) == pytest.approx(1.0, abs=1e-12)


class TestPoissonMoments:
    @pytest.mark.parametrize("mu", [1e-3, 0.05, 0.2, 1.0, 2.0, 700.0, 1e154, 1e200, 1e300])
    def test_closed_forms_bit_for_bit(self, mu):
        # from mu = 1e-3 up the moments are the closed forms, in this order of
        # operations; where exp(-mu) is 0, mu * mu can overflow, and
        # 0 * inf would be nan, so P(n >= 3) / 2 is 1/2 there
        head = math.exp(-mu)
        s_irud = 0.5 * (1.0 - head * (1.0 + mu + 0.5 * mu * mu)) if head else 0.5
        assert poisson_moments(mu) == (mu - 1.0 + math.exp(-mu),
                                       1.0 - math.exp(-mu) * (1.0 + mu),
                                       0.5 * (mu - 2.0 + math.exp(-mu) * (2.0 + mu)),
                                       s_irud)

    @pytest.mark.parametrize("mu", [5e-324, 1e-300, 1e-151, 1e-100, 1e-10, 1e-5, 5e-4,
                                    9.99e-4])
    def test_tails_match_oracle(self, mu):
        for got, want in zip(poisson_tails(mu), oracle.poisson_tails(mu)):
            assert abs(decimal.Decimal(got) / want - 1) < 1e-15

    @pytest.mark.parametrize("mu", [1e-100, 1e-10, 1e-5, 5e-4, 9.99e-4])
    def test_small_mu_moments_match_oracle(self, mu):
        # below about 1e-100 mu^3 / 12 is no longer a normal float
        for got, w in zip(poisson_moments(mu), oracle.poisson_moments(mu)):
            assert abs(decimal.Decimal(got) / w - 1) < 1e-15

    def test_split_rate_oracle(self):
        # direct truncated sum of p_n (n - 1)
        oracle = sum(poisson_pmf(n, 0.1) * (n - 1) for n in range(2, 60))
        assert poisson_moments(0.1)[0] == pytest.approx(oracle, abs=1e-14)

    @pytest.mark.parametrize("mu", [1e-12, 1e-10, 1e-8, 1e-6, 1e-5, 3e-5, 1e-4, 5e-4,
                                    9.99e-4])
    def test_block_below_three_matches_oracle(self, mu):
        # both closed forms cancel below mu = 1e-3
        _, _, r_irud, s_irud = poisson_moments(mu)
        for got, want in zip((r_irud, s_irud), oracle.block_below_three(mu)):
            assert abs(decimal.Decimal(got) / want - 1) < 1e-14


class TestModel:
    def test_validation(self):
        with pytest.raises(ValueError):
            SourceChannelModel(eta_det=0.0)
        with pytest.raises(ValueError):
            SourceChannelModel(qber_opt=0.6)
        # alpha = 0 made nb_security_summary divide by zero
        with pytest.raises(ValueError, match="alpha must be positive and finite"):
            SourceChannelModel(alpha=0.0)

    def test_defaults(self):
        m = SourceChannelModel()
        assert (m.alpha, m.eta_det, m.p_d, m.qber_opt) == (0.25, 0.1, 1e-5, 0.01)

    def test_keyword_construction(self):
        m = SourceChannelModel(qber_opt=0.02, p_d=0.0, eta_det=1.0, alpha=0.2)
        assert (m.alpha, m.eta_det, m.p_d, m.qber_opt) == (0.2, 1.0, 0.0, 0.02)

    # one bad field each, with the others at their defaults
    @pytest.mark.parametrize("field, value, message", [
        ("alpha", math.inf, "alpha must be positive and finite"),
        ("eta_det", 1.5, r"eta_det must be in \(0, 1\]"),
        ("p_d", 1.0, r"p_d must be in \[0, 1\)"),
        ("qber_opt", 0.5, r"qber_opt must be in \[0, 0.5\)"),
    ])
    def test_each_check_names_its_field(self, field, value, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            SourceChannelModel(**{field: value})

    def test_checks_run_in_field_order(self):
        with pytest.raises(ValueError, match="^alpha"):
            SourceChannelModel(alpha=-1.0, eta_det=0.0, p_d=-1.0, qber_opt=1.0)
        with pytest.raises(ValueError, match="^p_d"):
            SourceChannelModel(p_d=-1.0, qber_opt=1.0)

    @pytest.mark.parametrize("field", ["alpha", "eta_det", "p_d", "qber_opt"])
    def test_fields_cannot_be_assigned_or_deleted(self, field):
        # the default instance is shared by the n_b-bases attack signatures
        m = SourceChannelModel()
        with pytest.raises(AttributeError):
            setattr(m, field, 0.5)
        with pytest.raises(AttributeError):
            delattr(m, field)
        with pytest.raises(AttributeError):
            m.extra = 1.0
        assert getattr(m, field) == getattr(SourceChannelModel(), field)


class TestRawRate:
    # the receiver's raw rate is mu T photons per pulse
    def test_no_loss(self):
        assert 0.1 * transmission(0.0) == pytest.approx(0.1)

    def test_one_decade(self):
        assert 0.1 * transmission(10.0) == pytest.approx(0.01)

    def test_matches_split_rate_at_critical(self):
        # at the splitting-attack critical attenuation the raw rate mu T
        # equals the multiphoton forwardable rate
        from pnsqkd.attacks import bb84_critical_attenuation

        delta_c = bb84_critical_attenuation(0.1)
        assert 0.1 * transmission(delta_c) == pytest.approx(poisson_moments(0.1)[0], abs=1e-12)
        assert 0.1 * transmission(13.15) == pytest.approx(0.004842, abs=1e-6)


class TestDetection:
    def test_perfect_detector(self):
        # eta = 1 clicks on every pulse with more than offset photons
        sums = poisson_click_sums(0.5, 1.0, poisson_cutoff(0.5))
        for offset in range(3):
            got = sums[offset]
            assert got == pytest.approx(1 - sum(poisson_pmf(n, 0.5) for n in range(offset + 1)),
                                        abs=1e-15)

    def test_single_photon(self):
        # with nmax = 1 only the one-photon term p(1, mu) eta is left
        got = poisson_click_sums(0.5, 0.1, 1)[0]
        assert got == pytest.approx(poisson_pmf(1, 0.5) * 0.1, abs=1e-15)

    def test_poisson_click_rate(self):
        # eta=0.1, mu=0.2, offset 0: truncated series oracle
        oracle = sum(poisson_pmf(n, 0.2) * (1 - 0.9**n) for n in range(1, 51))
        got = poisson_click_sums(0.2, 0.1, poisson_cutoff(0.2))[0]
        assert got == pytest.approx(oracle, abs=1e-13)
        assert got == pytest.approx(0.019801, abs=1e-6)

    def test_monotone_in_offset(self):
        vals = poisson_click_sums(1.4, 0.1, poisson_cutoff(1.4))[:5]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_offset_validation(self):
        # the offsets run over 0..nmax, so a negative nmax leaves none
        with pytest.raises(ValueError):
            poisson_click_sums(0.2, 0.1, -1)
        with pytest.raises(ValueError):
            poisson_click_sums(-0.2, 0.1, 3)

    @pytest.mark.parametrize("eta", [0.05, 0.1636, 0.3, 1.0])
    @pytest.mark.parametrize("n_bases", range(2, 9))
    def test_one_pass_matches_decimal_oracle(self, n_bases, eta):
        mu = nb_mu(n_bases)
        nmax = poisson_cutoff(mu)
        got = poisson_click_sums(mu, eta, nmax)
        exact = oracle.click_sums(mu, eta, nmax)
        assert len(got) == nmax + 1
        for k, (g, e) in enumerate(zip(got, exact)):
            assert abs(decimal.Decimal(g) - e) <= decimal.Decimal("1e-14") * e, k


class TestQber:
    @pytest.mark.parametrize("mu", [-1.0, 0.0, -0.0])
    def test_nonpositive_mu_rejected(self, mu):
        with pytest.raises(ValueError, match="mu must be positive and finite"):
            qber_total(SourceChannelModel(), mu, 10.0)

    def test_no_dark_counts(self):
        m = SourceChannelModel(p_d=0.0, qber_opt=0.013)
        assert qber_total(m, 0.2, 30.0) == pytest.approx(0.013)

    def test_no_dark_counts_where_transmission_underflows(self):
        # 10^(-330) underflows to 0; the dark-count share is still 0, not 0/0
        m = SourceChannelModel(p_d=0.0)
        assert qber_total(m, 0.2, 3300.0) == m.qber_opt

    def test_dark_count_dominated(self):
        m = SourceChannelModel(eta_det=0.1, p_d=1e-5, qber_opt=0.01)
        assert qber_total(m, 0.2, 200.0) == pytest.approx(0.5)  # clamped

    def test_reference_point(self):
        m = SourceChannelModel(eta_det=0.1, p_d=1e-5, qber_opt=0.01)
        assert qber_total(m, 0.2, 16.75) == pytest.approx(0.0216, abs=1e-4)

    def test_monotone_and_bounded(self):
        m = SourceChannelModel(eta_det=0.1, p_d=1e-5, qber_opt=0.01)
        vals = [qber_total(m, 0.2, d) for d in range(0, 120, 2)]
        assert all(b >= a - 1e-15 for a, b in zip(vals, vals[1:]))
        assert all(v <= 0.5 for v in vals)


class TestQberGap:
    @staticmethod
    def _exact(model, mu, delta):
        """1/2 - q and s/(p_d + s) at the float arguments, at 60 digits."""
        with decimal.localcontext() as ctx:
            ctx.prec = 60
            p_d = decimal.Decimal(model.p_d)
            signal = (decimal.Decimal(mu) * decimal.Decimal(model.eta_det)
                      * decimal.Decimal(10) ** (-decimal.Decimal(delta) / 10))
            q = p_d / 2 / (p_d + signal) + decimal.Decimal(model.qber_opt)
            return max(decimal.Decimal(1) / 2 - q, 0), signal / (p_d + signal)

    def test_rounds_relative_to_the_gap(self):
        # error bounded by a few ulps of s/(p_d + s), not of 1/2: at q near
        # 1/2 that is ~50x finer than 0.5 - qber_total, whose error is an
        # ulp of 1/2
        rng = random.Random(36)
        for _ in range(300):
            m = SourceChannelModel(eta_det=rng.uniform(0.05, 1.0), p_d=10 ** rng.uniform(-9, -3),
                                   qber_opt=rng.uniform(0.0, 0.3))
            mu = rng.uniform(0.05, 12.0)
            # the attenuation where s/(p_d + s) is a log-uniform share in [1e-4, 1/2]
            target = 10 ** rng.uniform(-4.0, math.log10(0.5))
            delta = max(10.0 * math.log10(mu * m.eta_det * (1.0 - target) / (target * m.p_d)), 0.0)
            exact, share = self._exact(m, mu, delta)
            gap = qber_gap(m, mu, delta)
            assert 0.0 <= gap <= 0.5
            assert abs(decimal.Decimal(gap) - exact) <= decimal.Decimal(4e-16) * share, (mu, delta)

    def test_clamped_and_without_dark_counts(self):
        # q clamped at 1/2 gives 0; without dark counts it is 1/2 - qber_opt
        # also where the transmission underflows
        assert qber_gap(SourceChannelModel(p_d=1e-5, qber_opt=0.4), 0.2, 200.0) == 0.0
        assert qber_gap(SourceChannelModel(p_d=1e-5), 0.2, 3300.0) == 0.0
        m = SourceChannelModel(p_d=0.0, qber_opt=0.3)
        assert qber_gap(m, 0.2, 3300.0) == qber_gap(m, 0.2, 3.0) == 0.5 - 0.3

    @pytest.mark.parametrize("mu,delta", [(0.0, 10.0), (math.nan, 10.0), (0.2, -1.0),
                                          (0.2, math.inf), (0.2, math.nan)])
    def test_out_of_domain_rejected(self, mu, delta):
        with pytest.raises(ValueError, match="must be"):
            qber_gap(SourceChannelModel(), mu, delta)


def test_transmission():
    assert transmission(0.0) == 1.0
    assert transmission(13.0) == pytest.approx(10 ** (-1.3))


def test_poisson_click_sum_closed_form():
    # with offset 0 the sum telescopes to 1 - exp(-eta mu)
    for mu in (0.05, 0.2, 1.37, 10.5):
        got = poisson_click_sums(mu, 0.1, 200)[0]
        assert got == pytest.approx(1.0 - math.exp(-0.1 * mu), abs=1e-13)
