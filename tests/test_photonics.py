"""Source statistics, channel and error-model tests."""
import decimal
import math

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
    qber_total,
    transmission,
)


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


def _tails_oracle(mu):
    """(A, B, C, D) of ``poisson_tails`` from the closed forms at 1200 digits:
    e^mu times each moment, over mu^2/2 or mu^3/6.  At mu = 5e-324 the forms
    cancel by mu^3 ~ 1e-971."""
    with decimal.localcontext() as ctx:
        ctx.prec = 1200
        m = decimal.Decimal(mu)
        e = m.exp()
        two, three = m * m / 2, m * m * m / 6
        return ((m * e - e + 1) / two, (e - 1 - m) / two,
                (m * e - 2 * e + 2 + m) / three, (e - 1 - m - m * m / 2) / three)


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
        for got, want in zip(poisson_tails(mu), _tails_oracle(mu)):
            assert abs(decimal.Decimal(got) / want - 1) < 1e-15

    @pytest.mark.parametrize("mu", [1e-100, 1e-10, 1e-5, 5e-4, 9.99e-4])
    def test_small_mu_moments_match_oracle(self, mu):
        # below about 1e-100 mu^3 / 12 is no longer a normal float
        a, b, c, d = _tails_oracle(mu)
        with decimal.localcontext() as ctx:
            ctx.prec = 1200
            m = decimal.Decimal(mu)
            two, three = (-m).exp() * m * m / 2, (-m).exp() * m * m * m / 12
            want = (two * a, two * b, three * c, three * d)
        for got, w in zip(poisson_moments(mu), want):
            assert abs(decimal.Decimal(got) / w - 1) < 1e-15

    def test_split_rate_oracle(self):
        # direct truncated sum of p_n (n - 1)
        oracle = sum(poisson_pmf(n, 0.1) * (n - 1) for n in range(2, 60))
        assert poisson_moments(0.1)[0] == pytest.approx(oracle, abs=1e-14)

    @pytest.mark.parametrize("mu", [1e-12, 1e-10, 1e-8, 1e-6, 1e-5, 3e-5, 1e-4, 5e-4,
                                    9.99e-4])
    def test_block_below_three_matches_oracle(self, mu):
        # both closed forms cancel below mu = 1e-3
        with decimal.localcontext() as ctx:
            ctx.prec = 100  # the closed forms cancel by about mu^3 ~ 1e-36
            m = decimal.Decimal(mu)
            head = (-m).exp()
            rate = (m - 2 + head * (2 + m)) / 2
            fraction = (1 - head * (1 + m + m * m / 2)) / 2
        _, _, r_irud, s_irud = poisson_moments(mu)
        for got, want in [(r_irud, rate), (s_irud, fraction)]:
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


def _click_sums_oracle(mu, eta, nmax):
    """Every click sum S(k) = sum_{k<n<=nmax} p(n) (1 - (1 - eta)^(n - k)),
    each summed directly from exact Poisson weights at 50 digits."""
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        mu, loss = decimal.Decimal(mu), 1 - decimal.Decimal(eta)
        pmf = [(-mu).exp()]
        for n in range(1, nmax + 1):
            pmf.append(pmf[-1] * mu / n)
        return [sum(pmf[n] * (1 - loss ** (n - k)) for n in range(k + 1, nmax + 1))
                for k in range(nmax + 1)]


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
        exact = _click_sums_oracle(mu, eta, nmax)
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


def test_transmission():
    assert transmission(0.0) == 1.0
    assert transmission(13.0) == pytest.approx(10 ** (-1.3))


def test_poisson_click_sum_closed_form():
    # with offset 0 the sum telescopes to 1 - exp(-eta mu)
    for mu in (0.05, 0.2, 1.37, 10.5):
        got = poisson_click_sums(mu, 0.1, 200)[0]
        assert got == pytest.approx(1.0 - math.exp(-0.1 * mu), abs=1e-13)
