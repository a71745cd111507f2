"""Key-rate, optimal mean photon number, protocol comparison, case study."""
import math

import numpy as np
import pytest

from conftest import is_last_bit_crossing
from pnsqkd import attacks, cloners, cloning, photonics, qmath, validation
from pnsqkd.cloning import geneva_lausanne_report
from pnsqkd.keyrate import (
    fourstate_key_rate,
    key_rate,
    nb_security_summary,
    optimal_mu,
    secure,
)


class TestSecure:
    def test_experiment_point(self):
        assert secure(0.71, 0.4)

    def test_boundary_not_secure(self):
        assert not secure(0.5, 0.5)

    def test_zero_information(self):
        assert not secure(0.0, 0.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            secure(1.2, 0.1)


class TestKeyRate:
    def test_full_information_kills_rate(self):
        assert key_rate(0.2, 10.0, 1.0) == 0.0

    def test_arithmetic(self):
        assert key_rate(0.2, 0.0, 0.0) == pytest.approx(0.05)

    def test_nonnegative(self):
        for delta in (0.0, 10.0, 25.0):
            for mu in (0.05, 0.2, 1.0):
                assert fourstate_key_rate(mu, delta) >= 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            key_rate(0.2, 10.0, 1.5)


class TestOptimalMu:
    def test_twenty_db(self):
        mu, rate = optimal_mu(20.0)
        assert 0.1 <= mu <= 0.35
        assert rate > 0

    def test_local_max_certificate(self):
        mu, rate = optimal_mu(20.0)
        assert fourstate_key_rate(mu / 2, 20.0) <= rate + 1e-12
        assert fourstate_key_rate(min(2 * mu, 2.0), 20.0) <= rate + 1e-12

    def test_zero_loss_bounded_by_cap(self):
        mu, rate = optimal_mu(0.0)
        assert mu <= 2.0 + 1e-9
        # interior or boundary max confirmed by a grid scan
        grid_best = max(fourstate_key_rate(m, 0.0) for m in
                        [0.01 + k * 0.02 for k in range(100)])
        assert rate >= grid_best - 1e-6


class TestProtocolConfig:
    """The n_b-bases protocol's sifting probability and mean photon number."""

    def test_sifting_probability(self):
        assert attacks.nb_sifting_probability(2) == pytest.approx(0.25)
        assert attacks.nb_sifting_probability(4) == pytest.approx(math.sin(math.pi / 8) ** 2 / 4)

    def test_auto_mu(self):
        assert attacks.nb_mu(2) == pytest.approx(0.2)
        assert attacks.nb_mu(8) == pytest.approx(10.51, abs=0.01)

    def test_validation(self):
        with pytest.raises(ValueError):
            attacks.nb_mu(1)


class TestNbSummary:
    def test_two_bases_ordering(self):
        s = nb_security_summary(2)
        assert s.delta2_db < s.delta1_db
        assert s.critical_delta_db == s.delta2_db

    @pytest.mark.parametrize("n_bases", range(2, 9))
    def test_crossing_is_a_last_bit_root(self, n_bases):
        s = nb_security_summary(n_bases)
        assert is_last_bit_crossing(n_bases, photonics.SourceChannelModel(), s.delta2_db)

    def test_never_secure_link_crosses_at_zero(self):
        # a QBER of 1/2 at every loss: I_AB = 0 on the whole one-rung ladder
        model = photonics.SourceChannelModel(p_d=0.5, eta_det=5.7e-85)
        s = nb_security_summary(2, model)
        assert s.delta2_db == s.critical_delta_db == 0.0
        assert is_last_bit_crossing(2, model, s.delta2_db)

    def test_storing_beats_discrimination_up_to_five_bases(self):
        for nb in range(2, 6):
            s = nb_security_summary(nb)
            assert s.delta2_db < s.delta1_db

    def test_distance_grows_with_bases(self):
        dists = [nb_security_summary(nb).critical_distance_km for nb in (2, 3, 4, 5)]
        assert all(b > a for a, b in zip(dists, dists[1:]))
        assert dists[-1] == pytest.approx(153.0, abs=2.0)

    def test_one_click_sum_pass_per_n_b(self, monkeypatch):
        # both attacks read their targets from one pass of the (mu, eta_det, cutoff) sums
        calls = []
        click_sums = attacks.poisson_click_sums
        monkeypatch.setattr(attacks, "poisson_click_sums",
                            lambda *args: calls.append(args) or click_sums(*args))
        summaries = [nb_security_summary(nb) for nb in range(2, 9)]
        assert len(calls) == len(set(calls)) == 7
        for s in summaries:
            assert s.delta1_db == attacks.nb_critical_usd(s.n_bases)


class TestGenevaLausanne:
    def test_report_values(self):
        gl = geneva_lausanne_report()
        assert gl.delta_db == pytest.approx(16.75)
        assert gl.i_ab == pytest.approx(0.7136, abs=1e-3)
        assert gl.i_eve_pns < 0.5
        assert gl.secure_optical_attribution
        assert gl.secure_full_error

    def test_cloning_scenarios_ordered(self):
        gl = geneva_lausanne_report()
        assert gl.i_eve_cloning_optical < gl.i_eve_cloning_full < gl.i_ab


def _full_grid_rows():
    """(sifted QBER, I_Eve) on every row of the report's 241-point grid."""
    grid = [1e-6 + (math.pi / 2 - 2e-6) * k / 240 for k in range(241)]
    points = cloning.sifted_points(cloning.make_ngs23(grid))
    return list(zip(points["qber_sifted"].tolist(), points["i_eve"].tolist()))


def _read_rows(rows, qber):
    """Interpolate I_Eve from the first row reaching qber."""
    prev = None
    for q, i_eve in rows:
        if q >= qber:
            if prev is None:
                return i_eve
            q0, i0 = prev
            return i0 + (qber - q0) / (q - q0) * (i_eve - i0)
        prev = (q, i_eve)
    return rows[-1][1]


def _full_grid_cloning_info(qber):
    """The report's cloning term read the long way: sifted points on the
    whole 241-point grid, interpolated from the first row reaching qber."""
    return _read_rows(_full_grid_rows(), qber)


class TestCloningInfos:
    """The report evaluates the sifted attack only on the rows it reads."""

    def test_matches_the_full_grid(self):
        scan = [q for q, _ in _full_grid_rows()]
        targets = [0.01, 0.05, scan[57], 0.02]
        want = [_full_grid_cloning_info(q) for q in targets]
        assert cloning._cloning_infos(targets) == want
        for q in targets:
            assert cloning._cloning_infos([q]) == [_full_grid_cloning_info(q)]

    def test_report_reads_the_same_terms(self):
        gl = geneva_lausanne_report()
        assert gl.i_eve_cloning_optical == _full_grid_cloning_info(0.01)
        assert gl.i_eve_cloning_full == _full_grid_cloning_info(0.05)

    def test_sifted_points_and_report_make_no_eigensolve(self, monkeypatch):
        def refuse(a):
            raise AssertionError("unexpected eigensolve")

        monkeypatch.setattr(qmath, "eig_hermitian", refuse)
        for factory, grid in ((cloning.make_ng12, [0.0, 0.7, math.pi / 2]),
                              (cloning.make_cerf12, [0.5, 0.8, 1.0]),
                              (cloning.make_ng23, [0.0, 0.7, math.pi / 2]),
                              (cloning.make_ngs23, [0.0, 0.7, math.pi / 2]),
                              (cloning.make_cerf23, [0.0, 0.2, cloners.CERF23_X_MAX])):
            cloning.sifted_points(factory(grid))
        geneva_lausanne_report()

    def test_every_row_value_matches_the_full_grid(self, monkeypatch):
        rows = _full_grid_rows()
        scan = [q for q, _ in rows]
        # the premise of reading the first row reaching a target locally
        assert all(b > a for a, b in zip(scan, scan[1:]))
        targets = []
        for q in scan:
            up = math.nextafter(q, 1.0)
            targets += [math.nextafter(q, 0.0), q, up, math.nextafter(up, 1.0)]
        # the first row reaching the target follows one that falls short
        targets = [q for q in targets if scan[0] < q <= scan[-1]]
        evaluations = []
        evaluate = cloning.sifted_points

        def recording(machine):
            evaluations.append(len(machine.isometry))
            return evaluate(machine)

        monkeypatch.setattr(cloning, "sifted_points", recording)
        for q in targets:
            evaluations.clear()
            assert cloning._cloning_infos([q]) == [_read_rows(rows, q)], q
            # the rows around the guessed row always bracket the target
            assert len(evaluations) == 1 and evaluations[0] <= 4, q

    @pytest.mark.parametrize("gamma", [0.0, 0.7, math.pi / 2])
    def test_a_wrong_guess_raises(self, monkeypatch, gamma):
        # rows 0-1, 105-108 and 239-240 bracket neither target (rows 31-32, 75-76)
        monkeypatch.setattr(cloning, "ngs23_gamma_for_disturbance", lambda d: gamma)
        for q in (0.01, 0.05):
            with pytest.raises(attacks.InfeasibleModelError):
                cloning._cloning_infos([q])

    def test_report_and_validate_build_small_stacks(self, monkeypatch):
        sizes = []
        make = cloning.make_ngs23

        def recording(gamma):
            sizes.append(len(np.atleast_1d(gamma)))
            return make(gamma)

        monkeypatch.setattr(cloning, "make_ngs23", recording)
        geneva_lausanne_report()
        assert sizes and max(sizes) <= 8
        validation.run_checks()
        assert max(sizes) <= 8
