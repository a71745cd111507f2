"""Key-rate, optimal mean photon number, protocol comparison, case study."""
import math

import numpy as np
import pytest

from conftest import is_last_bit_crossing
from pnsqkd import attacks, cloning, keyrate, photonics, qmath, validation
from pnsqkd.keyrate import (
    fourstate_key_rate,
    geneva_lausanne_report,
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
        scan = cloning.sifted_qber(cloning.make_ngs23(keyrate._CLONING_GRID)).tolist()
        targets = [0.01, 0.05, scan[0] / 2, scan[-1] + 0.01, scan[57], 0.0, 0.02]
        want = [_full_grid_cloning_info(q) for q in targets]
        assert keyrate._cloning_infos(targets) == want
        for q in targets:
            assert keyrate._cloning_infos([q]) == [_full_grid_cloning_info(q)]

    def test_report_reads_the_same_terms(self):
        gl = geneva_lausanne_report()
        assert gl.i_eve_cloning_optical == _full_grid_cloning_info(0.01)
        assert gl.i_eve_cloning_full == _full_grid_cloning_info(0.05)

    def test_report_makes_one_small_eigensolve(self, monkeypatch):
        shapes = []
        solve = qmath.eig_hermitian

        def recording(a):
            shapes.append(np.shape(a))
            return solve(a)

        monkeypatch.setattr(qmath, "eig_hermitian", recording)
        geneva_lausanne_report()
        assert len(shapes) == 1
        assert len(shapes[0]) == 3 and shapes[0][0] <= 4

    def test_every_row_value_matches_the_full_grid(self, monkeypatch):
        rows = _full_grid_rows()
        scan = [q for q, _ in rows]
        # the premise of reading the first row reaching a target locally
        assert all(b > a for a, b in zip(scan, scan[1:]))
        targets = [0.0, -0.2, 0.5, 1.0, scan[-1] + 0.01, math.nan]
        for q in scan:
            up = math.nextafter(q, 1.0)
            targets += [math.nextafter(q, 0.0), q, up, math.nextafter(up, 1.0)]
        projections = []
        project = cloning.sifted_qber

        def recording(machine):
            projections.append(len(machine.isometry))
            return project(machine)

        monkeypatch.setattr(cloning, "sifted_qber", recording)
        for q in targets:
            projections.clear()
            assert keyrate._cloning_infos([q]) == [_read_rows(rows, q)], q
            # the rows around the guessed row always bracket the target
            assert len(projections) == 1 and projections[0] <= 4, q

    @pytest.mark.parametrize("gamma", [0.0, 0.7, math.pi / 2])
    def test_any_guessed_row_gives_the_full_grid_reading(self, monkeypatch, gamma):
        rows = _full_grid_rows()
        scan = [q for q, _ in rows]
        targets = [0.01, 0.05, 0.0, scan[0], scan[120], scan[-1], scan[-1] + 0.01]
        monkeypatch.setattr(cloning, "ngs23_gamma_for_disturbance", lambda d: gamma)
        assert keyrate._cloning_infos(targets) == [_read_rows(rows, q) for q in targets]
        for q in targets:
            assert keyrate._cloning_infos([q]) == [_read_rows(rows, q)]

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
