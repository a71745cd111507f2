"""Cloning machines: isometry checks, fidelities, sifted-attack behavior."""
import math
import random
from decimal import Decimal

import numpy as np
import pytest

from pnsqkd import attacks, cloners, cloning, information, qmath
from pnsqkd.cloners import bb84_reference_information, cerf23_fidelities, ng23_fidelities
from pnsqkd.cloning import (
    InfeasibleModelError,
    clone_reduced_states,
    information_crossing,
    make_cerf12,
    make_cerf23,
    make_ng12,
    make_ng23,
    make_ngs23,
    pns_cloning_attack,
    sifted_point,
    sifted_points,
)
import oracle
from conftest import random_qubit

GAMMAS = np.linspace(0.0, math.pi / 2, 11)
EQUATOR = [qmath.equatorial(th) for th in np.linspace(0, 2 * math.pi, 32, endpoint=False)]


def _ket(bits):
    return np.eye(2 ** len(bits), dtype=complex)[int(bits, 2)]


def _move_qubit(vec, src, dst):
    n = vec.size.bit_length() - 1
    return np.moveaxis(vec.reshape((2,) * n), src, dst).reshape(-1)


def _direct_isometry(name, p):
    """Reference: each isometry built column by column from basis kets,
    Kronecker products and an explicit qubit move and flip matrix."""
    phip, phim, psip, psim = qmath.PHI_PLUS, qmath.PHI_MINUS, qmath.PSI_PLUS, qmath.PSI_MINUS
    x_, y_, z_ = qmath.SIGMA_X, qmath.SIGMA_Y, qmath.SIGMA_Z
    c, s = math.cos(p), math.sin(p)
    if name == "ng12":
        return np.column_stack([_ket("00"), c * _ket("10") + s * _ket("01")])
    if name == "cerf12":
        F, G = p, 1.0 - p
        g = math.sqrt(F * G)
        cols = [F * np.kron(e, phip) + G * np.kron(z_ @ e, phim)
                + g * (np.kron(x_ @ e, psip) + 1j * np.kron(y_ @ e, psim))
                for e in (_ket("0"), _ket("1"))]
        return np.column_stack([_move_qubit(col, 2, 1) for col in cols])
    if name == "cerf23":
        v = math.sqrt(max(0.0, 1.0 - 8.0 * p * p))
        sx2, sy2, sz2 = (np.kron(m, np.eye(2)) + np.kron(np.eye(2), m) for m in (x_, y_, z_))
        pair = [_ket("00"), (_ket("01") + _ket("10")) / math.sqrt(2), _ket("11")]
        cols = [v * np.kron(e, phip) + p * (np.kron(sz2 @ e, phim) + np.kron(sx2 @ e, psip)
                                            + 1j * np.kron(sy2 @ e, psim))
                for e in pair]
        return np.column_stack([_move_qubit(col, 3, 2) for col in cols])
    cols = [_ket("000"),
            (c * (_ket("010") + _ket("100")) + s * _ket("001")) / math.sqrt(1 + c * c),
            (c * _ket("110") + s * (_ket("011") + _ket("101"))) / math.sqrt(1 + s * s)]
    if name == "ng23":
        return np.column_stack(cols)
    flip = np.eye(8)[::-1]  # X on all three qubits
    mirror = [flip @ cols[2], flip @ cols[1], flip @ cols[0]]
    return np.column_stack([(np.kron(u, _ket("0")) + np.kron(t, _ket("1"))) / math.sqrt(2)
                            for u, t in zip(cols, mirror)])


STATE_BY_NAME = {"+x": qmath.PLUS_X, "-x": qmath.MINUS_X,
                 "+y": qmath.PLUS_Y, "-y": qmath.equatorial(-math.pi / 2)}


def _oracle_states(machine, announced=("+x", "+y")):
    """Reference: the eavesdropper's two conditional density operators and
    the receiver's error rate per sent state, one machine at a time, with
    their own projections, for any announced pair."""
    s0, s1 = (STATE_BY_NAME[a] for a in announced)
    perp0, perp1 = qmath.orthogonal_qubit(s0), qmath.orthogonal_qubit(s1)
    rhos, qbers = [], []
    for sent, perp_sent, perp_other in ((s0, perp0, perp1), (s1, perp1, perp0)):
        out = machine.apply_to_qubit(sent)
        e_err, e_ok = _project(machine, out, perp_sent), _project(machine, out, perp_other)
        w_err, w_ok = float(np.vdot(e_err, e_err).real), float(np.vdot(e_ok, e_ok).real)
        qbers.append(w_err / (w_err + w_ok))
        rho = 0.5 * (np.outer(e_err, e_err.conj()) + np.outer(e_ok, e_ok.conj()))
        rhos.append(rho / (0.5 * (w_err + w_ok)))
    return rhos, qbers


def _project(machine, out, outcome):
    """The receiver's clone of an output state projected onto <outcome|."""
    t = out.reshape((2,) * machine.n_qubits)
    t = np.moveaxis(t, machine.clone_positions[0], 0).reshape(2, -1)
    return outcome.conj() @ t


def _oracle_sifted_point(machine, announced=("+x", "+y")):
    """Reference: the sifted-attack evaluation from ``_oracle_states`` and
    the Helstrom bound."""
    rhos, qbers = _oracle_states(machine, announced)
    p_e = qmath.helstrom_error(rhos[0], rhos[1], 0.5)
    wrong = _project(machine, machine.apply_to_qubit(qmath.PLUS_X), qmath.MINUS_X)
    qber = 0.5 * (qbers[0] + qbers[1])
    return {"disturbance": float(np.vdot(wrong, wrong).real), "qber_sifted": qber,
            "i_ab": information.binary_information(qber),
            "i_eve": information.binary_information(p_e), "p_e": p_e}


FACTORY_GRIDS = [
    (make_ng12, np.linspace(0.0, math.pi / 2, 201)),
    (make_cerf12, np.linspace(0.5, 1.0, 201)),
    (make_ng23, np.linspace(0.0, math.pi / 2, 201)),
    (make_ngs23, np.linspace(0.0, math.pi / 2, 201)),
    (make_cerf23, np.linspace(0.0, 1 / math.sqrt(8), 201)),
]


class TestIsometries:
    @pytest.mark.parametrize("factory,grid", FACTORY_GRIDS)
    def test_matches_direct_construction(self, factory, grid):
        # same arithmetic, so the two agree bit for bit, point by point and
        # slice by slice of the stack built over the whole grid
        stack = factory(grid)
        assert stack.isometry.shape[0] == len(grid)
        for k, p in enumerate(grid):
            machine = factory(float(p))
            direct = _direct_isometry(machine.name, float(p))
            assert np.array_equal(machine.isometry, direct)
            assert np.array_equal(stack.isometry[k], direct)

    def test_stack_with_one_non_isometric_slice_is_rejected(self):
        stack = make_ngs23(np.linspace(0.1, 1.4, 9))
        v = stack.isometry.copy()
        v[4, 0, 0] *= 1.0 + 1e-9
        with pytest.raises(ValueError, match="isometry"):
            cloning.CloningMachine("ngs23", v, stack.clone_positions)

    def test_grid_range_checked_at_every_point(self):
        with pytest.raises(ValueError):
            make_ng12([0.1, 0.2, math.pi])
        with pytest.raises(ValueError):
            make_cerf12([0.9, float("nan")])

    @pytest.mark.parametrize("factory,grid", [
        (make_ng12, GAMMAS),
        (make_cerf12, np.linspace(0.5, 1.0, 11)),
        (make_ng23, GAMMAS),
        (make_ngs23, GAMMAS),
        (make_cerf23, np.linspace(0.0, 1 / math.sqrt(8), 11)),
    ])
    def test_isometry_property(self, factory, grid):
        for p in grid:
            v = factory(p).isometry
            assert np.max(np.abs(v.conj().T @ v - np.eye(v.shape[1]))) < 1e-12

    def test_input_dimension_other_than_a_qubit_or_a_pair_is_rejected(self):
        with pytest.raises(ValueError, match="2 or 3 input columns"):
            cloning.CloningMachine("x", np.eye(8)[:, :4], (0, 1, 2))

    def test_parameter_ranges(self):
        with pytest.raises(ValueError):
            make_ng12(-0.1)
        with pytest.raises(ValueError):
            make_cerf12(0.4)
        with pytest.raises(ValueError):
            make_cerf23(0.5)


class TestNg12:
    def test_identity_end(self):
        fids = [f for _, _, f in clone_reduced_states(make_ng12(0.0), qmath.PLUS_X)]
        assert fids[0] == pytest.approx(1.0, abs=1e-12)
        assert fids[1] == pytest.approx(0.5, abs=1e-12)

    def test_symmetric_point(self):
        fids = [f for _, _, f in clone_reduced_states(make_ng12(math.pi / 4), qmath.PLUS_X)]
        expected = (1 + 1 / math.sqrt(2)) / 2
        assert fids[0] == pytest.approx(expected, abs=1e-12)
        assert fids[1] == pytest.approx(expected, abs=1e-12)

    def test_swap_end(self):
        fids = [f for _, _, f in clone_reduced_states(make_ng12(math.pi / 2), qmath.PLUS_X)]
        assert fids[0] == pytest.approx(0.5, abs=1e-12)
        assert fids[1] == pytest.approx(1.0, abs=1e-12)

    def test_closed_forms_on_grid(self):
        for g in np.linspace(0.0, math.pi / 2, 50):
            f1, f2 = (1 + math.cos(g)) / 2, (1 + math.sin(g)) / 2
            got = [f for _, _, f in clone_reduced_states(make_ng12(g), qmath.PLUS_X)]
            assert got[0] == pytest.approx(f1, abs=1e-10)
            assert got[1] == pytest.approx(f2, abs=1e-10)

    def test_equatorial_part_of_reduced_state(self):
        # the first clone equals cos(g)|th><th| + (1 - cos g) 1/2 in its
        # equatorial Bloch components (the marginal also carries a fixed
        # z offset of sin^2(g), which does not affect equatorial fidelity)
        g = 0.7
        psi = qmath.equatorial(1.1)
        _, rho, fid = clone_reduced_states(make_ng12(g), psi)[0]
        rx = np.trace(rho @ qmath.SIGMA_X).real
        ry = np.trace(rho @ qmath.SIGMA_Y).real
        assert rx == pytest.approx(math.cos(g) * math.cos(1.1), abs=1e-12)
        assert ry == pytest.approx(math.cos(g) * math.sin(1.1), abs=1e-12)
        assert fid == pytest.approx((1 + math.cos(g)) / 2, abs=1e-12)

    def test_phase_covariance(self):
        fids = [clone_reduced_states(make_ng12(0.6), psi)[0][2] for psi in EQUATOR]
        assert np.var(fids) < 1e-20


class TestCerf12:
    def test_perfect_end(self):
        m = make_cerf12(1.0)
        out = m.apply_to_qubit(qmath.PLUS_X)
        # clone 1 perfect, ancilla pair in the maximally entangled state
        fids = [f for _, _, f in clone_reduced_states(m, qmath.PLUS_X)]
        assert fids[0] == pytest.approx(1.0, abs=1e-12)
        anc = qmath.partial_trace(out, [1, 2])
        w, _ = qmath.eig_hermitian(anc)
        assert w[-1] == pytest.approx(1.0, abs=1e-10)  # pure ancilla state

    def test_matches_two_qubit_machine_marginals(self):
        # with F = (1 + cos g)/2 the equatorial fidelity of each clone
        # matches the two-qubit machine (the marginals themselves differ:
        # only the two-qubit machine's clones carry a z offset)
        for g in (0.3, math.pi / 4, 1.2):
            F = (1 + math.cos(g)) / 2
            psi = qmath.equatorial(0.9)
            cerf = clone_reduced_states(make_cerf12(F), psi)
            ng = clone_reduced_states(make_ng12(g), psi)
            assert cerf[0][2] == pytest.approx(ng[0][2], abs=1e-10)
            assert cerf[1][2] == pytest.approx(ng[1][2], abs=1e-10)

    def test_symmetric_point(self):
        F = (1 + 1 / math.sqrt(2)) / 2
        fids = [f for _, _, f in clone_reduced_states(make_cerf12(F), qmath.PLUS_X)]
        assert fids[0] == pytest.approx(F, abs=1e-12)
        assert fids[1] == pytest.approx(F, abs=1e-12)

    def test_output_normalization(self):
        for F in np.linspace(0.5, 1.0, 20):
            out = make_cerf12(F).apply_to_qubit(qmath.PLUS_Y)
            assert np.linalg.norm(out) == pytest.approx(1.0, abs=1e-12)

    def test_phase_covariance(self):
        fids = [clone_reduced_states(make_cerf12(0.85), psi)[1][2] for psi in EQUATOR]
        assert np.var(fids) < 1e-20


class TestNg23:
    def test_symmetric_point(self):
        fids = [f for _, _, f in clone_reduced_states(make_ng23(math.pi / 4), qmath.PLUS_X)]
        expected = (6 + 2 * math.sqrt(2) + math.sqrt(6)) / 12
        for f in fids:
            assert f == pytest.approx(expected, abs=1e-10)

    def test_gamma_zero(self):
        f12, f3 = ng23_fidelities(0.0)
        assert f12 == pytest.approx(1.0, abs=1e-12)
        assert f3 == pytest.approx(0.5, abs=1e-12)

    def test_gamma_pi2(self):
        f12, f3 = ng23_fidelities(math.pi / 2)
        assert f12 == pytest.approx(0.75, abs=1e-12)

    @pytest.mark.parametrize("gamma", [-1e-9, -1.0, math.pi / 2 + 1e-9, 5.0, math.nan])
    def test_gamma_out_of_range(self, gamma):
        with pytest.raises(ValueError, match=r"gamma must be in \[0, pi/2\]"):
            ng23_fidelities(gamma)

    def test_third_clone_never_perfect(self):
        assert max(ng23_fidelities(g)[1] for g in np.linspace(0, math.pi / 2, 200)) < 1.0

    def test_closed_forms_on_grid(self):
        for g in np.linspace(0.0, math.pi / 2, 50):
            f12, f3 = ng23_fidelities(g)
            got = [f for _, _, f in clone_reduced_states(make_ng23(g), qmath.PLUS_X)]
            assert got[0] == pytest.approx(f12, abs=1e-10)
            assert got[1] == pytest.approx(f12, abs=1e-10)
            assert got[2] == pytest.approx(f3, abs=1e-10)

    def test_phase_covariance_variance(self):
        fids = [clone_reduced_states(make_ng23(0.8), psi)[2][2]
                for psi in EQUATOR[:16]]
        assert np.var(fids) < 1e-20


class TestNgs23:
    def test_matches_unsymmetrized_fidelities(self):
        for g in np.linspace(0.0, math.pi / 2, 25):
            f12, f3 = ng23_fidelities(g)
            got = [f for _, _, f in clone_reduced_states(make_ngs23(g), qmath.PLUS_X)]
            assert got[0] == pytest.approx(f12, abs=1e-10)
            assert got[1] == pytest.approx(f12, abs=1e-10)
            assert got[2] == pytest.approx(f3, abs=1e-10)

    def test_symmetric_point(self):
        got = clone_reduced_states(make_ngs23(math.pi / 4), qmath.PLUS_X)[0][2]
        assert got == pytest.approx(0.9398, abs=1e-4)

    def test_branches_orthogonal(self):
        # the two bit-flip-mirror branches never interfere: flipping the
        # last ancilla qubit maps one onto the other
        m = make_ngs23(0.9)
        for col in m.isometry.T:
            t = col.reshape(8, 2)
            assert abs(np.vdot(t[:, 0], t[:, 1])) < 1e-12

    def test_phase_covariance(self):
        fids = [clone_reduced_states(make_ngs23(0.8), psi)[2][2]
                for psi in EQUATOR[:16]]
        assert np.var(fids) < 1e-20


class TestCerf23:
    def test_clone_pair_fidelity_universal(self, rng):
        x = 0.21
        m = make_cerf23(x)
        for _ in range(32):
            psi = qmath.state(random_qubit(rng))
            fids = [f for _, _, f in clone_reduced_states(m, psi)]
            assert fids[0] == pytest.approx(1 - 2 * x * x, abs=1e-10)
            assert fids[1] == pytest.approx(1 - 2 * x * x, abs=1e-10)

    def test_third_clone_universal(self, rng):
        x = 0.21
        v = math.sqrt(1 - 8 * x * x)
        m = make_cerf23(x)
        for _ in range(32):
            psi = qmath.state(random_qubit(rng))
            f3 = clone_reduced_states(m, psi)[2][2]
            assert f3 == pytest.approx(1 - 0.5 * (v - 2 * x) ** 2, abs=1e-10)

    def test_equal_fidelity_point_is_11_12(self):
        # all three fidelities coincide at v = 4x, i.e. x = 1/sqrt(24)
        x = 1 / math.sqrt(24)
        fids = [f for _, _, f in clone_reduced_states(make_cerf23(x), qmath.PLUS_X)]
        for f in fids:
            assert f == pytest.approx(11 / 12, abs=1e-10)

    def test_no_disturbance_end(self):
        fids = [f for _, _, f in clone_reduced_states(make_cerf23(0.0), qmath.PLUS_X)]
        assert fids[0] == pytest.approx(1.0, abs=1e-12)
        assert fids[1] == pytest.approx(1.0, abs=1e-12)
        assert fids[2] == pytest.approx(0.5, abs=1e-12)

    def test_third_clone_reaches_one(self):
        # the third-clone fidelity attains one at v = 2x (x = 1/sqrt(12));
        # the printed closed form with (v - 3x) is off by a coefficient and
        # disagrees with the machine itself
        x = 1 / math.sqrt(12)
        f3 = clone_reduced_states(make_cerf23(x), qmath.PLUS_X)[2][2]
        assert f3 == pytest.approx(1.0, abs=1e-10)
        grid_max = max(cerf23_fidelities(x)[1]
                       for x in np.linspace(0, 1 / math.sqrt(8), 400))
        assert grid_max == pytest.approx(1.0, abs=1e-5)

    @pytest.mark.parametrize("x", [-1e-9, 1 / math.sqrt(8) + 1e-12, 1.0, math.nan])
    def test_closed_form_range(self, x):
        with pytest.raises(ValueError, match=r"x must be in \[0, 1/sqrt 8\]"):
            cerf23_fidelities(x)

    def test_closed_form_helper(self):
        for x in np.linspace(0, 1 / math.sqrt(8), 25):
            f12, f3 = cerf23_fidelities(x)
            got = [f for _, _, f in clone_reduced_states(make_cerf23(x), qmath.PLUS_X)]
            assert got[0] == pytest.approx(f12, abs=1e-10)
            assert got[2] == pytest.approx(f3, abs=1e-10)

    def test_beats_phase_covariant_machine_on_the_frontier(self):
        # at equal clone-pair fidelity 0.85, the universal machine's third
        # clone is strictly better, so the phase-covariant construction is
        # not the optimal asymmetric 2 -> 3 cloner
        target_f12 = 0.85
        x = math.sqrt((1 - target_f12) / 2)
        f3_universal = cerf23_fidelities(x)[1]
        lo, hi = 0.0, math.pi / 2
        while hi - lo > 1e-12:
            mid = 0.5 * (lo + hi)
            if ng23_fidelities(mid)[0] > target_f12:
                lo = mid
            else:
                hi = mid
        f3_pc = ng23_fidelities(0.5 * (lo + hi))[1]
        assert f3_universal > f3_pc + 0.01


class TestCloneReducedStates:
    def test_identity_machine_degenerate_case(self):
        assert clone_reduced_states(make_ng12(0.0), qmath.PLUS_Y)[0][2] == pytest.approx(1.0, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(Exception):
            make_ng12(0.3).isometry @ np.ones(3)


class TestSiftedPoints:
    @pytest.mark.parametrize("factory,grid", FACTORY_GRIDS)
    def test_stack_matches_one_point_oracle(self, factory, grid):
        points = sifted_points(factory(grid))
        for k, p in enumerate(grid):
            want = _oracle_sifted_point(factory(float(p)))
            for key in ("disturbance", "qber_sifted", "i_eve"):
                assert points[key][k] == pytest.approx(want[key], abs=1e-14, rel=0)
            assert points["p_e"][k] == pytest.approx(want["p_e"], abs=1e-15, rel=0)

    @pytest.mark.parametrize("factory,grid", FACTORY_GRIDS)
    def test_qber_is_two_d_over_one_plus_two_d(self, factory, grid):
        # the right exclusion weighs 1/2 and the wrong one D; the largest
        # deviation measured on these grids is 2.2e-16
        points = sifted_points(factory(grid))
        d = points["disturbance"]
        assert np.max(np.abs(points["qber_sifted"] - 2 * d / (1 + 2 * d))) <= 4.5e-16

    def test_single_point_is_one_slice(self):
        machine = make_cerf23(0.2)
        stack = sifted_points(make_cerf23([0.1, 0.2]))
        row = sifted_point(machine)
        assert row == {key: float(col[1]) for key, col in stack.items()}

    def test_single_point_calls_reject_stacks(self):
        stack = make_ng12([0.2, 0.4])
        with pytest.raises(ValueError):
            sifted_point(stack)

    def test_receiver_must_hold_qubit_0(self):
        m = make_ng12(0.3)
        swapped = cloning.CloningMachine("ng12", m.isometry, (1, 0))
        with pytest.raises(ValueError, match="qubit 0"):
            sifted_points(swapped)

    def test_empty_grid(self):
        points = sifted_points(make_ngs23([]))
        assert all(col.shape == (0,) for col in points.values())

    # the constants are compared as bytes, so that a -0.0 for a 0.0 fails
    @pytest.mark.parametrize("machine", [make_ng12(0.3), make_cerf23(0.2)],
                             ids=["qubit", "pair"])
    def test_signal_columns_are_the_input_coordinates(self, machine):
        columns = np.stack([machine.input_coordinates(s) for s in (qmath.PLUS_X, qmath.PLUS_Y)],
                           axis=-1)
        constant = cloning._SIGNAL_COLUMNS[machine.isometry.shape[-1]]
        assert (constant.dtype, constant.shape) == (columns.dtype, columns.shape)
        assert constant.tobytes() == columns.tobytes()

    def test_excluding_bras_are_the_conjugated_orthogonal_states(self):
        assert len(cloning._EXCLUDING_BRAS) == 2
        for bra, s in zip(cloning._EXCLUDING_BRAS, (qmath.PLUS_X, qmath.PLUS_Y)):
            want = qmath.orthogonal_qubit(s).conj()
            assert (bra.dtype, bra.shape) == (want.dtype, want.shape)
            assert bra.tobytes() == want.tobytes()


# each machine's whole parameter range; the ends include every rank-deficient
# point (gamma = 0 and pi/2, cerf12 F = 1, cerf23 x = 1/sqrt 8)
FACTORY_RANGES = [(make_ng12, 0.0, math.pi / 2), (make_cerf12, 0.5, 1.0),
                  (make_ng23, 0.0, math.pi / 2), (make_ngs23, 0.0, math.pi / 2),
                  (make_cerf23, 0.0, cloners.CERF23_X_MAX)]


class TestHelstromClosedForm:
    """sifted_points reads ||M||_1 as sqrt(2 ||M||_F^2 + 8 ab), which holds
    because the spectrum of M = (rho_0 - rho_1)/2 comes in pairs +-a, +-b."""

    @pytest.mark.parametrize("factory,lo,hi", FACTORY_RANGES)
    def test_spectrum_pairs_and_p_e_matches_the_eigensolve(self, factory, lo, hi):
        rng = random.Random(f"pairing/{factory.__name__}")
        params = [lo, hi] + [rng.uniform(lo, hi) for _ in range(30)]
        points = sifted_points(factory(params))
        for k, p in enumerate(params):
            rhos, _ = _oracle_states(factory(p))
            w, _ = qmath.eig_hermitian(0.5 * rhos[0] - 0.5 * rhos[1])
            assert np.max(np.abs(w + w[::-1])) <= 1e-15, p
            want = qmath.helstrom_error(rhos[0], rhos[1], 0.5)
            assert abs(points["p_e"][k] - want) <= 1e-15, p

    def test_oracle_anchors(self):
        # Eve's states coincide (p_e = 1/2 exactly), or she holds one copy
        # of the signal and p_e = (1 - 1/sqrt 2)/2, up to the float
        # isometry's roundings (cos(pi/2) = 6e-17, 1/sqrt 2)
        for machine in (make_ng12(0.0), make_cerf12(1.0)):
            assert oracle.sifted_helstrom_error(machine.isometry) == Decimal("0.5")
        exact = (1 - 1 / Decimal(2).sqrt()) / 2
        for machine in (make_ng12(math.pi / 2), make_cerf12(0.5), make_cerf23(0.0)):
            assert abs(oracle.sifted_helstrom_error(machine.isometry) - exact) <= 1e-16
        assert oracle.binary_information(Decimal("0.5")) == 0
        assert oracle.binary_information(0) == 1
        assert float(oracle.binary_information(0.05)) == pytest.approx(
            information.binary_information(0.05), abs=2e-16)

    @pytest.mark.parametrize("factory,lo,hi", FACTORY_RANGES)
    def test_p_e_matches_the_50_digit_oracle(self, factory, lo, hi):
        params = [lo, hi, random.Random(f"oracle/{factory.__name__}").uniform(lo, hi)]
        points = sifted_points(factory(params))
        for k, p in enumerate(params):
            want = oracle.sifted_helstrom_error(factory(p).isometry)
            assert abs(Decimal(points["p_e"][k]) - want) <= Decimal("1e-15"), p


class TestSiftedAttack:
    def test_announced_set_symmetry(self):
        # the evaluator fixes the pair (+x, +y); the other three announced
        # sets and both orders of every set give the same numbers
        announced_sets = (("+x", "+y"), ("+y", "-x"), ("-x", "-y"), ("-y", "+x"))
        m = make_cerf12(0.9)
        point = sifted_points(m)
        pairs = list(announced_sets[1:])
        pairs += [(b, a) for a, b in announced_sets]
        for pair in pairs:
            row = _oracle_sifted_point(m, announced=pair)
            assert row["qber_sifted"] == pytest.approx(point["qber_sifted"][0], abs=1e-10)
            assert row["i_eve"] == pytest.approx(point["i_eve"][0], abs=1e-10)

    def test_no_disturbance_endpoint(self):
        point = sifted_points(make_ng12(1e-8))
        assert point["disturbance"][0] == pytest.approx(0.0, abs=1e-12)
        assert point["i_ab"][0] == pytest.approx(1.0, abs=1e-6)
        assert point["i_eve"][0] == pytest.approx(0.0, abs=1e-6)

    def test_full_disturbance_endpoint(self):
        # at D = 1/2 the eavesdropper holds the signal state itself and her
        # information is the plain stored-pair value
        expected = information.binary_information(0.5 * (1 - math.sqrt(0.5)))
        for machine in (make_ng12(math.pi / 2), make_cerf12(0.5)):
            point = sifted_points(machine)
            assert point["disturbance"][0] == pytest.approx(0.5, abs=1e-12)
            assert point["i_eve"][0] == pytest.approx(expected, abs=1e-6)

    @pytest.mark.parametrize("gamma", [1e-4, 1e-3, 0.01, math.pi / 4])
    def test_disturbance_keeps_relative_precision(self, gamma):
        # read by projection onto <-x|, not as 1 - F, which cancels at small gamma
        expected = math.sin(gamma / 2) ** 2
        got = sifted_points(make_ng12(gamma))["disturbance"][0]
        assert got == pytest.approx(expected, rel=1e-14, abs=0)

    def test_qber_vs_disturbance_relation(self):
        # accepted-branch error rate is D / (D + 1/2)
        for g in (0.3, 0.7, 1.1):
            point = sifted_points(make_ng12(g))
            d = point["disturbance"][0]
            assert point["qber_sifted"][0] == pytest.approx(d / (d + 0.5), abs=1e-10)

    def test_interior_maximum(self):
        infos = sifted_points(make_ng12(np.linspace(1e-4, math.pi / 2, 120)))["i_eve"].tolist()
        k = int(np.argmax(infos))
        assert 0 < k < len(infos) - 1
        assert infos[k] > infos[-1] + 0.05

    def test_crossing_near_15pct_qber(self):
        points = sifted_points(make_cerf12(1 - np.linspace(1e-6, 0.5, 400)))
        crossing = information_crossing(points)
        assert crossing == pytest.approx(0.155, abs=0.002)

    def test_machines_equivalent_under_minimum_error_model(self):
        # with the acceptance-mixture + minimum-error model the two 1 -> 2
        # machines give the same post-sifting information at equal
        # disturbance (the Bell-ancilla machine is never below)
        for g in (0.3, 0.6, 0.9, 1.2):
            ng = sifted_points(make_ng12(g))
            cf = sifted_points(make_cerf12(1 - ng["disturbance"][0]))
            assert cf["i_eve"][0] >= ng["i_eve"][0] - 1e-9
            assert cf["i_eve"][0] == pytest.approx(ng["i_eve"][0], abs=1e-9)


def _within_ulps(a, b, ulps=8):
    """a and b agree to ``ulps`` units in the last place of b, or to 2^-104
    (an ulp of 1, squared), the size of the residue that the evaluator's
    products of unit-size amplitudes leave where D is exactly 0."""
    return bool(np.all(np.abs(a - b) <= ulps * np.spacing(np.abs(b)) + 2.0 ** -104))


class TestNg12ClosedForm:
    """``ng12_sifted_rows``, what ``curve ieclon12`` prints, against the
    machines' own evaluator on the FACTORY_GRIDS grids of both 1 -> 2
    machines: cerf12 at F has D = 1 - F and cos gamma = 2F - 1, both exact."""

    def test_matches_sifted_points_on_the_ng12_grid(self):
        gammas = FACTORY_GRIDS[0][1]
        rows = np.array(cloners.ng12_sifted_rows(gammas.tolist()))
        points = sifted_points(make_ng12(gammas))
        assert _within_ulps(rows[:, 0], points["disturbance"])
        assert _within_ulps(rows[:, 1], points["qber_sifted"])
        p_e = [0.5 - cloners._sifted_12(d, math.cos(g))[2]
               for d, g in zip(rows[:, 0].tolist(), gammas.tolist())]
        assert np.max(np.abs(p_e - points["p_e"])) <= 1e-15

    def test_matches_sifted_points_on_the_cerf12_grid(self):
        fidelities = FACTORY_GRIDS[1][1]
        points = sifted_points(make_cerf12(fidelities))
        d = 1.0 - fidelities
        assert _within_ulps(d, points["disturbance"])
        gaps = np.array([cloners._sifted_12(x, 2.0 * f - 1.0)
                         for x, f in zip(d.tolist(), fidelities.tolist())])
        assert _within_ulps(gaps[:, 0], points["qber_sifted"])
        assert np.max(np.abs(0.5 - gaps[:, 2] - points["p_e"])) <= 1e-15

    def test_informations_are_read_from_their_gaps(self):
        gammas = _log_uniform(1e-8, math.pi / 2, 50, seed=12) + [0.0, math.pi / 2]
        for g, (d, q, i_ab, i_eve, ref) in zip(gammas, cloners.ng12_sifted_rows(gammas)):
            _, gap_ab, gap_eve = cloners._sifted_12(d, math.cos(g))
            assert 0.0 <= d <= 0.5
            assert 0.5 - gap_ab == pytest.approx(q, abs=1e-16)
            assert (i_ab, i_eve, ref) == (information.gap_information(gap_ab),
                                          information.gap_information(gap_eve),
                                          bb84_reference_information(d))

    @pytest.mark.parametrize("gamma", [-1e-300, math.nextafter(math.pi / 2, 2.0), 2.0, math.nan])
    def test_rejects_gamma_outside_the_range(self, gamma):
        with pytest.raises(ValueError, match=r"gamma must be in \[0, pi/2\]"):
            cloners.ng12_sifted_rows([0.5, gamma])

    def test_peak_is_at_a_quarter_disturbance(self):
        # t = sqrt(2D(1 - D))/(1 + 2D) peaks at D = 1/4 (gamma = pi/3) with t = 1/sqrt 6
        d, _, _, i_eve, _ = cloners.ng12_sifted_rows([math.pi / 3])[0]
        assert d == pytest.approx(0.25, rel=1e-15)
        assert i_eve == pytest.approx(information.gap_information(1.0 / math.sqrt(6.0)), rel=1e-15)


def _log_uniform(lo, hi, n, seed):
    """n seeded draws, log-uniform over [lo, hi]."""
    rng = random.Random(seed)
    return [math.exp(rng.uniform(math.log(lo), math.log(hi))) for _ in range(n)]


class TestPnsCloning23:
    def test_feasibility_check(self):
        with pytest.raises(InfeasibleModelError):
            pns_cloning_attack(make_ngs23, 0.2, 5.0, [0.3])
        # boundary: just above the blocking attenuation is fine
        pns_cloning_attack(make_ngs23, 0.2, 10.3, [0.3])

    # at 5.19e-162, R_split = mu^2/2 is subnormal
    @pytest.mark.parametrize("mu", [1e-150, 1e-20, 1e-5, 1e-3, 0.2, 2.0, 1e6, 5.19e-162]
                             + _log_uniform(1e-300, 1e300, 24, seed=24))
    def test_feasibility_slack_scales_with_mu(self, mu):
        critical = attacks.bb84_critical_attenuation(mu)
        # at the two-basis critical attenuation splitting just meets the rate
        pns_cloning_attack(make_ngs23, mu, critical, [0.3])
        # without loss, or just below it, it never does, also where mu itself
        # is below 1e-15 or above 9e15, where mu / R_split rounds to 1
        for delta in (0.0, critical * (1.0 - 1e-9)):
            with pytest.raises(InfeasibleModelError):
                pns_cloning_attack(make_ngs23, mu, delta, [0.3])

    def test_crossing_near_8p5pct_qber(self):
        points = pns_cloning_attack(make_ngs23, 0.2, 12.0,
                                    np.linspace(1e-4, math.pi / 2, 400))
        crossing = information_crossing(points)
        assert crossing == pytest.approx(0.085, abs=0.005)

    def test_symmetrized_machine_dominates_at_small_disturbance(self):
        for d in (0.002, 0.005, 0.01, 0.02):
            g = cloning.ngs23_gamma_for_disturbance(d)
            ngs = sifted_points(make_ngs23(g))
            cf = sifted_points(make_cerf23(math.sqrt(d / 2)))
            assert ngs["disturbance"][0] == pytest.approx(cf["disturbance"][0], abs=1e-9)
            assert ngs["i_eve"][0] > cf["i_eve"][0]

    def test_zero_disturbance_limit_is_single_copy_storing(self):
        # with a perfect clone forwarded, the eavesdropper keeps exactly one
        # pristine copy, so the limit is the one-copy stored-pair value
        expected = information.binary_information(0.5 * (1 - math.sqrt(0.5)))
        for machine in (make_ngs23(1e-6), make_cerf23(1e-7)):
            point = sifted_points(machine)
            assert point["i_eve"][0] == pytest.approx(expected, abs=1e-4)


class TestReferenceCurve:
    def test_crossing_value(self):
        # reference individual-attack tolerance for basis-revealing sifting
        d = (1 - 1 / math.sqrt(2)) / 2
        assert bb84_reference_information(d) == pytest.approx(
            information.binary_information(d), abs=1e-12)

    def test_monotone_from_zero(self):
        assert bb84_reference_information(0.0) == pytest.approx(0.0, abs=1e-12)
        assert bb84_reference_information(0.5) == pytest.approx(1.0, abs=1e-12)


class TestCerfInversions:
    # 2,501 disturbances in [0, 1/2]; on them the largest measured error is
    # 3.9e-16 for the 1 -> 2 round trip and 1.1e-16 for the 2 -> 3 fidelity
    D = np.concatenate([np.linspace(0.0, 0.5, 2001), np.geomspace(1e-12, 0.5, 500)])

    def test_cerf12_machine_gives_back_the_disturbance(self):
        # F = 1 - D, so ng12_sifted_rows holds for cerf12 at that F
        back = sifted_points(make_cerf12(1.0 - self.D))["disturbance"]
        np.testing.assert_allclose(back, self.D, rtol=0.0, atol=1e-15)

    def test_cerf23_clone_pair_fidelity_is_one_minus_the_disturbance(self):
        machine = make_cerf23(cloning.cerf23_x_for_disturbance({"disturbance": self.D}))
        f12 = [cerf23_fidelities(x)[0] for x in machine.parameter["x"]]
        # past D = 1/4 the parameter stays at its cap 1/sqrt 8
        np.testing.assert_allclose(f12, 1.0 - np.minimum(self.D, 0.25), rtol=0.0, atol=5e-16)
