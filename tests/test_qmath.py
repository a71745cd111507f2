"""Core linear-algebra and quantum-primitive tests."""
import decimal
import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pnsqkd import cloning, qmath
from pnsqkd.qmath import (
    apply_measurement,
    binary_information,
    eig_hermitian,
    helstrom_error,
    measurement,
    partial_trace,
    state,
    symmetric_basis,
    symmetric_coordinates,
    two_mode_number_state,
    two_mode_overlap,
)
from conftest import random_density, random_qubit


class TestState:
    def test_normalization_enforced(self):
        with pytest.raises(ValueError):
            state([1.0, 1.0])

    def test_norm_tolerance(self):
        state([1.0 + 4e-13, 0.0])  # within 1e-12 on the squared sum

    @pytest.mark.parametrize("amplitudes", [np.eye(2) / math.sqrt(2), [[1.0, 0.0]], 1.0],
                             ids=["density-operator", "row", "scalar"])
    def test_only_a_vector_is_a_state(self, amplitudes):
        # the squared entries of eye(2)/sqrt(2) sum to 1, so flattening it
        # would pass the norm check as a 4-vector
        with pytest.raises(ValueError, match="1-D"):
            state(amplitudes)


def _power(psi, n):
    """|psi>^(x n) as a plain amplitude vector."""
    return functools.reduce(np.kron, [psi] * n)


class TestSymmetricBasis:
    def test_single_qubit(self):
        basis = symmetric_basis(1)
        assert np.allclose(basis[0], [1, 0])
        assert np.allclose(basis[1], [0, 1])

    def test_two_qubits_dicke(self):
        basis = symmetric_basis(2)
        assert np.allclose(basis[1], [0, 1 / math.sqrt(2), 1 / math.sqrt(2), 0])
        assert np.allclose(basis[2], [0, 0, 0, 1])

    def test_gram_identity(self):
        for n in range(1, 7):
            basis = symmetric_basis(n)
            g = np.array([[np.vdot(b1, b2) for b2 in basis] for b1 in basis])
            assert np.max(np.abs(g - np.eye(n + 1))) < 1e-12

    def test_product_states_inside_span(self, rng):
        basis = symmetric_basis(3)
        proj = sum(np.outer(b, b.conj()) for b in basis)
        for _ in range(100):
            psi = state(random_qubit(rng))
            prod = _power(psi, 3)
            assert np.linalg.norm(prod - proj @ prod) < 1e-12

    def test_coordinates_match_projection(self, rng):
        basis = symmetric_basis(4)
        psi = state(random_qubit(rng))
        prod = _power(psi, 4)
        coords = symmetric_coordinates(psi, 4)
        direct = np.array([np.vdot(b, prod) for b in basis])
        assert np.max(np.abs(coords - direct)) < 1e-12

    def test_range_check(self):
        with pytest.raises(ValueError):
            symmetric_basis(0)
        with pytest.raises(ValueError):
            symmetric_basis(9)


class TestPartialTrace:
    def test_maximally_entangled(self):
        for keep in ([0], [1]):
            red = partial_trace(qmath.PHI_PLUS, keep)
            assert np.allclose(red, np.eye(2) / 2)

    def test_product_state(self, rng):
        psi = state(random_qubit(rng))
        red = partial_trace(state(np.kron(psi, qmath.KET_0)), [0])
        assert np.max(np.abs(red - np.outer(psi, psi.conj()))) < 1e-12

    def test_trace_and_positivity_preserved(self, rng):
        for _ in range(50):
            rho = random_density(rng, 8)
            red = partial_trace(rho, [0, 2])
            assert np.trace(red).real == pytest.approx(1.0, abs=1e-12)
            w, _ = eig_hermitian(red)
            assert w[0] >= -1e-10

    def test_invalid_index(self):
        with pytest.raises(ValueError):
            partial_trace(qmath.PHI_PLUS, [2])


class TestEig:
    def test_sigma_z(self):
        w, _ = eig_hermitian(qmath.SIGMA_Z)
        assert np.allclose(w, [-1.0, 1.0])

    def test_identity(self):
        w, _ = eig_hermitian(np.eye(4))
        assert np.allclose(w, 1.0)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            eig_hermitian([[0, 1], [0, 0]])

    def test_residuals_random(self, rng):
        a = random_density(rng, 16)
        w, v = eig_hermitian(a)
        for k in range(16):
            assert np.linalg.norm(a @ v[:, k] - w[k] * v[:, k]) < 1e-10

    def test_stack_matches_one_matrix_at_a_time(self, rng):
        stack = np.stack([random_density(rng, 8) for _ in range(5)])
        w, v = eig_hermitian(stack)
        assert w.shape == (5, 8) and v.shape == (5, 8, 8)
        for k, m in enumerate(stack):
            w1, v1 = eig_hermitian(m)
            assert np.array_equal(w[k], w1)
            assert np.array_equal(v[k], v1)
        norms = qmath.trace_norm(stack)
        assert norms.tolist() == [qmath.trace_norm(m) for m in stack]

    def test_stack_with_one_non_hermitian_slice_is_rejected(self, rng):
        stack = np.stack([random_density(rng, 4) for _ in range(6)])
        eig_hermitian(stack)
        stack[3, 0, 1] += 1e-6  # tiny against the check's scale, one slice only
        with pytest.raises(ValueError, match="not Hermitian"):
            eig_hermitian(stack)
        with pytest.raises(ValueError, match="not Hermitian"):
            qmath.trace_norm(stack)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            eig_hermitian(np.zeros(4))
        with pytest.raises(ValueError):
            eig_hermitian(np.zeros((3, 2, 4)))


class TestMeasurement:
    def test_projective_x(self):
        meas = measurement([
            ("+x", np.outer(qmath.PLUS_X, qmath.PLUS_X.conj())),
            ("-x", np.outer(qmath.MINUS_X, qmath.MINUS_X.conj())),
        ])
        res = apply_measurement(meas, qmath.PLUS_X)
        assert res[0][1] == pytest.approx(1.0, abs=1e-12)
        assert res[1][2] is None  # unreachable branch

    def test_completeness_enforced(self):
        with pytest.raises(ValueError):
            measurement([("a", np.outer(qmath.PLUS_X, qmath.PLUS_X.conj()))])

    def test_probabilities_sum_to_one(self, rng):
        from pnsqkd.discrimination import b92_povm

        meas = b92_povm(0.9)
        for _ in range(1000):
            rho = random_density(rng, 2)
            res = apply_measurement(meas, rho)
            assert sum(p for _, p, _ in res) == pytest.approx(1.0, abs=1e-10)

    def test_filter_on_signal_states(self):
        from pnsqkd.discrimination import b92_filter, b92_pair

        eta = math.pi / 3
        res = apply_measurement(b92_filter(eta), b92_pair(eta)[0])
        _, p_ok, post = res[0]
        assert p_ok == pytest.approx(1.0 - math.cos(eta), abs=1e-12)
        # success branch lands exactly on |+x>
        assert np.vdot(qmath.PLUS_X, post @ qmath.PLUS_X).real == pytest.approx(1.0, abs=1e-12)

    def test_near_orthogonal_filter_passes_deterministically(self):
        from pnsqkd.discrimination import b92_filter, b92_pair

        eta = math.pi / 2 - 1e-9
        res = apply_measurement(b92_filter(eta), b92_pair(eta)[0])
        assert res[0][1] == pytest.approx(1.0, abs=1e-8)


class TestHelstrom:
    def test_orthogonal(self):
        assert helstrom_error(qmath.KET_0, state([0, 1])) == pytest.approx(0.0, abs=1e-14)

    def test_identical(self):
        assert helstrom_error(qmath.PLUS_X, qmath.PLUS_X) == pytest.approx(0.5, abs=1e-14)

    def test_x_vs_z(self):
        p = helstrom_error(qmath.PLUS_X, qmath.KET_0)
        assert p == pytest.approx(0.5 * (1 - math.sqrt(0.5)), abs=1e-12)
        assert p == pytest.approx(0.1464466, abs=1e-6)

    def test_closed_form_random_pairs(self, rng):
        for _ in range(1000):
            a = state(random_qubit(rng))
            b = state(random_qubit(rng))
            c = abs(np.vdot(a, b))
            expected = 0.5 * (1 - math.sqrt(1 - c * c))
            assert helstrom_error(a, b) == pytest.approx(expected, abs=1e-12)

    def test_prior_validation(self):
        with pytest.raises(ValueError):
            helstrom_error(qmath.KET_0, state([0, 1]), 1.5)

    def test_stacks_match_pairs(self, rng):
        rho0 = np.stack([random_density(rng, 4) for _ in range(7)])
        rho1 = np.stack([random_density(rng, 4) for _ in range(7)])
        got = helstrom_error(rho0, rho1, 0.3)
        assert got.shape == (7,)
        assert got.tolist() == [helstrom_error(a, b, 0.3)
                                for a, b in zip(rho0, rho1)]


class TestBinaryInformation:
    def test_extremes(self):
        assert binary_information(0.5) == pytest.approx(0.0, abs=1e-15)
        assert binary_information(0.0) == 1.0
        assert binary_information(1.0) == 1.0

    def test_storing_anchor(self):
        assert binary_information(0.1464466) == pytest.approx(0.399, abs=1e-3)

    def test_experiment_anchor(self):
        assert binary_information(0.05) == pytest.approx(0.7136, abs=1e-4)

    def test_range_check(self):
        with pytest.raises(ValueError):
            binary_information(-0.1)

    def test_never_negative_near_half(self):
        # the sum cancels to a rounding residue there, as low as -5.55e-17
        ps = np.concatenate([np.linspace(0.5 - 1e-6, 0.5 + 1e-6, 4001),
                             0.5 + np.arange(-200, 201) * 2.0 ** -53])
        assert min(binary_information(p) for p in ps.tolist()) >= 0.0

    @given(st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=200, deadline=None)
    def test_bounds_and_symmetry(self, p):
        val = binary_information(p)
        assert -1e-12 <= val <= 1.0
        assert val == pytest.approx(binary_information(1.0 - p), abs=1e-12)


class TestTwoModeNumberState:
    def test_vacuum(self):
        v = two_mode_number_state(0, 0.3, 0.5)
        assert v.shape == (1,)
        assert abs(v[0]) == pytest.approx(1.0)

    def test_single_photon_balanced_orthogonal(self):
        a = two_mode_number_state(1, 0.0, 1.0)
        b = two_mode_number_state(1, math.pi, 1.0)
        assert abs(np.vdot(a, b)) < 1e-14

    def test_orthonormality(self):
        for n in (3, 7):
            v = two_mode_number_state(n, 1.234, 0.37)
            assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-13)

    def test_overlap_closed_form(self):
        for n in (1, 5, 50, 200):
            for t in (0.01, 0.3, 0.9):
                a = two_mode_number_state(n, 0.0, t)
                b = two_mode_number_state(n, math.pi, t)
                assert abs(np.vdot(a, b)) == pytest.approx(
                    abs(two_mode_overlap(n, t)), abs=1e-12)

    @pytest.mark.parametrize("n,t", [(3, 0.9), (100, 0.01), (1e4, 1e-4), (1e6, 1e-6)])
    def test_overlap_within_a_few_ulps_of_a_decimal_oracle(self, n, t):
        # the plain power ((1-t)/(1+t))^n carries the rounding of its base
        # n-fold: 8 ulps off at (100, 0.01), about 5e4 at (1e6, 1e-6)
        with decimal.localcontext() as ctx:
            ctx.prec = 50
            one, dt = decimal.Decimal(1), decimal.Decimal(t)
            exact = ((one - dt) / (one + dt)) ** decimal.Decimal(n)
        got = two_mode_overlap(n, t)
        assert abs(decimal.Decimal(got) - exact) <= 4 * decimal.Decimal(math.ulp(got))

    @pytest.mark.parametrize("ratio", [math.nan, -0.1, 1.0, 2.0])
    def test_overlap_ratio_outside_its_domain_rejected(self, ratio):
        with pytest.raises(ValueError, match="intensity ratio must be in"):
            two_mode_overlap(5, ratio)

    @pytest.mark.parametrize("phase,ratio", [(0.0, math.nan), (0.0, math.inf),
                                             (math.nan, 0.5), (math.inf, 0.5)])
    def test_non_finite_input_rejected(self, phase, ratio):
        with pytest.raises(ValueError, match="must be finite"):
            two_mode_number_state(3, phase, ratio)

    def test_weak_strong_limit(self):
        # t = 0.01, n = 100 approximates e^-2 for mean t*n = 1
        got = abs(np.vdot(two_mode_number_state(100, math.pi, 0.01),
                          two_mode_number_state(100, 0.0, 0.01)))
        assert got == pytest.approx((0.99 / 1.01) ** 100, abs=1e-12)
        assert got == pytest.approx(math.exp(-2.0), rel=1e-3)


_NAN_OPERATOR = np.array([[math.nan, 0.0], [0.0, 1.0]])


@pytest.mark.parametrize("check", [
    lambda: state([math.nan, 0.0]),
    lambda: measurement([("a", _NAN_OPERATOR)]),
    lambda: apply_measurement([("a", _NAN_OPERATOR)], qmath.PLUS_X),
    lambda: eig_hermitian(_NAN_OPERATOR),
    lambda: cloning.CloningMachine("x", np.full((4, 2), math.nan), (0, 1)),
], ids=["state", "measurement", "apply_measurement", "eig_hermitian", "isometry"])
def test_nan_input_is_rejected(check):
    # each tolerance check reads "not (defect <= tol)", which NaN fails
    with pytest.raises(ValueError):
        check()


@pytest.mark.parametrize("n", [1, 2, 4, 8, 16, 32])
def test_eig_hermitian_residuals(n, rng):
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    a = a + a.conj().T
    w, v = eig_hermitian(a)
    # spectral invariants: trace and Frobenius norm
    fro2 = float(np.sum(np.abs(a) ** 2))
    assert abs(np.sum(w) - np.trace(a).real) < 1e-12 * max(1.0, math.sqrt(fro2)) * n
    assert abs(np.sum(w**2) - fro2) < 1e-12 * fro2
    # eigenvector residuals and orthonormality
    for k in range(n):
        assert np.linalg.norm(a @ v[:, k] - w[k] * v[:, k]) < 1e-10
    assert np.max(np.abs(v.conj().T @ v - np.eye(n))) < 1e-12


def test_eig_hermitian_ascending(rng):
    a = rng.normal(size=(12, 12))
    a = a + a.T
    w, _ = eig_hermitian(a.astype(complex))
    assert np.all(np.diff(w) >= -1e-14)
