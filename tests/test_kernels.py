"""Eigensolver and Poisson-sum correctness against independent oracles."""
import math

import numpy as np
import pytest

from pnsqkd.photonics import poisson_click_sum, poisson_photon_sum
from pnsqkd.qmath import eig_hermitian


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


def test_poisson_click_sum_closed_form():
    # with offset 0 the sum telescopes to 1 - exp(-eta mu)
    for mu in (0.05, 0.2, 1.37, 10.5):
        got = poisson_click_sum(mu, 0.1, 0, 200)
        assert got == pytest.approx(1.0 - math.exp(-0.1 * mu), abs=1e-13)


def test_poisson_photon_sum_closed_form():
    # start=2: sum p_n (n-1) = mu - 1 + e^-mu
    for mu in (0.1, 0.2, 2.6):
        got = poisson_photon_sum(mu, 2, 200)
        assert got == pytest.approx(mu - 1 + math.exp(-mu), abs=1e-14)
    # start=3: sum p_n (n-2) = mu - 2 + e^-mu (2 + mu)
    got = poisson_photon_sum(0.2, 3, 200)
    assert got == pytest.approx(0.2 - 2 + math.exp(-0.2) * 2.2, abs=1e-15)
