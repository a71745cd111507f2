"""Dense complex linear algebra and quantum-information primitives.

Everything here is sized for few-qubit problems (dimension <= 32): pure
states, operators, Kraus-style generalized measurements, the symmetric
subspace of n qubits, Helstrom discrimination and the storing attack it
prices.  The binary mutual information and the other scalar closed forms
are in ``information``, which imports no NumPy.  States are 1-D and
operators 2-D complex128 arrays, and a measurement is a list of (label,
operator) pairs; ``state`` and ``measurement`` build them with their
checks.  Kronecker convention: the left tensor factor is the slow index,
i.e. qubit 0 is the most significant bit of the basis label.
"""
from __future__ import annotations

import math
from math import lgamma

import numpy as np

from . import information

NORM_TOL = 1e-12
COMPLETENESS_TOL = 1e-10
PSD_TOL = 1e-10
_UNREACHABLE_P = 1e-14


def state(amplitudes):
    """Pure state as a 1-D complex128 array, checked to be normalized to 1e-12."""
    a = np.asarray(amplitudes, dtype=np.complex128)
    if a.ndim != 1:
        raise ValueError(f"state must be a 1-D amplitude vector, got shape {a.shape}")
    if a.size == 0:
        raise ValueError("empty state vector")
    n = float(np.vdot(a, a).real)
    if not abs(n - 1.0) <= NORM_TOL:
        raise ValueError(f"state not normalized: |psi|^2 = {n!r}")
    return a


def measurement(outcomes):
    """Generalized measurement as a list of (label, operator) pairs {A_i}.

    Completeness is the standard convention sum_i A_i^dag A_i = identity,
    checked to 1e-10.
    """
    outcomes = [(str(label), np.asarray(op, dtype=np.complex128)) for label, op in outcomes]
    if not outcomes:
        raise ValueError("measurement needs at least one outcome")
    total = sum(op.conj().T @ op for _, op in outcomes)
    defect = float(np.max(np.abs(total - np.eye(len(total)))))
    if not defect <= COMPLETENESS_TOL:
        raise ValueError(f"completeness violated: defect {defect:g}")
    return outcomes


def _density(rho):
    """rho as a complex array; a 1-D state becomes its projector."""
    rho = np.asarray(rho, dtype=np.complex128)
    return np.outer(rho, rho.conj()) if rho.ndim == 1 else rho


# ---------------------------------------------------------------------------
# fixed states and operators

def equatorial(theta):
    """Equatorial Bloch state (|0> + e^{i theta} |1>)/sqrt(2)."""
    return state([1 / math.sqrt(2), np.exp(1j * theta) / math.sqrt(2)])


KET_0 = state([1, 0])
PLUS_X = equatorial(0.0)
MINUS_X = equatorial(math.pi)
PLUS_Y = equatorial(math.pi / 2)

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=np.complex128)

PHI_PLUS = state(np.array([1, 0, 0, 1]) / math.sqrt(2))
PHI_MINUS = state(np.array([1, 0, 0, -1]) / math.sqrt(2))
PSI_PLUS = state(np.array([0, 1, 1, 0]) / math.sqrt(2))
PSI_MINUS = state(np.array([0, 1, -1, 0]) / math.sqrt(2))


def orthogonal_qubit(psi):
    """The qubit orthogonal to |psi> (global phase arbitrary)."""
    a, b = psi
    return state(np.array([-np.conj(b), np.conj(a)]))


# ---------------------------------------------------------------------------
# operations

def symmetric_basis(n):
    """Orthonormal Dicke basis of the symmetric subspace of n qubits.

    Returns n+1 states of dimension 2^n ordered by excitation number
    ascending.  The span contains |psi>^(x n) for every single-qubit state.
    """
    if not 1 <= n <= 8:
        raise ValueError("copies must be in 1..8")
    basis = []
    for k in range(n + 1):
        v = np.zeros(2**n, dtype=np.complex128)
        for idx in range(2**n):
            if bin(idx).count("1") == k:
                v[idx] = 1.0
        basis.append(state(v / np.linalg.norm(v)))
    return basis


def symmetric_coordinates(psi, n):
    """Coordinates of |psi>^(x n) in the Dicke basis, without building 2^n vectors.

    For psi = (a, b): coordinate k is sqrt(C(n,k)) a^(n-k) b^k.
    """
    a, b = psi
    return np.array(
        [math.sqrt(math.comb(n, k)) * a ** (n - k) * b**k for k in range(n + 1)],
        dtype=np.complex128,
    )


def partial_trace(rho, keep):
    """Partial trace of a multi-qubit operator (or of a state's projector),
    keeping the listed qubits.

    Qubit 0 is the most significant index.  Trace and positivity are
    preserved for density operators.
    """
    rho = _density(rho)
    n = len(rho).bit_length() - 1
    if 2**n != len(rho):
        raise ValueError("operator dimension is not a power of two")
    keep = sorted(set(int(k) for k in keep))
    if not keep or any(k < 0 or k >= n for k in keep):
        raise ValueError("invalid qubit index set")
    t = rho.reshape((2,) * (2 * n))
    idx = list(range(2 * n))
    for q in range(n):
        if q not in keep:
            idx[n + q] = idx[q]
    out_idx = [idx[q] for q in keep] + [idx[n + q] for q in keep]
    k = len(keep)
    return np.einsum(t, idx, out_idx).reshape(2**k, 2**k)


def eig_hermitian(a):
    """Eigenvalues (ascending) and orthonormal eigenvectors of a Hermitian
    operator, or of every matrix in a stack of shape (..., d, d).

    LAPACK via ``numpy.linalg.eigh``, one call for the whole stack; raises
    if any matrix is not Hermitian.
    """
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValueError("expected a square matrix or a stack of them")
    size = m.shape[-1] ** 2
    mh = m.conj().swapaxes(-1, -2)
    defect = np.abs(m - mh).reshape(-1, size).max(axis=1)
    scale = np.abs(m).reshape(-1, size).max(axis=1)
    if not (defect <= 1e-10 * np.maximum(scale, 1.0)).all():
        raise ValueError("matrix is not Hermitian")
    m = m + mh
    m *= 0.5
    return np.linalg.eigh(m)


def operator_sqrt_psd(a):
    """Square root of a positive semidefinite Hermitian operator."""
    w, v = eig_hermitian(a)
    if w[0] < -PSD_TOL:
        raise ValueError("operator is not positive semidefinite")
    return (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T


def trace_norm(a):
    """Trace norm of a Hermitian operator, sum of absolute eigenvalues; an
    array of them for a stack."""
    w, _ = eig_hermitian(a)
    norms = np.sum(np.abs(w), axis=-1)
    return float(norms) if norms.ndim == 0 else norms


def apply_measurement(meas, rho):
    """Apply a generalized measurement, checked again by ``measurement``,
    to a density operator or a state.

    Returns one (label, p, post) tuple per outcome, with
    p = tr(A rho A^dag) and post-state A rho A^dag / p; post is None for
    branches with p below 1e-14 (marked unreachable rather than divided by
    ~0).  Probabilities sum to one within 1e-10 when the input is a valid
    density operator.
    """
    rho = _density(rho)
    results = []
    for label, op in measurement(meas):
        t = op @ rho @ op.conj().T
        p = float(np.trace(t).real)
        if p > _UNREACHABLE_P:
            results.append((label, p, t / p))
        else:
            results.append((label, max(p, 0.0), None))
    return results


def helstrom_error(rho0, rho1, prior0=0.5):
    """Minimum-error probability for discriminating two density operators.

    p_e = (1 - ||prior0 rho0 - (1-prior0) rho1||_tr) / 2.  For equiprobable
    pure states with overlap c this reduces to (1 - sqrt(1 - c^2)) / 2.
    Two stacks of matrices (..., d, d) give an array, one eigensolve for all.
    """
    if not 0.0 <= prior0 <= 1.0:
        raise ValueError("prior must be in [0, 1]")
    gamma = prior0 * _density(rho0)
    gamma -= (1.0 - prior0) * _density(rho1)
    return 0.5 * (1.0 - trace_norm(gamma))


def storing_attack_info(pair):
    """Information from storing one photon and discriminating the announced pair.

    Equiprobable minimum-error discrimination of the two announced states;
    for the four-state protocol the pair overlap is 1/sqrt(2), giving
    p_e ~ 0.1464 and I ~ 0.399 bits.  Returns (p_e, info).
    """
    s0, s1 = pair
    p_e = helstrom_error(s0, s1, 0.5)
    return p_e, information.binary_information(p_e)


def two_mode_number_state(n, phase, ratio):
    """n-photon state of two modes with intensity ratio t = ratio.

    Returns the coefficient vector over photon splits (n-m, m) for
    m = 0..n: sqrt(C(n,m) t^m / (1+t)^n) e^(i m phase).  With t = 1 this is
    the balanced two-mode (time-bin) case.  States with the same n and
    different phases have overlap ((1-t)/(1+t))^n
    (``information.two_mode_overlap``).
    """
    if n < 0:
        raise ValueError("photon number must be non-negative")
    if not (math.isfinite(ratio) and math.isfinite(phase)):
        raise ValueError("intensity ratio and phase must be finite")
    if ratio <= 0:
        raise ValueError("intensity ratio must be positive")
    logt = math.log(ratio)
    log1t = math.log1p(ratio)
    amps = np.empty(n + 1, dtype=np.complex128)
    for m in range(n + 1):
        lc = lgamma(n + 1) - lgamma(m + 1) - lgamma(n - m + 1)
        amps[m] = math.exp(0.5 * (lc + m * logt - n * log1t)) * np.exp(1j * m * phase)
    return state(amps)
