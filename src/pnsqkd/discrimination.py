"""State-set geometry, filters and unambiguous discrimination.

Covers the two-state (B92-style) POVM and its filter decomposition, the
overlap penalty that any set-orthogonalizing operation inflicts on the
conjugate set, linear independence of N-1 copies of N qubit states, and
the optimal success probability of multicopy unambiguous discrimination
on the symmetric subspace.
"""
from __future__ import annotations

import math

import numpy as np

from . import qmath
from .qmath import (
    eig_hermitian,
    measurement,
    operator_sqrt_psd,
    orthogonal_qubit,
    symmetric_coordinates,
)

DISTINCT_TOL = 1e-12


def b92_pair(eta):
    """The two nonorthogonal signal states with overlap cos(eta).

    psi_0 = (cos eta/2, sin eta/2), psi_1 = (cos eta/2, -sin eta/2).
    """
    if not 0 < eta <= math.pi / 2:
        raise ValueError("eta must be in (0, pi/2]")
    c, s = math.cos(eta / 2), math.sin(eta / 2)
    return qmath.state([c, s]), qmath.state([c, -s])


def b92_povm(eta):
    """Unambiguous discrimination of the two-state set: outcomes {0, 1, ?}.

    Measurement operators are Hermitian roots of the effects
    Pi_0 = |psi_1^perp><psi_1^perp| / (1 + cos eta), Pi_1 symmetric,
    Pi_? the remainder.  The inconclusive probability on either signal
    state is cos(eta) and misidentification is impossible.
    """
    if not 0 < eta <= math.pi / 2:
        raise ValueError("eta must be in (0, pi/2]")
    psi0, psi1 = b92_pair(eta)
    scale = 1.0 / (1.0 + math.cos(eta))
    perp1 = orthogonal_qubit(psi1)
    perp0 = orthogonal_qubit(psi0)
    pi0 = scale * np.outer(perp1, perp1.conj())
    pi1 = scale * np.outer(perp0, perp0.conj())
    pi_inc = np.eye(2) - pi0 - pi1
    return measurement([
        ("0", operator_sqrt_psd(pi0)),
        ("1", operator_sqrt_psd(pi1)),
        ("?", operator_sqrt_psd(pi_inc)),
    ])


def b92_filter(eta):
    """Two-outcome filter mapping the two-state set onto the x basis.

    A_ok = (|+x><psi_1^perp| + |-x><psi_0^perp|) / sqrt(1 + cos eta);
    it succeeds on either signal state with probability 1 - cos(eta) and
    sends psi_0 -> |+x>, psi_1 -> |-x>.  Composed with a projective x-basis
    measurement it reproduces the three-outcome POVM statistics.
    """
    if not 0 < eta < math.pi / 2:
        raise ValueError("eta must be in (0, pi/2)")
    c, s = math.cos(eta / 2), math.sin(eta / 2)
    # perpendicular states phased so both cross-overlaps are +sin(eta); the
    # relative branch phase is what sends the conjugate set onto the y basis
    perp1 = qmath.state([s, c])
    perp0 = qmath.state([s, -c])
    a_ok = (np.outer(qmath.PLUS_X, perp1.conj())
            + np.outer(qmath.MINUS_X, perp0.conj())) / math.sqrt(1.0 + math.cos(eta))
    remainder = np.eye(2) - a_ok.conj().T @ a_ok
    return measurement([
        ("ok", a_ok),
        ("?", operator_sqrt_psd(remainder)),
    ])


def filtered_overlap_bound(eta):
    """Overlap of the reflected set after the set-a orthogonalizing filter.

    Set a is the two-state pair; the reflected set is its mirror image
    through the equatorial plane, for which no operation can orthogonalize
    both sets at once.  Returns (new_overlap, pass_probability) for the maximal filter: the
    reflected pair ends with overlap 2 cos(eta) / (1 + cos^2(eta)), which
    is never below the original cos(eta), and passes the filter with
    probability (1 + cos^2(eta)) / (1 + cos(eta)).
    """
    if not 0 < eta < math.pi / 2:
        raise ValueError("eta must be in (0, pi/2)")
    c = math.cos(eta)
    new_overlap = 2.0 * c / (1.0 + c * c)
    p_b = (1.0 + c * c) / (1.0 + c)
    if new_overlap < c - 1e-15:
        raise AssertionError("overlap bound violated")
    return new_overlap, p_b


def linear_independence_check(states):
    """Linear independence of |psi_i>^(x N-1) for N distinct qubit states.

    The N-1 copies live in the N-dimensional symmetric subspace; the check
    forms their coordinate matrix in the Dicke basis and tests
    |det| > 1e-10 (columns have unit norm).  Returns (independent, |det|).
    Raises if two input states coincide up to phase.
    """
    n = len(states)
    for i in range(n):
        for j in range(i + 1, n):
            if abs(np.vdot(states[i], states[j])) >= 1.0 - DISTINCT_TOL:
                raise ValueError(f"states {i} and {j} are not distinct")
    cols = np.column_stack([symmetric_coordinates(s, n - 1) for s in states])
    det = abs(np.linalg.det(cols))
    return det > 1e-10, det


def usd_optimal_pok(n_bases):
    """Optimal unambiguous-discrimination success probability for 2 n_b
    equatorial states given 2 n_b - 1 copies.

    The copies of state j have Dicke coordinates
    sqrt(C(c, k)) 2^(-c/2) e^(i k j pi / n_b), k = 0..c, c = 2 n_b - 1.  The
    rows of the inverse of that matrix are the bras of the dual states
    <phi_j|psi_l^(c)> = delta_jl, and the equal-conclusive-probability POVM
    p |phi_j><phi_j| stays positive up to p = 1 / lambda_max(K), with
    K = sum_j |phi_j><phi_j| = inv^H inv.  Matches n_b / 4^(n_b - 1) to
    1e-13 relative for n_b up to 8.
    """
    if not 1 <= n_bases <= 8:
        raise ValueError("n_bases must be in 1..8")
    copies = 2 * n_bases - 1
    k = np.arange(copies + 1)
    # k j reduced mod 2 n_b first, so every phase is exact to one rounding
    phases = np.outer(k, np.arange(2 * n_bases)) % (2 * n_bases) * (math.pi / n_bases)
    scale = np.sqrt([math.comb(copies, m) for m in k]) * 2.0 ** (-copies / 2)
    cols = scale[:, None] * np.exp(1j * phases)
    if not abs(np.linalg.det(cols)) > 1e-10:
        raise ValueError("product states are numerically dependent")
    inv = np.linalg.inv(cols)
    w, _ = eig_hermitian(inv.conj().T @ inv)
    return 1.0 / float(w[-1])
