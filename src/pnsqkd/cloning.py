"""Asymmetric phase-covariant cloning machines and sifted-attack evaluation.

Five machines are provided: two 1 -> 2 cloners (a two-qubit construction
and a Bell-ancilla construction) and their 2 -> 3 generalizations, the
two-qubit one also symmetrized with its bit-flipped mirror.  Each is
represented as an isometry from the input space (with the ancilla reference
fixed) to the full output register; a factory called with a parameter grid
returns the stack of those isometries.  ``sifted_points`` evaluates a
cloning attack on any machine: for a machine or a stack it returns a dict
of column arrays over the grid, which ``pns_cloning_attack``,
``information_crossing``, the 2 -> 3 curve of the CLI and the tests read
as they are.  The attack model mirrors the protocol: the sender emits +x
or +y (the announced pair), the receiver measures his clone, sifting
succeeds when his outcome excludes one announced state, and the
eavesdropper then discriminates her two conditional states with a
minimum-error measurement, whose error is read in closed form from the QR
factor of the receiver's four projected amplitudes, with no eigensolve.
The closed forms of the machines, which the scalar curves print without
NumPy, are in ``cloners``.  The 67 km case study is here too, since it
reads its two cloning terms from a ``sifted_points`` stack.
"""
from __future__ import annotations

import bisect
import math
from typing import NamedTuple

import numpy as np

from . import attacks, information, keyrate, qmath, solvers
from .attacks import InfeasibleModelError
from .cloners import CERF23_X_MAX, ng23_fidelities
from .photonics import DEFAULT_ALPHA_DB_PER_KM, nonnegative_finite
from .qmath import partial_trace

ISOMETRY_TOL = 1e-12


class CloningMachine:
    """Isometry, or a stack of isometries over a parameter grid, with
    declared clone positions.

    ``isometry`` maps input coordinates (a qubit, or with three columns the
    Dicke coordinates of a symmetric pair) to a 2^n_qubits output register;
    a stack has shape (G, 2^n_qubits, d_in), one slice per grid point.
    ``clone_positions`` are the output qubits holding clones of the input
    state, the receiver's first; the remaining qubits stay with the
    eavesdropper as ancillas.
    """

    def __init__(self, name, isometry, clone_positions, parameter=None):
        self.name, self.isometry, self.clone_positions = name, isometry, clone_positions
        self.parameter = {} if parameter is None else parameter
        v = isometry
        if v.shape[-1] not in _SIGNAL_COLUMNS:
            raise ValueError(f"{self.name}: isometry must have 2 or 3 input columns")
        gram = np.swapaxes(v.conj(), -1, -2) @ v
        if not np.max(np.abs(gram - _IDENTITY[v.shape[-1]]), initial=0.0) <= ISOMETRY_TOL:
            raise ValueError(f"{self.name}: isometry defect exceeds tolerance")

    @property
    def n_qubits(self):
        return self.isometry.shape[-2].bit_length() - 1

    def input_coordinates(self, psi):
        if self.isometry.shape[-1] == 2:
            return psi
        return qmath.symmetric_coordinates(psi, 2)

    def apply_to_qubit(self, psi):
        """Full output state for a single-qubit signal (pairs are lifted)."""
        _require_single(self)
        return qmath.state(self.isometry @ self.input_coordinates(psi))


def _require_single(machine):
    if machine.isometry.ndim != 2:
        raise ValueError(f"{machine.name}: expected one machine, got a stack")


# Constant pieces of the isometries, built once.  Each machine is a linear
# combination of its pieces with scalar weights.

def _basis_sums(dim, *columns):
    """Matrix whose k-th column sums the basis kets named in columns[k]."""
    m = np.zeros((dim, len(columns)), dtype=np.complex128)
    for k, labels in enumerate(columns):
        for bits in labels.split():
            m[int(bits, 2), k] = 1.0
    return m


_NG12_FIXED = _basis_sums(4, "00", "")
_NG12_COS = _basis_sums(4, "", "10")
_NG12_SIN = _basis_sums(4, "", "01")
_NG23_FIXED = _basis_sums(8, "000", "", "")
_NG23_COS = _basis_sums(8, "", "010 100", "110")
_NG23_SIN = _basis_sums(8, "", "001", "011 101")

# Bell-ancilla machines: input (x) ancilla pair, with the pair written in
# swapped order so the clone lands next to the input.  Swapping the pair
# leaves Phi+, Phi- and Psi+ unchanged and negates Psi-.
_PHIP, _PHIM, _PSIP = (b[:, None] for b in (qmath.PHI_PLUS, qmath.PHI_MINUS, qmath.PSI_PLUS))
_PSIM_SWAPPED = -qmath.PSI_MINUS[:, None]
_X, _Y, _Z = qmath.SIGMA_X, qmath.SIGMA_Y, qmath.SIGMA_Z
_CERF12_F = np.kron(np.eye(2), _PHIP)
_CERF12_G = np.kron(_Z, _PHIM)
_CERF12_SQRT_FG = np.kron(_X, _PSIP) + 1j * np.kron(_Y, _PSIM_SWAPPED)
_PAIR = np.column_stack(qmath.symmetric_basis(2))
_X2, _Y2, _Z2 = (np.kron(p, np.eye(2)) + np.kron(np.eye(2), p) for p in (_X, _Y, _Z))
_CERF23_V = np.kron(_PAIR, _PHIP)
_CERF23_X = (np.kron(_Z2 @ _PAIR, _PHIM) + np.kron(_X2 @ _PAIR, _PSIP)
             + 1j * np.kron(_Y2 @ _PAIR, _PSIM_SWAPPED))

# The announced pair of the sifted attack, its input columns keyed by the
# isometry's input dimension (a qubit, or the Dicke coordinates of a pair),
# the receiver's two excluding outcomes as bras, and the signs of the
# eavesdropper's two hypotheses in M = (rho_0 - rho_1)/2.
_SIGNALS = (qmath.PLUS_X, qmath.PLUS_Y)
_SIGNAL_COLUMNS = {
    2: np.stack(_SIGNALS, axis=-1),
    3: np.stack([qmath.symmetric_coordinates(s, 2) for s in _SIGNALS], axis=-1),
}
_IDENTITY = {d: np.eye(d) for d in _SIGNAL_COLUMNS}
_EXCLUDING_BRAS = tuple(qmath.orthogonal_qubit(s).conj() for s in _SIGNALS)
_SIGNS = np.array([1.0, -1.0])


# Every factory takes one parameter or a grid of them (a sequence or 1-D
# array).  A grid gives one machine whose isometry is the stack of the
# per-point isometries.  cos and sin come from the math module point by
# point, and square roots and products round the same in NumPy, so each
# slice equals the single-point machine bit for bit.

def _grid(param, lo, hi, message):
    p = np.atleast_1d(np.asarray(param, dtype=float))
    if p.ndim != 1 or not np.all((lo <= p) & (p <= hi)):
        raise ValueError(message)
    return p


def _weights(fn, grid):
    """fn at every grid point, shaped (G, 1, 1) to scale a stack."""
    return np.array([fn(x) for x in grid.tolist()])[:, None, None]


def _machine(name, v, clone_positions, param, parameter):
    return CloningMachine(name, v if np.ndim(param) else v[0], clone_positions, parameter)


def make_ng12(gamma):
    """Two-qubit asymmetric cloner: |00> -> |00>,
    |10> -> cos(gamma) |10> + sin(gamma) |01>.

    Equatorial fidelities (1 + cos gamma)/2 and (1 + sin gamma)/2; the
    symmetric point gamma = pi/4 gives both clones (1 + 1/sqrt 2)/2.
    """
    g = _grid(gamma, 0.0, math.pi / 2, "gamma must be in [0, pi/2]")
    v = _NG12_FIXED + _weights(math.cos, g) * _NG12_COS + _weights(math.sin, g) * _NG12_SIN
    return _machine("ng12", v, (0, 1), gamma, {"gamma": gamma})


def make_cerf12(fidelity):
    """Bell-ancilla asymmetric cloner with first-clone equatorial fidelity F.

    The output register is (clone 1, clone 2, anticlone).  At
    F = (1 + cos gamma)/2 the equatorial fidelities of both clones equal
    those of ``make_ng12(gamma)``, but the marginals differ: the two-qubit
    machine's clones carry a z offset (<sigma_z> = sin^2 gamma on clone 1
    for equatorial input) that these clones lack.  What the two machines
    share is the receiver's channel up to a bit flip: the channel to
    clone 1 here is the equal mixture of the two-qubit machine's channel N
    and its mirror X N(X . X) X.
    """
    F = _grid(fidelity, 0.5, 1.0, "fidelity must be in [1/2, 1]")[:, None, None]
    G = 1.0 - F
    v = F * _CERF12_F + G * _CERF12_G + np.sqrt(F * G) * _CERF12_SQRT_FG
    return _machine("cerf12", v, (0, 1), fidelity, {"fidelity": fidelity})


def _ng23_isometry(g):
    c, s = _weights(math.cos, g), _weights(math.sin, g)
    norms = np.concatenate([np.ones_like(c), np.sqrt(1 + c * c), np.sqrt(1 + s * s)], axis=2)
    return _NG23_FIXED + (c * _NG23_COS + s * _NG23_SIN) / norms


def make_ng23(gamma):
    """Two-copy input, three-qubit output generalization of the two-qubit cloner.

    Input is the symmetric subspace of two qubits in Dicke coordinates;
    qubits 0, 1 are the symmetric clone pair and qubit 2 the third clone.
    """
    g = _grid(gamma, 0.0, math.pi / 2, "gamma must be in [0, pi/2]")
    return _machine("ng23", _ng23_isometry(g), (0, 1, 2), gamma, {"gamma": gamma})


def make_ngs23(gamma):
    """Symmetrized variant: a fourth qubit entangles the machine with its
    bit-flipped mirror, (U|s,0>)|0> + (U~|s,0>)|1>, normalized by 1/sqrt 2.

    The two branch images are orthogonal (checked by the isometry test) and
    the clone fidelities coincide with the unsymmetrized machine.
    """
    g = _grid(gamma, 0.0, math.pi / 2, "gamma must be in [0, pi/2]")
    u = _ng23_isometry(g)
    # the mirror U~: X on all three qubits reverses the output index, and
    # swapping the roles of |00> and |11> reverses the columns
    v = np.stack([u, u[:, ::-1, ::-1]], axis=2).reshape(len(g), 16, 3) / math.sqrt(2)
    return _machine("ngs23", v, (0, 1, 2), gamma, {"gamma": gamma})


def make_cerf23(x):
    """Bell-ancilla 2 -> 3 cloner, v^2 + 8 x^2 = 1 with v = +sqrt(1 - 8 x^2).

    Universal (not phase covariant): the clone pair has fidelity 1 - 2 x^2
    for every Bloch-sphere input and the third clone 1 - (v - 2x)^2 / 2.
    All three coincide at v = 4x, where the common value is 11/12, and the
    third-clone fidelity reaches one at v = 2x.  The third clone sits on
    qubit 2.
    """
    xs = _grid(x, 0.0, CERF23_X_MAX, "x must be in [0, 1/sqrt 8]")[:, None, None]
    v = np.sqrt(np.maximum(0.0, 1.0 - 8.0 * xs * xs))
    v_param = v[:, 0, 0] if np.ndim(x) else float(v[0, 0, 0])
    return _machine("cerf23", v * _CERF23_V + xs * _CERF23_X, (0, 1, 2), x,
                    {"x": x, "v": v_param})


def clone_reduced_states(machine, psi):
    """Reduced state and fidelity of every declared clone position.

    Applies the isometry to the (lifted) input and partial-traces its
    projector down to each clone qubit.  Returns a list of
    (position, reduced density operator, fidelity).
    """
    out = machine.apply_to_qubit(psi)
    results = []
    for pos in machine.clone_positions:
        red = partial_trace(out, [pos])
        fid = float(np.vdot(psi, red @ psi).real)
        results.append((pos, red, fid))
    return results


def _receiver_amplitudes(machine):
    """<outcome|_B V|input> for every slice of a machine or stack, with the
    receiver's clone projected out: shape (G, 2 inputs, 2 outcomes, 2^(n-1)).

    The inputs are the two signal states (+x, +y) and the outcomes the two
    that exclude them; the signal states, their input columns and the
    conjugated excluding outcomes are module constants.  The receiver holds
    output qubit 0 on every machine here, so his projection acts on the
    most significant index.
    """
    if machine.clone_positions[0] != 0:
        raise ValueError(f"{machine.name}: the receiver's clone must be output qubit 0")
    v = machine.isometry.reshape((-1,) + machine.isometry.shape[-2:])
    # (G, input, receiver qubit, rest), contiguous so that each product
    # below rounds exactly as the single-machine one
    out = np.ascontiguousarray(np.moveaxis(v @ _SIGNAL_COLUMNS[v.shape[-1]], 2, 1))
    out = out.reshape(len(v), len(_SIGNALS), 2, v.shape[1] // 2)
    return np.stack([bra @ out for bra in _EXCLUDING_BRAS], axis=2)


def _squared_norms(e):
    """||e||^2 along the last axis, as a product so that it rounds as
    np.vdot does for one vector."""
    return (e.conj()[..., None, :] @ e[..., :, None])[..., 0, 0].real


# ---------------------------------------------------------------------------
# sifted-attack machinery

def sifted_points(machine):
    """Sifted-attack evaluation of a cloning machine at every grid point of
    a stack (or at its one point).

    The sender emits +x or +y, the announced pair; the receiver accepts
    when his outcome is orthogonal to one of them (excluding it), inferring
    the other.  In e[:, k, o] the state k was sent and the outcome is
    orthogonal to announced state o, so o = k leads to the wrong inference.
    Every other announced pair of neighboring equatorial states is a
    rotation or reflection of this one and gives the same numbers.  The
    two signal states, their input columns (keyed by the isometry's input
    dimension) and the conjugated excluding outcomes are module constants,
    built once with the isometry pieces.  On every machine here the right
    exclusion weighs exactly 1/2 (the clone's Bloch vector has no component
    along the other announced state) and the wrong one weighs the
    disturbance D, so the sifted error rate is
    q = D/(D + 1/2) = 2D/(1 + 2D).

    The eavesdropper knows the announcement and the acceptance (the
    receiver projected onto one of the two excluding outcomes, she does not
    learn which), so her conditional state per hypothesis is the
    acceptance-weighted mixture over those two projections; she then
    discriminates the two hypotheses with a minimum-error measurement,
    p_e = (1 - ||M||_1)/2 with M = (rho_0 - rho_1)/2.  ||M||_1 is read in
    closed form, with no eigensolve:
    - M = E C E^H, with the four amplitudes e[:, k, o] as the columns of E
      and C = diag(c_0, c_0, -c_1, -c_1), c_k = 1 / (2 accepted_k).  With
      E = QR (Householder), M has the nonzero spectrum of the at most 4x4
      M' = R C R^H.
    - The reflection x <-> y of the equator swaps the announced states and
      the two excluding outcomes.  Every machine here carries it to the
      eavesdropper's side, where it swaps rho_0 and rho_1 and so takes M
      to -M.  As the antiunitary diag(1, i) K (K complex conjugation) it
      is a symmetry of all five machines, since each isometry is real and
      covariant under the phase gate diag(1, i): the ng machines conserve
      the number of excitations (ngs23's mirror branch up to a fixed
      shift), and the Bell-ancilla ones are Pauli cloners, covariant as
      U (x) U (x) U* under any U that keeps their Pauli weights.  So on
      her side it acts by conjugation, rho_1 = W rho_0* W^H for a unitary
      W.  As the unitary pi rotation about (x + y)/sqrt 2 it is also a
      symmetry of cerf12 and cerf23 (the same Pauli covariance) and of
      ngs23 (its bit-flip mirror branch), but not of ng12 or ng23, whose
      outputs are not bit-flip symmetric.
    - Either way the spectrum of M' is +-a, +-b (b = 0 when E has 2 rows,
      as for ng12), so ||M||_1 = 2(a + b), ||M'||_F^2 = 2(a^2 + b^2) and
      ab = sqrt(det M') = c_0 c_1 prod |R_ii|, and

          ||M||_1 = sqrt(2 ||M'||_F^2 + 8 ab).

      Both terms are sums and products of nonnegative numbers, so neither
      cancels where b -> 0 (rank-deficient points, and all of ng23).

    Returns a dict of arrays over the grid: the clone disturbance
    ||<-x|_B V|+x>||^2 = 1 - F (read without the cancellation of 1 - F),
    the sifted error rate, the honest-party and eavesdropper informations
    and her error probability.
    """
    e = _receiver_amplitudes(machine)
    w = _squared_norms(e)
    accepted = w[:, :, 0] + w[:, :, 1]
    qber = 0.5 * (w[:, 0, 0] / accepted[:, 0] + w[:, 1, 1] / accepted[:, 1])
    r = np.linalg.qr(np.swapaxes(e.reshape(len(e), 4, e.shape[-1]), 1, 2), mode="r")
    c = 0.5 / accepted
    m = (r * np.repeat(c * _SIGNS, 2, axis=1)[:, None, :]) @ np.swapaxes(r.conj(), 1, 2)
    frobenius2 = np.sum(m.real ** 2 + m.imag ** 2, axis=(1, 2))
    ab = 0.0
    if r.shape[1] == 4:
        ab = c[:, 0] * c[:, 1] * np.prod(np.abs(np.diagonal(r, axis1=1, axis2=2)), axis=1)
    p_e = 0.5 * (1.0 - np.sqrt(2.0 * frobenius2 + 8.0 * ab))
    return {
        "disturbance": w[:, 0, 0],
        "qber_sifted": qber,
        "i_ab": np.array([information.binary_information(q) for q in qber.tolist()]),
        "i_eve": np.array([information.binary_information(p) for p in p_e.tolist()]),
        "p_e": p_e,
    }


def sifted_point(machine):
    """``sifted_points`` of one machine, as a dict of floats."""
    _require_single(machine)
    return {key: float(column[0]) for key, column in sifted_points(machine).items()}


def pns_cloning_attack(machine_factory, mu, delta_db, param_grid):
    """Two-photon splitting attack with a 2 -> 3 cloner, as the
    ``sifted_points`` columns of ``machine_factory(param_grid)``.

    Feasible only when the channel loss lets the eavesdropper block every
    single-photon pulse: mu 10^(-delta/10) <= sum_{n>=2} p_n (n-1), that is,
    delta at least ``attacks.bb84_critical_attenuation(mu)``, which is summed
    in logs, so it holds also where those rates are subnormal.  She clones
    each two-photon pulse, forwards one clone and keeps the other two output
    qubits plus ancillas; the information accounting is the same sifted
    machinery with her enlarged system.
    """
    critical = attacks.bb84_critical_attenuation(mu)
    if nonnegative_finite(delta_db, "attenuation") < critical:
        raise InfeasibleModelError(
            f"attenuation {delta_db:g} dB too small: single-photon pulses cannot all be blocked")
    return sifted_points(machine_factory(param_grid))


def information_crossing(points):
    """First grid point where the eavesdropper information meets the
    honest-party information in ``sifted_points`` columns, located by
    linear interpolation on the sifted error rate."""
    prev = None
    for i_ab, i_eve, x in zip(*(points[k].tolist() for k in ("i_ab", "i_eve", "qber_sifted"))):
        gap = i_ab - i_eve
        if prev is not None:
            pgap, px = prev
            if pgap > 0.0 >= gap:
                t = pgap / (pgap - gap)
                return px + t * (x - px)
        prev = (gap, x)
    return None


def ngs23_gamma_for_disturbance(d):
    """Parameter of the symmetrized 2 -> 3 cloner giving disturbance d on
    the clone pair (a root of the monotone fidelity, to the last bit)."""
    lo, hi = 0.0, math.pi / 2
    target = 1.0 - d
    if not ng23_fidelities(hi)[0] - 1e-12 <= target <= ng23_fidelities(lo)[0] + 1e-12:
        raise ValueError("disturbance out of range for this machine")
    return solvers.root_decreasing(lambda g: ng23_fidelities(g)[0] - target, lo, hi)


def cerf23_x_for_disturbance(points):
    """x of the Bell-ancilla 2 -> 3 cloner whose clone pair has disturbance
    2 x^2 = D, the ``disturbance`` column of ``sifted_points``, capped at x =
    CERF23_X_MAX (D = 1/4)."""
    return [min(math.sqrt(d / 2.0), CERF23_X_MAX) for d in points["disturbance"].tolist()]


# ---------------------------------------------------------------------------
# 67 km case study

class GenevaLausanneReport(NamedTuple):
    """Security audit of the 67 km field experiment (mu = 0.2, QBER 5%:
    4% detector noise + 1% optical)."""

    mu: float
    distance_km: float
    delta_db: float
    qber: float
    i_ab: float
    i_eve_pns: float          # interpolated photon-number attack, no errors
    i_eve_cloning_optical: float   # cloning bounded by the optical error share
    i_eve_cloning_full: float      # cloning credited with the full error
    secure_optical_attribution: bool
    secure_full_error: bool


_CLONING_GRID = [1e-6 + (math.pi / 2 - 2e-6) * k / 240 for k in range(241)]


def _cloning_infos(qbers):
    """Eavesdropper information of the two-photon cloning attack (stronger,
    symmetrized machine) at each target sifted error rate, interpolated
    linearly from the first row of the 241-point gamma grid that reaches it.

    The rows are located by the closed-form root: on every machine the
    sifted error rate is q = 2D/(1 + 2D), so the gamma of disturbance
    q/(2(1 - q)) guesses the row k, and only rows k - 2 .. k + 1 of every
    target are evaluated, in one ``sifted_points`` stack (each slice of a
    stack equals its one-point machine, so they read as on the full grid).
    The error rate increases along the grid, so a row reaching the target
    after one that falls short is the first; where these rows hold no such
    pair the guess has failed (InfeasibleModelError).
    """
    windows = []
    for qber in qbers:
        gamma = ngs23_gamma_for_disturbance(min(qber / (2.0 * (1.0 - qber)), 0.25))
        k = bisect.bisect_left(_CLONING_GRID, gamma)
        windows.append(range(max(k - 2, 0), min(k + 2, len(_CLONING_GRID))))
    rows = sorted(set().union(*windows))
    points = sifted_points(make_ngs23([_CLONING_GRID[k] for k in rows]))
    scan = dict(zip(rows, points["qber_sifted"].tolist()))
    i_eve = dict(zip(rows, points["i_eve"].tolist()))
    infos = []
    for qber, window in zip(qbers, windows):
        hi = next((k for k in window[1:] if scan[k - 1] < qber <= scan[k]), None)
        if hi is None:
            raise InfeasibleModelError(
                f"the cloning rows around the guessed gamma do not bracket the error rate {qber:g}")
        t = (qber - scan[hi - 1]) / (scan[hi] - scan[hi - 1])
        infos.append(i_eve[hi - 1] + t * (i_eve[hi] - i_eve[hi - 1]))
    return infos


def geneva_lausanne_report(alpha=DEFAULT_ALPHA_DB_PER_KM):
    """Case study: four-state sifting retrofitted onto the 67 km experiment.

    I_AB = I(5%) ~ 0.71 bits.  The error-free interpolated photon-number
    attack at 16.75 dB stays below 0.5 bits, and crediting the eavesdropper
    with cloning up to either the optical error (1%) or the full observed
    error (5%) still leaves her short of I_AB, so the link is secure under
    both attributions.
    """
    mu, distance = 0.2, 67.0
    delta = distance * alpha
    qber, qber_optical = 0.05, 0.01
    i_ab = information.binary_information(qber)
    i_eve_pns, _, _ = attacks.fourstate_combined_info(mu, delta)
    i_clone_opt, i_clone_full = _cloning_infos((qber_optical, qber))
    return GenevaLausanneReport(
        mu=mu,
        distance_km=distance,
        delta_db=delta,
        qber=qber,
        i_ab=i_ab,
        i_eve_pns=i_eve_pns,
        i_eve_cloning_optical=i_clone_opt,
        i_eve_cloning_full=i_clone_full,
        secure_optical_attribution=keyrate.secure(i_ab, max(i_eve_pns, i_clone_opt)),
        secure_full_error=keyrate.secure(i_ab, max(i_eve_pns, i_clone_full)),
    )
