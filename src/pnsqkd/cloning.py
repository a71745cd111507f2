"""Asymmetric phase-covariant cloning machines and sifted-attack evaluation.

Four machines are provided: two 1 -> 2 cloners (a two-qubit construction
and a Bell-ancilla construction) and their 2 -> 3 generalizations.  Each is
represented as an isometry from the input space (with the ancilla reference
fixed) to the full output register; a factory called with a parameter grid
returns the stack of those isometries.  ``sifted_points`` is the one
evaluator of a cloning attack: for a machine or a stack it returns a dict
of column arrays over the grid, which ``pns_cloning_attack``,
``information_crossing`` and the CLI read as they are.  The attack model
mirrors the protocol: the sender emits +x or +y (the announced pair), the
receiver measures his clone, sifting succeeds when his outcome excludes
one announced state, and the eavesdropper then discriminates her two
conditional states with a minimum-error measurement.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import qmath, solvers
from .attacks import InfeasibleModelError
from .photonics import nonnegative_finite, poisson_moments, positive_finite, transmission
from .qmath import partial_trace

ISOMETRY_TOL = 1e-12
CERF23_X_MAX = 1 / math.sqrt(8)  # the Bell-ancilla 2 -> 3 cloner's x range is [0, 1/sqrt 8]


@dataclass
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

    name: str
    isometry: np.ndarray
    clone_positions: tuple
    parameter: dict = field(default_factory=dict)

    def __post_init__(self):
        v = self.isometry
        gram = np.swapaxes(v.conj(), -1, -2) @ v
        if not np.max(np.abs(gram - np.eye(v.shape[-1])), initial=0.0) <= ISOMETRY_TOL:
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


# closed-form equatorial fidelities ------------------------------------------

def ng23_fidelities(gamma):
    if not 0.0 <= gamma <= math.pi / 2:
        raise ValueError("gamma must be in [0, pi/2]")
    f12 = (0.5 + math.cos(gamma) / (2.0 * math.sqrt(3.0 + math.cos(2 * gamma)))
           + 1.0 / math.sqrt(17.0 - math.cos(4 * gamma)))
    f3 = (0.5 + math.sin(gamma) / (2.0 * math.sqrt(3.0 + math.cos(2 * gamma)))
          + math.sin(2 * gamma) / math.sqrt(17.0 - math.cos(4 * gamma)))
    return f12, f3


def cerf23_fidelities(x):
    if not 0.0 <= x <= CERF23_X_MAX:
        raise ValueError("x must be in [0, 1/sqrt 8]")
    v = math.sqrt(max(0.0, 1.0 - 8.0 * x * x))
    return 1.0 - 2.0 * x * x, 1.0 - 0.5 * (v - 2.0 * x) ** 2


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


def _receiver_amplitudes(machine, inputs, outcomes):
    """<outcome|_B V|input> for every slice of a machine or stack, with the
    receiver's clone projected out: shape (G, inputs, outcomes, 2^(n-1)).

    The receiver holds output qubit 0 on every machine here, so his
    projection acts on the most significant index.
    """
    if machine.clone_positions[0] != 0:
        raise ValueError(f"{machine.name}: the receiver's clone must be output qubit 0")
    v = machine.isometry.reshape((-1,) + machine.isometry.shape[-2:])
    columns = np.stack([machine.input_coordinates(psi) for psi in inputs], axis=-1)
    # (G, input, receiver qubit, rest), contiguous so that each product
    # below rounds exactly as the single-machine one
    out = np.ascontiguousarray(np.moveaxis(v @ columns, 2, 1))
    out = out.reshape(len(v), len(inputs), 2, v.shape[1] // 2)
    return np.stack([o.conj() @ out for o in outcomes], axis=2)


def _squared_norms(e):
    """||e||^2 along the last axis, as a product so that it rounds as
    np.vdot does for one vector."""
    return (e.conj()[..., None, :] @ e[..., :, None])[..., 0, 0].real


# ---------------------------------------------------------------------------
# sifted-attack machinery

def _sifting(machine):
    """The receiver's side of the sifted attack at every grid point: his
    projected amplitudes e[:, k, o], their weights w = ||e||^2, the
    acceptance weights per sent state and the sifted error rate.

    The sender emits +x or +y, the announced pair; the receiver accepts
    when his outcome is orthogonal to one of them (excluding it), inferring
    the other.  In e[:, k, o] the state k was sent and the outcome is
    orthogonal to announced state o, so o = k leads to the wrong inference.
    Every other announced pair of neighboring equatorial states is a
    rotation or reflection of this one and gives the same numbers.

    On every machine here the right exclusion weighs exactly 1/2 (the
    clone's Bloch vector has no component along the other announced
    state) and the wrong one weighs the disturbance D, so the sifted error
    rate is q = D/(D + 1/2) = 2D/(1 + 2D).
    """
    states = (qmath.PLUS_X, qmath.PLUS_Y)
    e = _receiver_amplitudes(machine, states, [qmath.orthogonal_qubit(s) for s in states])
    w = _squared_norms(e)
    accepted = w[:, :, 0] + w[:, :, 1]
    qber = 0.5 * (w[:, 0, 0] / accepted[:, 0] + w[:, 1, 1] / accepted[:, 1])
    return e, w, accepted, qber


def sifted_qber(machine):
    """Sifted error rate at every grid point of a stack (or at its one
    point): the projection stage of ``sifted_points`` alone, with no
    eigensolve.  Each value equals that of ``sifted_points`` bit for bit."""
    return _sifting(machine)[3]


def sifted_points(machine):
    """Sifted-attack evaluation of a cloning machine at every grid point of
    a stack (or at its one point).

    The receiver's side is ``sifted_qber``'s stage.  The eavesdropper knows
    the announcement and the acceptance (the receiver projected onto one of
    the two excluding outcomes, she does not learn which), so her
    conditional state per hypothesis is the acceptance-weighted mixture
    over those two projections; she then discriminates the two hypotheses
    with a minimum-error measurement: one stacked eigensolve of at most 4x4
    in the span of the four projected amplitudes for the whole grid.

    Returns a dict of arrays over the grid: the clone disturbance
    ||<-x|_B V|+x>||^2 = 1 - F (read without the cancellation of 1 - F),
    the sifted error rate, the honest-party and eavesdropper informations
    and her error probability.
    """
    e, w, accepted, qber = _sifting(machine)
    # half rho_0 minus half rho_1 is V C V^H, the columns of V the four
    # amplitudes e[:, k, o] and C = diag(c_0, c_0, -c_1, -c_1) with
    # c_k = 1 / (2 accepted_k); with V = QR its nonzero eigenvalues are
    # those of R C R^H
    r = np.linalg.qr(np.swapaxes(e.reshape(len(e), 4, e.shape[-1]), 1, 2), mode="r")
    c = np.repeat(0.5 / accepted * [1.0, -1.0], 2, axis=1)
    p_e = 0.5 * (1.0 - qmath.trace_norm((r * c[:, None, :]) @ np.swapaxes(r.conj(), 1, 2)))
    return {
        "disturbance": w[:, 0, 0],
        "qber_sifted": qber,
        "i_ab": np.array([qmath.binary_information(q) for q in qber.tolist()]),
        "i_eve": np.array([qmath.binary_information(p) for p in p_e.tolist()]),
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
    single-photon pulse: mu 10^(-delta/10) <= sum_{n>=2} p_n (n-1), to a
    relative 1e-12 for rounding.  She clones each two-photon pulse, forwards
    one clone and keeps the other two output qubits plus ancillas; the
    information accounting is the same sifted machinery with her enlarged system.
    """
    positive_finite(mu, "mu")
    required = mu * transmission(nonnegative_finite(delta_db, "attenuation"))
    if required > poisson_moments(mu)[0] * (1.0 + 1e-12):
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


def bb84_reference_information(disturbance):
    """Optimal individual-attack information for basis-revealing sifting:
    1 - h(1/2 + sqrt(D (1 - D))).  Crosses 1 - h(D) at D = (1 - 1/sqrt 2)/2."""
    if not 0.0 <= disturbance <= 0.5:
        raise ValueError("disturbance must be in [0, 1/2]")
    arg = 0.5 + math.sqrt(disturbance * (1.0 - disturbance))
    return qmath.binary_information(1.0 - arg)


def ngs23_gamma_for_disturbance(d):
    """Parameter of the symmetrized 2 -> 3 cloner giving disturbance d on
    the clone pair (a root of the monotone fidelity, to the last bit)."""
    lo, hi = 0.0, math.pi / 2
    target = 1.0 - d
    if not ng23_fidelities(hi)[0] - 1e-12 <= target <= ng23_fidelities(lo)[0] + 1e-12:
        raise ValueError("disturbance out of range for this machine")
    return solvers.root_decreasing(lambda g: ng23_fidelities(g)[0] - target, lo, hi)


def cerf12_fidelity_for_disturbance(points):
    """Fidelity F = 1 - D of the Bell-ancilla 1 -> 2 cloner with disturbance D,
    the ``disturbance`` column of ``sifted_points`` clipped to [0, 1/2], and
    ``bb84_reference_information`` at each D: (array of F, list)."""
    d = np.clip(points["disturbance"], 0.0, 0.5)
    return 1.0 - d, [bb84_reference_information(x) for x in d.tolist()]


def cerf23_x_for_disturbance(points):
    """x of the Bell-ancilla 2 -> 3 cloner whose clone pair has disturbance
    2 x^2 = D, the ``disturbance`` column of ``sifted_points``, capped at x =
    CERF23_X_MAX (D = 1/4)."""
    return [min(math.sqrt(d / 2.0), CERF23_X_MAX) for d in points["disturbance"].tolist()]
