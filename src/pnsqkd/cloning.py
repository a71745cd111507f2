"""Asymmetric phase-covariant cloning machines and sifted-attack evaluation.

Four machines are provided: two 1 -> 2 cloners (a two-qubit construction
and a Bell-ancilla construction) and their 2 -> 3 generalizations.  Each is
represented as an isometry from the input space (with the ancilla reference
fixed) to the full output register.  The attack model mirrors the protocol:
the receiver measures his clone, sifting succeeds when his outcome excludes
one announced state, and the eavesdropper then discriminates her two
conditional states with a minimum-error measurement.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import attacks, qmath, solvers
from .attacks import InfeasibleModelError
from .qmath import Operator, StateVector, partial_trace

ISOMETRY_TOL = 1e-12


@dataclass
class CloningMachine:
    """Isometry with declared clone positions.

    ``isometry`` maps input coordinates (a qubit, or Dicke coordinates of a
    symmetric pair) to a 2^n_qubits output register.  ``clone_positions``
    are the output qubits holding clones of the input state; the remaining
    qubits stay with the eavesdropper as ancillas.
    """

    name: str
    isometry: np.ndarray
    n_qubits: int
    clone_positions: tuple
    input_kind: str  # "qubit" or "pair"
    parameter: dict = field(default_factory=dict)

    def __post_init__(self):
        v = self.isometry
        gram = v.conj().T @ v
        if np.max(np.abs(gram - np.eye(v.shape[1]))) > ISOMETRY_TOL:
            raise ValueError(f"{self.name}: isometry defect exceeds tolerance")

    @property
    def eve_positions(self):
        return tuple(q for q in range(self.n_qubits) if q not in self.clone_positions)

    def input_coordinates(self, psi):
        if self.input_kind == "qubit":
            return psi.a
        return qmath.symmetric_coordinates(psi, 2)

    def apply_to_qubit(self, psi):
        """Full output state for a single-qubit signal (pairs are lifted)."""
        out = self.isometry @ self.input_coordinates(psi)
        return StateVector(out)


def _permute_qubits(vec, perm):
    """Reorder qubits of a 2^n vector; perm[i] = source qubit of output slot i."""
    n = int(round(math.log2(vec.size)))
    return vec.reshape((2,) * n).transpose(perm).reshape(-1)


def _ket(*bits):
    return qmath.ket(*bits).a


_PHIP = (_ket(0, 0) + _ket(1, 1)) / math.sqrt(2)
_PHIM = (_ket(0, 0) - _ket(1, 1)) / math.sqrt(2)
_PSIP = (_ket(0, 1) + _ket(1, 0)) / math.sqrt(2)
_PSIM = (_ket(0, 1) - _ket(1, 0)) / math.sqrt(2)


def make_ng12(gamma):
    """Two-qubit asymmetric cloner: |00> -> |00>,
    |10> -> cos(gamma) |10> + sin(gamma) |01>.

    Equatorial fidelities (1 + cos gamma)/2 and (1 + sin gamma)/2; the
    symmetric point gamma = pi/4 gives both clones (1 + 1/sqrt 2)/2.
    """
    if not 0 <= gamma <= math.pi / 2:
        raise ValueError("gamma must be in [0, pi/2]")
    c, s = math.cos(gamma), math.sin(gamma)
    cols = np.column_stack([_ket(0, 0), c * _ket(1, 0) + s * _ket(0, 1)])
    return CloningMachine("ng12", cols, 2, (0, 1), "qubit", {"gamma": gamma})


def make_cerf12(fidelity):
    """Bell-ancilla asymmetric cloner with first-clone equatorial fidelity F.

    The output register is (clone 1, clone 2, anticlone); the ancilla pair
    is ordered so that the second clone sits on qubit 1.  At
    F = (1 + cos gamma)/2 the equatorial fidelities of both clones equal
    those of ``make_ng12(gamma)``, but the marginals differ: the two-qubit
    machine's clones carry a z offset (<sigma_z> = sin^2 gamma on clone 1
    for equatorial input) that these clones lack.  What the two machines
    share is the receiver's channel up to a bit flip: the channel to
    clone 1 here is the equal mixture of the two-qubit machine's channel N
    and its mirror X N(X . X) X.
    """
    F = fidelity
    if not 0.5 <= F <= 1.0:
        raise ValueError("fidelity must be in [1/2, 1]")
    G = 1.0 - F
    g = math.sqrt(F * G)
    cols = []
    for basis in (_ket(0), _ket(1)):
        psi = basis
        out = (F * np.kron(psi, _PHIP)
               + G * np.kron(qmath.SIGMA_Z.m @ psi, _PHIM)
               + g * (np.kron(qmath.SIGMA_X.m @ psi, _PSIP)
                      + 1j * np.kron(qmath.SIGMA_Y.m @ psi, _PSIM)))
        cols.append(_permute_qubits(out, (0, 2, 1)))  # clone 2 onto qubit 1
    return CloningMachine("cerf12", np.column_stack(cols), 3, (0, 1), "qubit",
                          {"fidelity": F})


def _ng23_columns(gamma):
    c, s = math.cos(gamma), math.sin(gamma)
    col00 = _ket(0, 0, 0)
    col_d1 = (c * (_ket(0, 1, 0) + _ket(1, 0, 0)) + s * _ket(0, 0, 1)) / math.sqrt(1 + c * c)
    col11 = (c * _ket(1, 1, 0) + s * (_ket(0, 1, 1) + _ket(1, 0, 1))) / math.sqrt(1 + s * s)
    return col00, col_d1, col11


def make_ng23(gamma):
    """Two-copy input, three-qubit output generalization of the two-qubit cloner.

    Input is the symmetric subspace of two qubits in Dicke coordinates;
    qubits 0, 1 are the symmetric clone pair and qubit 2 the third clone.
    """
    if not 0 <= gamma <= math.pi / 2:
        raise ValueError("gamma must be in [0, pi/2]")
    cols = np.column_stack(_ng23_columns(gamma))
    return CloningMachine("ng23", cols, 3, (0, 1, 2), "pair", {"gamma": gamma})


def make_ngs23(gamma):
    """Symmetrized variant: a fourth qubit entangles the machine with its
    bit-flipped mirror, (U|s,0>)|0> + (U~|s,0>)|1>, normalized by 1/sqrt 2.

    The two branch images are orthogonal (checked by the isometry test) and
    the clone fidelities coincide with the unsymmetrized machine.
    """
    if not 0 <= gamma <= math.pi / 2:
        raise ValueError("gamma must be in [0, pi/2]")
    col00, col_d1, col11 = _ng23_columns(gamma)
    flip = np.zeros((8, 8))
    for i in range(8):
        flip[i, 7 - i] = 1.0  # X on all three qubits
    # bit-flipped machine: swap the roles of |00> and |11>, mirror outputs
    t00, t_d1, t11 = flip @ col11, flip @ col_d1, flip @ col00
    cols = []
    for u, ut in ((col00, t00), (col_d1, t_d1), (col11, t11)):
        cols.append((np.kron(u, _ket(0)) + np.kron(ut, _ket(1))) / math.sqrt(2))
    return CloningMachine("ngs23", np.column_stack(cols), 4, (0, 1, 2), "pair",
                          {"gamma": gamma})


def make_cerf23(x):
    """Bell-ancilla 2 -> 3 cloner, v^2 + 8 x^2 = 1 with v = +sqrt(1 - 8 x^2).

    Universal (not phase covariant): the clone pair has fidelity 1 - 2 x^2
    for every Bloch-sphere input and the third clone 1 - (v - 2x)^2 / 2.
    All three coincide at v = 4x, where the common value is 11/12, and the
    third-clone fidelity reaches one at v = 2x.  The ancilla pair is
    ordered so the third clone sits on qubit 2.
    """
    if not 0 <= x <= 1 / math.sqrt(8):
        raise ValueError("x must be in [0, 1/sqrt 8]")
    v = math.sqrt(max(0.0, 1.0 - 8.0 * x * x))
    paulis = (qmath.SIGMA_X.m, qmath.SIGMA_Y.m, qmath.SIGMA_Z.m)
    sym2 = [np.kron(p, np.eye(2)) + np.kron(np.eye(2), p) for p in paulis]
    sx2, sy2, sz2 = sym2
    basis_pair = [_ket(0, 0), (_ket(0, 1) + _ket(1, 0)) / math.sqrt(2), _ket(1, 1)]
    cols = []
    for s in basis_pair:
        out = (v * np.kron(s, _PHIP)
               + x * (np.kron(sz2 @ s, _PHIM)
                      + np.kron(sx2 @ s, _PSIP)
                      + 1j * np.kron(sy2 @ s, _PSIM)))
        cols.append(_permute_qubits(out, (0, 1, 3, 2)))  # third clone onto qubit 2
    return CloningMachine("cerf23", np.column_stack(cols), 4, (0, 1, 2), "pair",
                          {"x": x, "v": v})


# closed-form equatorial fidelities ------------------------------------------

def ng12_fidelities(gamma):
    return (1.0 + math.cos(gamma)) / 2.0, (1.0 + math.sin(gamma)) / 2.0


def ng23_fidelities(gamma):
    f12 = (0.5 + math.cos(gamma) / (2.0 * math.sqrt(3.0 + math.cos(2 * gamma)))
           + 1.0 / math.sqrt(17.0 - math.cos(4 * gamma)))
    f3 = (0.5 + math.sin(gamma) / (2.0 * math.sqrt(3.0 + math.cos(2 * gamma)))
          + math.sin(2 * gamma) / math.sqrt(17.0 - math.cos(4 * gamma)))
    return f12, f3


def cerf23_fidelities(x):
    v = math.sqrt(max(0.0, 1.0 - 8.0 * x * x))
    return 1.0 - 2.0 * x * x, 1.0 - 0.5 * (v - 2.0 * x) ** 2


def clone_reduced_states(machine, psi):
    """Reduced state and fidelity of every declared clone position.

    Applies the isometry to the (lifted) input, forms the output projector
    and partial-traces down to each clone qubit.  Returns a list of
    (position, Operator, fidelity).
    """
    out = machine.apply_to_qubit(psi)
    rho = out.outer()
    results = []
    for pos in machine.clone_positions:
        red = partial_trace(rho, [pos], machine.n_qubits)
        fid = float(red.expectation(psi).real)
        results.append((pos, red, fid))
    return results


def bob_disturbance(machine, bob_clone=0):
    """Disturbance 1 - F of the clone forwarded to the receiver, on equatorial input."""
    reduced = clone_reduced_states(machine, qmath.PLUS_X)
    return 1.0 - reduced[bob_clone][2]


# ---------------------------------------------------------------------------
# sifted-attack machinery

_DEFAULT_ANNOUNCED = ("+x", "+y")
_STATE_BY_NAME = {
    "+x": qmath.PLUS_X, "-x": qmath.MINUS_X,
    "+y": qmath.PLUS_Y, "-y": qmath.MINUS_Y,
}
ANNOUNCED_SETS = (("+x", "+y"), ("+y", "-x"), ("-x", "-y"), ("-y", "+x"))


def _project_receiver(out, n_qubits, bob_qubit, outcome):
    """Project the receiver qubit of a pure output onto <outcome|."""
    t = np.moveaxis(out.a.reshape((2,) * n_qubits), bob_qubit, 0).reshape(2, -1)
    return outcome.a.conj() @ t


def sifted_point(machine, announced=_DEFAULT_ANNOUNCED, bob_clone=0):
    """Sifted-attack evaluation of a cloning machine at one parameter point.

    The sender emits one of the two announced states; the receiver accepts
    when his outcome is orthogonal to one of them (excluding it), inferring
    the other.  The eavesdropper knows the announcement and the acceptance
    (the receiver projected onto one of the two excluding outcomes, she
    does not learn which), so her conditional state per hypothesis is the
    acceptance-weighted mixture over those two projections; she then
    discriminates the two hypotheses with a minimum-error measurement.

    Returns a dict with the clone disturbance, the sifted error rate, the
    honest-party and eavesdropper informations and her error probability.
    """
    s0, s1 = (_STATE_BY_NAME[a] if isinstance(a, str) else a for a in announced)
    bob_qubit = machine.clone_positions[bob_clone]
    perp0 = qmath.orthogonal_qubit(s0)
    perp1 = qmath.orthogonal_qubit(s1)
    rhos = []
    qbers = []
    for sent, other in ((s0, s1), (s1, s0)):
        out = machine.apply_to_qubit(sent)
        # outcome orthogonal to the *sent* state leads to the wrong inference
        e_err = _project_receiver(out, machine.n_qubits, bob_qubit,
                                  perp0 if sent is s0 else perp1)
        e_ok = _project_receiver(out, machine.n_qubits, bob_qubit,
                                 perp1 if sent is s0 else perp0)
        w_err = float(np.vdot(e_err, e_err).real)
        w_ok = float(np.vdot(e_ok, e_ok).real)
        qbers.append(w_err / (w_err + w_ok))
        rho = 0.5 * (np.outer(e_err, e_err.conj()) + np.outer(e_ok, e_ok.conj()))
        rhos.append(Operator(rho / (0.5 * (w_err + w_ok))))
    p_e = qmath.helstrom_error(rhos[0], rhos[1], 0.5)
    qber = 0.5 * (qbers[0] + qbers[1])
    return {
        "disturbance": bob_disturbance(machine, bob_clone),
        "qber_sifted": qber,
        "i_ab": qmath.binary_information(qber),
        "i_eve": qmath.binary_information(p_e),
        "p_e": p_e,
    }


def sifted_cloning_attack(machine_factory, param_grid, bob_clone=0):
    """Sifted-attack series over a machine parameter grid.

    ``machine_factory`` maps a parameter to a CloningMachine (for example
    ``make_ng12`` over gamma, or ``make_cerf12`` over the fidelity).
    Returns a list of row dicts sorted as given.
    """
    rows = []
    for p in param_grid:
        machine = machine_factory(p)
        row = sifted_point(machine, bob_clone=bob_clone)
        row["parameter"] = p
        rows.append(row)
    return rows


def pns_cloning_attack(machine_factory, mu, delta_db, param_grid, bob_clone=0):
    """Two-photon splitting attack with a 2 -> 3 cloner.

    Feasible only when the channel loss lets the eavesdropper block every
    single-photon pulse: mu 10^(-delta/10) <= sum_{n>=2} p_n (n-1).  She
    clones each two-photon pulse, forwards one clone and keeps the other
    two output qubits plus ancillas; the information accounting is the same
    sifted machinery with her enlarged system.
    """
    required = mu * 10.0 ** (-delta_db / 10.0)
    if required > attacks.bb84_split_rate(mu) + 1e-15:
        raise InfeasibleModelError(
            f"attenuation {delta_db:g} dB too small: single-photon pulses cannot all be blocked")
    return sifted_cloning_attack(machine_factory, param_grid, bob_clone=bob_clone)


def information_crossing(rows, axis="qber_sifted"):
    """First point along the series where the eavesdropper information
    meets the honest-party information, located by linear interpolation
    on the chosen abscissa ('qber_sifted' or 'disturbance')."""
    prev = None
    for row in rows:
        gap = row["i_ab"] - row["i_eve"]
        x = row[axis]
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


def ng12_gamma_for_disturbance(d):
    """Parameter of the two-qubit cloner giving receiver disturbance d."""
    return math.acos(1.0 - 2.0 * d)


def ngs23_gamma_for_disturbance(d, tol=1e-12):
    """Parameter of the symmetrized 2 -> 3 cloner giving disturbance d on
    the clone pair (bisection on the monotone fidelity)."""
    lo, hi = 0.0, math.pi / 2
    target = 1.0 - d
    if not ng23_fidelities(hi)[0] - 1e-12 <= target <= ng23_fidelities(lo)[0] + 1e-12:
        raise ValueError("disturbance out of range for this machine")
    return solvers.bisect_decreasing(lambda g: ng23_fidelities(g)[0] - target, lo, hi, tol)
