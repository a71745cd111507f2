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

    ``isometry`` maps input coordinates (a qubit, or with three columns the
    Dicke coordinates of a symmetric pair) to a 2^n_qubits output register.
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
        gram = v.conj().T @ v
        if np.max(np.abs(gram - np.eye(v.shape[1]))) > ISOMETRY_TOL:
            raise ValueError(f"{self.name}: isometry defect exceeds tolerance")

    @property
    def n_qubits(self):
        return self.isometry.shape[0].bit_length() - 1

    def input_coordinates(self, psi):
        if self.isometry.shape[1] == 2:
            return psi.a
        return qmath.symmetric_coordinates(psi, 2)

    def apply_to_qubit(self, psi):
        """Full output state for a single-qubit signal (pairs are lifted)."""
        out = self.isometry @ self.input_coordinates(psi)
        return StateVector(out)


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
_PHIP, _PHIM, _PSIP = (b.a[:, None] for b in (qmath.PHI_PLUS, qmath.PHI_MINUS, qmath.PSI_PLUS))
_PSIM_SWAPPED = -qmath.PSI_MINUS.a[:, None]
_X, _Y, _Z = qmath.SIGMA_X.m, qmath.SIGMA_Y.m, qmath.SIGMA_Z.m
_CERF12_F = np.kron(np.eye(2), _PHIP)
_CERF12_G = np.kron(_Z, _PHIM)
_CERF12_SQRT_FG = np.kron(_X, _PSIP) + 1j * np.kron(_Y, _PSIM_SWAPPED)
_PAIR = np.column_stack([b.a for b in qmath.symmetric_basis(2)])
_X2, _Y2, _Z2 = (np.kron(p, np.eye(2)) + np.kron(np.eye(2), p) for p in (_X, _Y, _Z))
_CERF23_V = np.kron(_PAIR, _PHIP)
_CERF23_X = (np.kron(_Z2 @ _PAIR, _PHIM) + np.kron(_X2 @ _PAIR, _PSIP)
             + 1j * np.kron(_Y2 @ _PAIR, _PSIM_SWAPPED))


def make_ng12(gamma):
    """Two-qubit asymmetric cloner: |00> -> |00>,
    |10> -> cos(gamma) |10> + sin(gamma) |01>.

    Equatorial fidelities (1 + cos gamma)/2 and (1 + sin gamma)/2; the
    symmetric point gamma = pi/4 gives both clones (1 + 1/sqrt 2)/2.
    """
    if not 0 <= gamma <= math.pi / 2:
        raise ValueError("gamma must be in [0, pi/2]")
    v = _NG12_FIXED + math.cos(gamma) * _NG12_COS + math.sin(gamma) * _NG12_SIN
    return CloningMachine("ng12", v, (0, 1), {"gamma": gamma})


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
    F = fidelity
    if not 0.5 <= F <= 1.0:
        raise ValueError("fidelity must be in [1/2, 1]")
    G = 1.0 - F
    v = F * _CERF12_F + G * _CERF12_G + math.sqrt(F * G) * _CERF12_SQRT_FG
    return CloningMachine("cerf12", v, (0, 1), {"fidelity": F})


def _ng23_isometry(gamma):
    c, s = math.cos(gamma), math.sin(gamma)
    norms = np.array([1.0, math.sqrt(1 + c * c), math.sqrt(1 + s * s)])
    return _NG23_FIXED + (c * _NG23_COS + s * _NG23_SIN) / norms


def make_ng23(gamma):
    """Two-copy input, three-qubit output generalization of the two-qubit cloner.

    Input is the symmetric subspace of two qubits in Dicke coordinates;
    qubits 0, 1 are the symmetric clone pair and qubit 2 the third clone.
    """
    if not 0 <= gamma <= math.pi / 2:
        raise ValueError("gamma must be in [0, pi/2]")
    return CloningMachine("ng23", _ng23_isometry(gamma), (0, 1, 2), {"gamma": gamma})


def make_ngs23(gamma):
    """Symmetrized variant: a fourth qubit entangles the machine with its
    bit-flipped mirror, (U|s,0>)|0> + (U~|s,0>)|1>, normalized by 1/sqrt 2.

    The two branch images are orthogonal (checked by the isometry test) and
    the clone fidelities coincide with the unsymmetrized machine.
    """
    if not 0 <= gamma <= math.pi / 2:
        raise ValueError("gamma must be in [0, pi/2]")
    u = _ng23_isometry(gamma)
    # the mirror U~: X on all three qubits reverses the output index, and
    # swapping the roles of |00> and |11> reverses the columns
    v = np.stack([u, u[::-1, ::-1]], axis=1).reshape(16, 3) / math.sqrt(2)
    return CloningMachine("ngs23", v, (0, 1, 2), {"gamma": gamma})


def make_cerf23(x):
    """Bell-ancilla 2 -> 3 cloner, v^2 + 8 x^2 = 1 with v = +sqrt(1 - 8 x^2).

    Universal (not phase covariant): the clone pair has fidelity 1 - 2 x^2
    for every Bloch-sphere input and the third clone 1 - (v - 2x)^2 / 2.
    All three coincide at v = 4x, where the common value is 11/12, and the
    third-clone fidelity reaches one at v = 2x.  The third clone sits on
    qubit 2.
    """
    if not 0 <= x <= 1 / math.sqrt(8):
        raise ValueError("x must be in [0, 1/sqrt 8]")
    v = math.sqrt(max(0.0, 1.0 - 8.0 * x * x))
    return CloningMachine("cerf23", v * _CERF23_V + x * _CERF23_X, (0, 1, 2),
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


def _project_receiver(machine, out, outcome):
    """Project the receiver's clone in a pure output onto <outcome|."""
    t = out.a.reshape((2,) * machine.n_qubits)
    t = np.moveaxis(t, machine.clone_positions[0], 0).reshape(2, -1)
    return outcome.a.conj() @ t


def bob_disturbance(machine):
    """Disturbance of the receiver's clone on equatorial input,
    ||<-x|_B V|+x>||^2 = 1 - F without the cancellation of 1 - F."""
    wrong = _project_receiver(machine, machine.apply_to_qubit(qmath.PLUS_X), qmath.MINUS_X)
    return float(np.vdot(wrong, wrong).real)


# ---------------------------------------------------------------------------
# sifted-attack machinery

_DEFAULT_ANNOUNCED = ("+x", "+y")
_STATE_BY_NAME = {
    "+x": qmath.PLUS_X, "-x": qmath.MINUS_X,
    "+y": qmath.PLUS_Y, "-y": qmath.MINUS_Y,
}
ANNOUNCED_SETS = (("+x", "+y"), ("+y", "-x"), ("-x", "-y"), ("-y", "+x"))


def sifted_point(machine, announced=_DEFAULT_ANNOUNCED):
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
    s0, s1 = (_STATE_BY_NAME[a] for a in announced)
    perp0 = qmath.orthogonal_qubit(s0)
    perp1 = qmath.orthogonal_qubit(s1)
    rhos = []
    qbers = []
    for sent, perp_sent, perp_other in ((s0, perp0, perp1), (s1, perp1, perp0)):
        out = machine.apply_to_qubit(sent)
        # outcome orthogonal to the *sent* state leads to the wrong inference
        e_err = _project_receiver(machine, out, perp_sent)
        e_ok = _project_receiver(machine, out, perp_other)
        w_err = float(np.vdot(e_err, e_err).real)
        w_ok = float(np.vdot(e_ok, e_ok).real)
        qbers.append(w_err / (w_err + w_ok))
        rho = 0.5 * (np.outer(e_err, e_err.conj()) + np.outer(e_ok, e_ok.conj()))
        rhos.append(Operator(rho / (0.5 * (w_err + w_ok))))
    p_e = qmath.helstrom_error(rhos[0], rhos[1], 0.5)
    qber = 0.5 * (qbers[0] + qbers[1])
    return {
        "disturbance": bob_disturbance(machine),
        "qber_sifted": qber,
        "i_ab": qmath.binary_information(qber),
        "i_eve": qmath.binary_information(p_e),
        "p_e": p_e,
    }


def sifted_cloning_attack(machine_factory, param_grid):
    """Sifted-attack series over a machine parameter grid.

    ``machine_factory`` maps a parameter to a CloningMachine (for example
    ``make_ng12`` over gamma, or ``make_cerf12`` over the fidelity).
    Returns a list of row dicts sorted as given.
    """
    rows = []
    for p in param_grid:
        machine = machine_factory(p)
        row = sifted_point(machine)
        row["parameter"] = p
        rows.append(row)
    return rows


def pns_cloning_attack(machine_factory, mu, delta_db, param_grid):
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
    return sifted_cloning_attack(machine_factory, param_grid)


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


def ngs23_gamma_for_disturbance(d, tol=1e-12):
    """Parameter of the symmetrized 2 -> 3 cloner giving disturbance d on
    the clone pair (bisection on the monotone fidelity)."""
    lo, hi = 0.0, math.pi / 2
    target = 1.0 - d
    if not ng23_fidelities(hi)[0] - 1e-12 <= target <= ng23_fidelities(lo)[0] + 1e-12:
        raise ValueError("disturbance out of range for this machine")
    return solvers.bisect_decreasing(lambda g: ng23_fidelities(g)[0] - target, lo, hi, tol)
