"""Security analysis of weak- and strong-pulse QKD implementations against
photon-number-splitting and cloning attacks.

Submodules:

qmath           few-qubit linear algebra and quantum-information primitives;
                states are 1-D and operators 2-D complex128 arrays, built
                with their checks by ``qmath.state`` and ``qmath.measurement``
photonics       Poisson source, click sums and attack moments, channel
                attenuation, QBER model (channel and detector; mu is the
                protocol's own)
discrimination  two-state POVM and filter, overlap penalty, multicopy
                unambiguous-discrimination success probability
attacks         photon-number-splitting attack evaluations per protocol
cloning         asymmetric cloning machines and sifted cloning attacks
keyrate         security criterion, key rate, optimal mu, protocol comparison
solvers         the one root finder and the golden-section search of optimal mu
validation      the anchor self-check suite behind ``validate``
cli             curve sweeps, reports and self checks
"""
from .qmath import (
    apply_measurement,
    binary_information,
    eig_hermitian,
    helstrom_error,
    partial_trace,
    symmetric_basis,
    two_mode_number_state,
)
from .photonics import SourceChannelModel, poisson_pmf, qber_total
from .discrimination import (
    b92_filter,
    b92_povm,
    filtered_overlap_bound,
    linear_independence_check,
    usd_optimal_pok,
)
from .attacks import (
    StrongPulseModel,
    bb84_pns,
    fourstate_irud_critical,
    storing_attack_info,
    strongpulse_b92,
)
from .cloning import (
    CloningMachine,
    clone_reduced_states,
    make_cerf12,
    make_cerf23,
    make_ng12,
    make_ng23,
    make_ngs23,
    pns_cloning_attack,
)
from .keyrate import (
    geneva_lausanne_report,
    key_rate,
    nb_security_summary,
    optimal_mu,
    secure,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
