"""Security analysis of weak- and strong-pulse QKD implementations against
photon-number-splitting and cloning attacks.

Submodules:

qmath           few-qubit linear algebra and quantum-information primitives
photonics       Poisson source, channel attenuation, detection and QBER model
discrimination  state-set geometry, filters, unambiguous discrimination
attacks         photon-number-splitting attack evaluations per protocol
cloning         asymmetric cloning machines and sifted cloning attacks
keyrate         security criterion, key rate, optimal mu, protocol comparison
solvers         the shared bisection and golden-section searches
cli             curve sweeps, reports and the self-check suite
"""
from .qmath import (
    GeneralizedMeasurement,
    Operator,
    StateVector,
    apply_measurement,
    binary_information,
    eig_hermitian,
    helstrom_error,
    partial_trace,
    symmetric_basis,
    tensor,
    two_mode_number_state,
)
from .photonics import SourceChannelModel, poisson_pmf, bob_raw_rate, qber_total
from .discrimination import (
    b92_filter,
    b92_povm,
    filtered_overlap_bound,
    linear_independence_check,
    usd_multicopy_povm,
    usd_optimal_pok,
)
from .attacks import (
    AttackReport,
    StrongPulseModel,
    bb84_pns,
    fourstate_combined_curve,
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
    sifted_cloning_attack,
)
from .keyrate import (
    ProtocolConfig,
    geneva_lausanne_report,
    key_rate,
    nb_security_summary,
    optimal_mu,
    secure,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
