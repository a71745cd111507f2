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
# perfbench/test_perfbench.py::test_tracing_restores_functions_and_keeps_stdout reads it
from .qmath import eig_hermitian

__version__ = "0.1.0"
