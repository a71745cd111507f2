"""Security analysis of weak- and strong-pulse QKD implementations against
photon-number-splitting and cloning attacks.

Submodules.  The first six import no NumPy, so the commands that read
only them start without it:

information     binary mutual information, also from its gap to 1/2; the
                pure-state error and the strong-pulse two-mode overlap
photonics       Poisson source, click sums and attack moments, channel
                attenuation, QBER model (channel and detector; mu is the
                protocol's own)
attacks         photon-number-splitting attack evaluations per protocol
cloners         closed forms of the cloners: 2 -> 3 fidelities, sifted
                1 -> 2 attack
keyrate         security criterion, key rate, optimal mu, n_b summary
solvers         the one root finder and the golden-section search of optimal mu
qmath           few-qubit linear algebra and quantum-information primitives;
                states are 1-D and operators 2-D complex128 arrays, built
                with their checks by ``qmath.state`` and ``qmath.measurement``
discrimination  two-state POVM and filter, overlap penalty, multicopy
                unambiguous-discrimination success probability
cloning         asymmetric cloning machines, sifted cloning attacks and the
                67 km case study
validation      the anchor self-check suite behind ``validate``
cli             curve sweeps, reports and self checks
"""
__version__ = "0.1.0"


def __getattr__(name):
    # perfbench/test_perfbench.py::test_tracing_restores_functions_and_keeps_stdout
    # reads pnsqkd.eig_hermitian; resolved on first access, so that
    # ``import pnsqkd`` loads neither qmath nor NumPy
    if name == "eig_hermitian":
        from . import qmath

        return qmath.eig_hermitian
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
