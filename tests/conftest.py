import math
import sys
from pathlib import Path

import numpy as np
import pytest

from pnsqkd import attacks

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:  # the tests read the benchmark's workloads and tracer
    sys.path.insert(0, str(ROOT))


@pytest.fixture
def rng():
    return np.random.default_rng(20260808)


def random_qubit(rng):
    z = rng.normal(size=4)
    v = np.array([z[0] + 1j * z[1], z[2] + 1j * z[3]])
    return v / np.linalg.norm(v)


def random_state(rng, dim):
    z = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return z / np.linalg.norm(z)


def random_density(rng, dim, rank=None):
    rank = rank or dim
    a = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def is_last_bit_crossing(n_bases, model, delta):
    """True when the storing margin I_AB - I_Eve of the n_b-bases ladder
    lies on opposite sides of zero (> 0 against <= 0) at ``delta`` and at
    one of its float neighbours.

    A margin that is not positive at 0 dB (I_AB = 0 there: a QBER of 1/2,
    as p_d = 0.5 gives at every loss) belongs to a link that is never
    secure, and the crossing is 0 dB.
    """
    mu = attacks.nb_mu(n_bases)
    ladder = attacks.nb_storing_ladder(n_bases, model)

    def margin(d):
        return attacks.honest_information(model, mu, d) - attacks.nb_storing_info_at(ladder, d)

    if margin(0.0) <= 0.0:
        return delta == 0.0
    if margin(delta) > 0.0:
        return margin(math.nextafter(delta, math.inf)) <= 0.0
    return margin(math.nextafter(delta, -math.inf)) > 0.0
