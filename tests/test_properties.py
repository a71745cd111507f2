"""Property tests: every attack and key-rate result is finite and physical.

Over the whole input domain, q and I_Eve lie in [0, 1], rates are finite
and non-negative, attenuations are >= 0 or +inf, and the combined attack
never loses information as the loss grows.  Inputs the domain excludes
raise ValueError, and a ladder that runs out of rungs raises
InfeasibleModelError; anything else is a failure.
"""
import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import is_last_bit_crossing
from test_attacks import _combined_info_scan
from pnsqkd import attacks, keyrate
from pnsqkd.attacks import InfeasibleModelError
from pnsqkd.photonics import SourceChannelModel

SETTINGS = settings(max_examples=200, deadline=None, derandomize=True)

# each domain drawn whole and, more densely, over the paper's range
mus = st.floats(min_value=1e-3, max_value=2.0) | st.floats(min_value=5e-324, max_value=1.7e308)
deltas = st.floats(min_value=0.0, max_value=60.0) | st.floats(min_value=0.0, max_value=1.7e308)
etas = st.floats(min_value=5e-324, max_value=math.pi / 2)


def _unit(*values):
    return all(0.0 <= v <= 1.0 for v in values)


def _attenuation(value):
    return 0.0 <= value <= math.inf


@SETTINGS
@given(mus, deltas)
def test_bb84_pns_is_physical(mu, delta):
    pt = attacks.bb84_pns(mu, delta)
    assert _unit(pt.q_passed, pt.i_eve)


@SETTINGS
@given(mus, deltas)
def test_fourstate_irud_pns_is_physical(mu, delta):
    pt = attacks.fourstate_irud_pns(mu, delta)
    assert _unit(pt.q_passed, pt.i_eve)


@SETTINGS
@given(etas, deltas, mus)
def test_fourtwo_pns_is_physical(eta, delta, reference_mu):
    try:
        pt = attacks.fourtwo_pns(eta, delta, reference_mu)
    except ValueError as exc:  # the mean photon number reference/(1 - cos eta) overflows
        s = 2.0 * math.sin(eta / 2.0) ** 2  # 1 - cos eta without cancellation
        if s == 0.0:
            assert "eta too small" in str(exc)
        else:
            assert reference_mu / s == math.inf
            assert "eta too small" not in str(exc)
            assert "reference_mu / (1 - cos eta)" in str(exc) and "overflows" in str(exc)
        return
    assert _unit(pt.q_passed, pt.i_eve)


@SETTINGS
@given(mus, deltas, deltas)
def test_combined_info_is_physical_and_grows_with_loss(mu, d1, d2):
    lo, hi = sorted((d1, d2))
    i_lo, q, f = attacks.fourstate_combined_info(mu, lo)
    i_hi, _, _ = attacks.fourstate_combined_info(mu, hi)
    assert _unit(i_lo, q, f, i_hi)
    assert i_lo <= i_hi


@SETTINGS
@given(mus, deltas)
@example(1e-4, 100.0)  # poisson_tails moments, and q = 0 for every f
@example(5e-324, 0.0)
@example(0.2, 5.0)  # storing alone is best
@example(0.2, 12.0)  # the best f is the kink where q reaches 0
@example(1e300, 1e4)
@example(1e300, 0.0)
def test_combined_info_scan_loop_matches_the_reference(mu, delta):
    # the one-loop f scan and the two-phase golden search give the floats of
    # a scan by map/max and a search that evaluates f at every step
    assert attacks.fourstate_combined_info(mu, delta) == _combined_info_scan(mu, delta)


@SETTINGS
@given(mus, deltas, st.floats(min_value=0.0, max_value=1.0))
def test_key_rate_is_finite_and_nonnegative(mu, delta, i_eve):
    rate = keyrate.key_rate(mu, delta, i_eve)
    assert 0.0 <= rate < math.inf


@settings(max_examples=60, deadline=None, derandomize=True)
@given(deltas)
def test_optimal_mu_is_in_its_search_range(delta):
    mu, rate = keyrate.optimal_mu(delta)
    assert 1e-3 <= mu <= keyrate.MU_SEARCH_MAX
    assert 0.0 <= rate < math.inf


@SETTINGS
@given(mus)
def test_critical_attenuations_are_attenuations(mu):
    assert _attenuation(attacks.bb84_critical_attenuation(mu))
    assert _attenuation(attacks.fourstate_irud_critical(mu))


models = st.builds(
    SourceChannelModel,
    alpha=st.floats(min_value=5e-324, max_value=1.7e308),
    eta_det=st.floats(min_value=5e-324, max_value=1.0),
    p_d=st.floats(min_value=0.0, max_value=0.999),
    qber_opt=st.floats(min_value=0.0, max_value=0.499),
)


@SETTINGS
@given(st.integers(min_value=2, max_value=8), models)
def test_nb_critical_attenuations_are_attenuations(n_bases, model):
    assert _attenuation(attacks.nb_critical_usd(n_bases, model))
    try:
        summary = keyrate.nb_security_summary(n_bases, model)
    except InfeasibleModelError:
        return
    for value in (summary.delta1_db, summary.delta2_db, summary.critical_delta_db,
                  summary.critical_distance_km):
        assert _attenuation(value)
    assert summary.critical_delta_db == min(summary.delta1_db, summary.delta2_db)
    assert is_last_bit_crossing(n_bases, model, summary.delta2_db)

