"""Acceptance suite: every headline quantitative result, one test per clause.

Each test prints a single PASS/FAIL line (visible with ``pytest -s`` or on
failure).  Three clauses once pinned values that an independent derivation
contradicts; each now checks the program against that derivation, which
its docstring gives in full:

* 05a - the pinned 0.0716 bits is the information at the overlap rounded
        to 0.95; the test reproduces it from the model's own overlap and
        checks the exact asymptote 0.069778 bits.
* 06d - the third clone of the Bell-ancilla 2 -> 3 machine is perfect at
        v = 2x, as the 11/12 equal point of 06c forces; at v = 3x its
        fidelity is 33/34.
* 07b - the two 1 -> 2 machines give the receiver the same channel up to
        a bit-flip mirror, so their crossings coincide instead of being
        strictly ordered.

One clause still fails honestly, with the measured value in its message:

* 10b - the best storing-attack critical distance over 2..8 bases is
        178 km at the stated detector parameters; 153 km (inside the
        130-170 window) corresponds to restricting to <= 5 bases.  Its
        docstring lists the causes ruled out so far.
"""
import math

import numpy as np
import pytest

from pnsqkd import attacks, cloning, discrimination, keyrate, photonics, qmath

ALPHA = 0.25


def check(criterion, ok, detail):
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


# -- 1: splitting attack on the two-basis reference ---------------------------

def test_criterion_01_bb84_critical_point():
    delta_c = attacks.bb84_critical_attenuation(0.1)
    expected = 10 * math.log10(0.1 / (0.1 - 1 + math.exp(-0.1)))
    ok = abs(delta_c - expected) < 1e-12 and abs(delta_c - 13.15) <= 0.01 \
        and abs(delta_c / ALPHA - 52.6) <= 0.1
    check("01", ok, f"delta_c = {delta_c:.4f} dB, d_c = {delta_c / ALPHA:.2f} km")


# -- 2: four-state blocking attack critical point -----------------------------

def test_criterion_02_fourstate_irud_critical():
    d_km = attacks.fourstate_irud_critical(0.2) / ALPHA
    p_ok = discrimination.usd_optimal_pok(2)
    ok = abs(d_km - 100.0) <= 1.0 and abs(p_ok - 0.5) <= 1e-9
    check("02", ok, f"d_c = {d_km:.3f} km, p_ok = {p_ok:.12f}")


# -- 3: unambiguous-discrimination success closed form -------------------------

def test_criterion_03_usd_success_conjecture():
    errs = [abs(discrimination.usd_optimal_pok(nb) - nb / 4 ** (nb - 1))
            for nb in range(2, 9)]
    check("03", max(errs) <= 1e-9, f"max deviation {max(errs):.2e} over 2..8 bases")


# -- 4: storing attack ---------------------------------------------------------

def test_criterion_04_storing_attack():
    p_e, info = attacks.storing_attack_info((qmath.PLUS_X, qmath.PLUS_Y))
    # the one-photon rung of the two-bases storing ladder is the same attack
    _, rung_info = attacks.nb_storing_critical(2, 1)
    ok = (abs(p_e - 0.14645) <= 1e-4 and abs(info - 0.399) <= 1e-3
          and abs(rung_info - info) <= 1e-12)
    check("04", ok, f"p_e = {p_e:.5f}, I = {info:.4f} bits")


# -- 5: strong-pulse two-state scheme ------------------------------------------

def test_criterion_05a_strongpulse_asymptote_low_mu():
    """Strong-pulse information at mu = 0.025: the pinned figure and the limit.

    The pinned 0.0716 +- 0.001 is I(p_e(0.95)) = 0.07152, the information at
    the distance-limit overlap e^(-2 mu) = 0.95123 rounded to two decimals
    (05b's 0.518 has the same origin: I(0.61) = 0.5191 against the exact
    0.5232).  The model's own limit, which ``strongpulse_asymptotic_info``
    promises and 05c confirms, is
    I(p_e(e^(-2 mu))) = 1 - h((1 - sqrt(1 - e^(-0.1)))/2) = 0.069778 bits.
    The test checks both: the overlap the model returns at 60 dB, rounded
    to two decimals, reproduces the pin; the asymptote matches its closed
    form; and the finite-distance curve rises towards it from below.
    """
    mu = 0.025
    overlap = attacks.strongpulse_b92(60.0, mu)[0]
    rounded = round(overlap, 2)
    info_rounded = qmath.binary_information(0.5 * (1 - math.sqrt(1 - rounded**2)))

    p = 0.5 * (1 - math.sqrt(1 - math.exp(-4 * mu)))
    closed = 1 + p * math.log2(p) + (1 - p) * math.log2(1 - p)
    asymptote = attacks.strongpulse_asymptotic_info(mu)

    curve = [attacks.strongpulse_b92(d, mu)[2] for d in (10.0, 20.0, 30.0, 40.0, 60.0)]
    from_below = (all(a < b for a, b in zip(curve, curve[1:]))
                  and 0.0 < asymptote - curve[-1] < 1e-6)

    ok = (abs(info_rounded - 0.0716) <= 1e-3 and abs(asymptote - closed) <= 1e-12
          and abs(asymptote - 0.069778) <= 1e-5 and from_below)
    check("05a", ok,
          f"overlap {overlap:.7f} -> {rounded:.2f} gives I = {info_rounded:.5f} "
          f"(target 0.0716 +- 0.001); asymptote {asymptote:.6f} "
          f"(closed form {closed:.6f}); curve 10..60 dB "
          f"{[round(i, 6) for i in curve]} rises from below: {from_below}")


def test_criterion_05a_rounded_overlap_reproduces_target():
    # diagnostic companion: the 0.0716 figure is recovered once the overlap
    # is truncated to two decimals
    p_e = 0.5 * (1 - math.sqrt(1 - 0.95**2))
    info = qmath.binary_information(p_e)
    check("05a-diag", abs(info - 0.0716) <= 1e-3,
          f"I(overlap 0.95) = {info:.4f} bits")


def test_criterion_05b_strongpulse_asymptote_quarter_mu():
    info = attacks.strongpulse_asymptotic_info(0.25)
    check("05b", abs(info - 0.518) <= 0.01, f"I = {info:.4f} bits")


def test_criterion_05c_overlap_limit():
    mu, mu_prime = 0.025, 1e4
    t = mu / mu_prime
    got = ((1 - t) / (1 + t)) ** mu_prime
    rel = abs(got - math.exp(-2 * mu)) / math.exp(-2 * mu)
    check("05c", rel < 1e-3, f"relative error {rel:.2e} at mu' = 1e4")


# -- 6: cloning fidelity anchors ------------------------------------------------

def test_criterion_06a_ng12_symmetric_point():
    got = cloning.clone_reduced_states(cloning.make_ng12(math.pi / 4), qmath.PLUS_X)[0][2]
    expected = (1 + 1 / math.sqrt(2)) / 2
    check("06a", abs(got - expected) <= 1e-12, f"F = {got:.15f}")


def test_criterion_06b_ng23_symmetric_point():
    got = cloning.clone_reduced_states(cloning.make_ng23(math.pi / 4), qmath.PLUS_X)[0][2]
    expected = (6 + 2 * math.sqrt(2) + math.sqrt(6)) / 12
    check("06b", abs(got - expected) <= 1e-10, f"F = {got:.12f}")


def test_criterion_06c_cerf23_equal_point():
    fids = [f for _, _, f in
            cloning.clone_reduced_states(cloning.make_cerf23(1 / math.sqrt(24)), qmath.PLUS_X)]
    ok = all(abs(f - 11 / 12) <= 1e-10 for f in fids)
    check("06c", ok, f"fidelities {[f'{f:.12f}' for f in fids]}")


def test_criterion_06d_third_clone_perfect_at_v_3x():
    """Third-clone fidelity of the Bell-ancilla 2 -> 3 machine at v = 2x and v = 3x.

    On the ``make_cerf23`` family v^2 + 8x^2 = 1 the clone pair has fidelity
    1 - 2x^2 and the third clone 1 - (v - kx)^2/2, where the pinned clause
    took k = 3.  06c puts the equal point at the optimal 2 -> 3 cloning
    fidelity 11/12 (Gisin & Massar, PRL 79, 2153 (1997)): 1 - 2x^2 = 11/12
    forces x^2 = 1/24 and v = 4x, and then 1 - (4 - k)^2 x^2/2 = 11/12
    needs |4 - k| = 2.  So k = 2, not 3 (k = 3 would give 1 - 1/48 = 0.979
    at the equal point).  The third clone is therefore perfect at v = 2x
    (x = 1/sqrt 12), and at the pinned v = 3x (x = 1/sqrt 17) its fidelity
    is 1 - x^2/2 = 33/34.  Both values are read off the machine by partial
    trace.
    """
    points = ((1 / math.sqrt(12), 2.0, 1.0), (1 / math.sqrt(17), 3.0, 33 / 34))
    ok = True
    parts = []
    for x, k, expected in points:
        machine = cloning.make_cerf23(x)
        f3 = cloning.clone_reduced_states(machine, qmath.PLUS_X)[2][2]
        ok = ok and abs(machine.parameter["v"] - k * x) <= 1e-12 \
            and abs(f3 - expected) <= 1e-10
        parts.append(f"F3(v={k:g}x) = {f3:.12f} (expected {expected:.12f})")
    check("06d", ok, ", ".join(parts))


# -- 7: sifted 1 -> 2 cloning attack ---------------------------------------------

def _cerf12_points():
    return cloning.sifted_points(cloning.make_cerf12(1 - np.linspace(1e-6, 0.5, 400)))


def _ng12_points():
    return cloning.sifted_points(cloning.make_ng12(np.linspace(1e-4, math.pi / 2, 400)))


def test_criterion_07a_cerf_crossing_15pct():
    # the 15% anchor selects the sifted-error-rate reading of the abscissa
    crossing = cloning.information_crossing(_cerf12_points())
    check("07a", abs(crossing - 0.15) <= 0.01, f"crossing at {crossing:.4f}")


def _bob_choi(machine):
    """Choi matrix of the channel from the input qubit to the receiver's clone."""
    v = machine.isometry
    bob = machine.clone_positions[0]
    choi = np.zeros((4, 4), dtype=complex)
    for i in range(2):
        for j in range(2):
            e_ij = np.zeros((2, 2))
            e_ij[i, j] = 1.0
            out = v @ e_ij @ v.conj().T
            choi += np.kron(e_ij, qmath.partial_trace(out, [bob]))
    return choi


def test_criterion_07b_cerf_strictly_above_ng():
    """The two 1 -> 2 machines cross at the same sifted error rate.

    The pinned clause asked for the two-qubit machine's crossing to lie
    strictly above the Bell-ancilla machine's.  Under the model used
    throughout (the eavesdropper holds every qubit but the receiver's, the
    acceptance-weighted mixture, a minimum-error measurement) no strict
    separation is possible.  With F = (1 + cos gamma)/2 the receiver's
    channel under ``make_cerf12(F)`` is the equal mixture of the channel N
    of ``make_ng12(gamma)`` and its bit-flip mirror X N(X . X) X.  Two
    dilations of one channel differ only by an isometry on the
    environment, so the eavesdropper does exactly as well as with the
    flagged mixture.  In each branch she gets the two-qubit machine's
    information, since X maps the announced pair {+x, +y} to {+x, -y},
    which has the same overlap.

    The test asserts the Choi identity at several gamma (the channels
    themselves differ, so it is not a tautology) and that the crossings
    from the 400-point grids agree within 1e-6.  A separation at the
    clause's own 1e-4 resolution fails the second check.
    """
    flip = np.kron(qmath.SIGMA_X, qmath.SIGMA_X)
    choi_err = 0.0
    distinct = True
    for gamma in (0.3, 0.9, 1.3):
        choi_cerf = _bob_choi(cloning.make_cerf12((1 + math.cos(gamma)) / 2))
        choi_ng = _bob_choi(cloning.make_ng12(gamma))
        mixture = 0.5 * (choi_ng + flip @ choi_ng @ flip)
        choi_err = max(choi_err, float(np.max(np.abs(choi_cerf - mixture))))
        distinct = distinct and float(np.max(np.abs(choi_cerf - choi_ng))) > 1e-2
    cross_cerf = cloning.information_crossing(_cerf12_points())
    cross_ng = cloning.information_crossing(_ng12_points())
    ok = choi_err <= 1e-12 and distinct and abs(cross_ng - cross_cerf) <= 1e-6
    check("07b", ok,
          f"Choi mismatch {choi_err:.1e}, channels distinct: {distinct}; "
          f"crossings cerf {cross_cerf:.7f} vs ng {cross_ng:.7f}")


def test_criterion_07c_interior_maximum():
    points = _ng12_points()
    infos = points["i_eve"].tolist()
    k = int(np.argmax(infos))
    ok = 0 < k < len(infos) - 1 and infos[k] > infos[-1]
    check("07c", ok, f"max {infos[k]:.4f} at D = {points['disturbance'][k]:.3f}, "
                     f"endpoint {infos[-1]:.4f}")


def test_criterion_07d_endpoint_value():
    expected = qmath.binary_information(0.5 * (1 - math.sqrt(0.5)))
    got_ng = cloning.sifted_point(cloning.make_ng12(math.pi / 2))["i_eve"]
    got_cf = cloning.sifted_point(cloning.make_cerf12(0.5))["i_eve"]
    ok = abs(got_ng - expected) <= 1e-6 and abs(got_cf - expected) <= 1e-6
    check("07d", ok, f"endpoint I = {got_ng:.9f} (target {expected:.9f})")


# -- 8: splitting + 2 -> 3 cloning attack ----------------------------------------

def test_criterion_08_crossing_and_dominance():
    points = cloning.pns_cloning_attack(cloning.make_ngs23, 0.2, 12.0,
                                        np.linspace(1e-4, math.pi / 2, 400))
    crossing = cloning.information_crossing(points)
    ok_cross = abs(crossing - 0.085) <= 0.007
    dominance = True
    for d in (0.005, 0.01, 0.02):
        g = cloning.ngs23_gamma_for_disturbance(d)
        ngs = cloning.sifted_point(cloning.make_ngs23(g))
        cf = cloning.sifted_point(cloning.make_cerf23(math.sqrt(d / 2)))
        dominance = dominance and ngs["i_eve"] > cf["i_eve"]
    check("08", ok_cross and dominance,
          f"crossing at {crossing:.4f}, symmetrized machine dominates: {dominance}")


# -- 9: field-experiment case study ----------------------------------------------

def test_criterion_09_geneva_lausanne():
    gl = keyrate.geneva_lausanne_report()
    ok = (abs(gl.i_ab - 0.7136) <= 1e-3 and gl.i_eve_pns < 0.5
          and gl.secure_optical_attribution and gl.secure_full_error)
    check("09", ok, f"I_AB = {gl.i_ab:.4f}, I_Eve = {gl.i_eve_pns:.4f}, "
                    f"secure under both error attributions")


# -- 10: many-bases generalization ------------------------------------------------

@pytest.fixture(scope="module")
def nb_summaries():
    return {nb: keyrate.nb_security_summary(nb) for nb in range(2, 9)}


def test_criterion_10a_storing_dominates(nb_summaries):
    ok = all(nb_summaries[nb].delta2_db < nb_summaries[nb].delta1_db
             for nb in range(2, 6))
    check("10a", ok, "delta2 < delta1 for 2..5 bases: " +
          ", ".join(f"{nb}: {nb_summaries[nb].delta2_db:.2f} < "
                    f"{nb_summaries[nb].delta1_db:.2f}" for nb in range(2, 6)))


def test_criterion_10b_best_distance_window(nb_summaries):
    """Pinned window 130-170 km over 2..8 bases.  The faithfully computed
    storing-attack crossings keep growing with the number of bases and give
    178 km at 8 bases (mu = 10.51); the window matches the <= 5 bases
    restriction (153 km, close to the abstract's ~150 km), so the clause
    fails as stated.

    The cause is not settled.  Three suspected causes were ruled out, each
    by changing the model in a copy and recomputing the best distance:

    * linear-in-dB mixing between ladder rungs: mixing linearly in
      transmission instead gives 177.97 km;
    * the click form of the rungs: the photon form gives 177.92 km;
    * a fixed number of stored photons per rung: a linear program over
      storing allocations that depend on the photon number gives 177.8 km.

    Neither the README nor the docstrings say whether the window covers
    2..8 bases; only the paper's n_b-bases table, which the repository does
    not hold, can settle it.  Until then the assertion stays as pinned.
    """
    best = max(nb_summaries[nb].critical_distance_km for nb in range(2, 9))
    check("10b", 130.0 <= best <= 170.0,
          f"best critical distance {best:.1f} km over 2..8 bases "
          f"(<= 5 bases gives {max(nb_summaries[nb].critical_distance_km for nb in range(2, 6)):.1f} km)")


# -- 11: optimal mean photon number ------------------------------------------------

def test_criterion_11_optimal_mu_at_20db():
    mu, _ = keyrate.optimal_mu(20.0)
    check("11", 0.1 <= mu <= 0.35, f"mu* = {mu:.4f}")


# -- 12: property suites -------------------------------------------------------------

def test_criterion_12_property_suites(rng):
    from conftest import random_density, random_qubit
    from pnsqkd.qmath import apply_measurement, state

    # measurement completeness / probability normalization
    meas = discrimination.b92_povm(0.8)
    probs_ok = all(
        abs(sum(p for _, p, _ in apply_measurement(meas, random_density(rng, 2))) - 1) < 1e-10
        for _ in range(200))

    # isometry and phase covariance already covered per machine; spot check
    iso_ok = True
    for factory, grid in ((cloning.make_ng12, (0.2, 0.9)),
                          (cloning.make_ngs23, (0.4, 1.2)),
                          (cloning.make_cerf23, (0.1, 0.3))):
        for p in grid:
            v = factory(p).isometry
            iso_ok &= np.max(np.abs(v.conj().T @ v - np.eye(v.shape[1]))) < 1e-12

    # overlap penalty inequality on a 1000-point grid
    bound_ok = all(discrimination.filtered_overlap_bound(eta)[0] >= math.cos(eta) - 1e-14
                   for eta in np.linspace(1e-3, math.pi / 2 - 1e-3, 1000))

    # linear independence over random draws
    indep_ok = all(discrimination.linear_independence_check(
        [state(random_qubit(rng)) for _ in range(4)])[0] for _ in range(200))

    # Poisson normalization
    poisson_ok = all(abs(sum(photonics.poisson_distribution(mu)) - 1) < 1e-12
                     for mu in (0.1, 0.2, 1.4, 10.5))

    ok = probs_ok and iso_ok and bound_ok and indep_ok and poisson_ok
    check("12", ok, f"probabilities {probs_ok}, isometries {iso_ok}, "
                    f"overlap bound {bound_ok}, independence {indep_ok}, "
                    f"poisson {poisson_ok}")
