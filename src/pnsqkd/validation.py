"""Self-check suite: every headline number the library must reproduce.

Each check records its name, measured value, expected value and tolerance;
the CLI ``validate`` subcommand renders the list as JSON and fails (exit 1)
if any check misses.
"""
from __future__ import annotations

import math

import numpy as np

from . import attacks, cloning, discrimination, information, photonics, qmath


def _check(name, measured, expected, tolerance):
    measured = float(measured)
    expected = float(expected)
    return {
        "name": name,
        "measured": measured,
        "expected": expected,
        "tolerance": tolerance,
        "pass": bool(abs(measured - expected) <= tolerance),
    }


def run_checks():
    """Run every anchor check; returns a list of result dicts."""
    checks = []

    checks.append(_check("bb84_critical_attenuation_db",
                         attacks.bb84_critical_attenuation(0.1), 13.153864, 1e-4))
    checks.append(_check("bb84_critical_distance_km",
                         attacks.bb84_critical_attenuation(0.1) / 0.25, 52.615455, 1e-3))
    checks.append(_check("fourstate_irud_critical_km",
                         attacks.fourstate_irud_critical(0.2) / 0.25, 100.804659, 1e-2))
    checks.append(_check("usd_pok_2_bases", discrimination.usd_optimal_pok(2), 0.5, 1e-9))
    checks.append(_check("usd_pok_3_bases", discrimination.usd_optimal_pok(3), 3 / 16, 1e-9))
    checks.append(_check("usd_pok_4_bases", discrimination.usd_optimal_pok(4), 4 / 64, 1e-9))

    p_e, i_store = qmath.storing_attack_info((qmath.PLUS_X, qmath.PLUS_Y))
    checks.append(_check("storing_error_probability", p_e, 0.146447, 1e-5))
    checks.append(_check("storing_information_bits", i_store, 0.399124, 1e-5))

    checks.append(_check("binary_information_5pct",
                         information.binary_information(0.05), 0.713603, 1e-5))
    checks.append(_check("strongpulse_asymptote_mu025",
                         attacks.strongpulse_asymptotic_info(0.25), 0.523223, 1e-5))

    checks.append(_check("ng12_symmetric_fidelity",
                         cloning.clone_reduced_states(cloning.make_ng12(math.pi / 4),
                                                      qmath.PLUS_X)[0][2],
                         (1 + 1 / math.sqrt(2)) / 2, 1e-12))
    checks.append(_check("ng23_symmetric_fidelity",
                         cloning.clone_reduced_states(cloning.make_ng23(math.pi / 4),
                                                      qmath.PLUS_X)[0][2],
                         (6 + 2 * math.sqrt(2) + math.sqrt(6)) / 12, 1e-10))
    x_eq = 1 / math.sqrt(24)
    fids = cloning.clone_reduced_states(cloning.make_cerf23(x_eq), qmath.PLUS_X)
    checks.append(_check("cerf23_equal_fidelity_point", fids[0][2], 11 / 12, 1e-10))
    checks.append(_check("cerf23_equal_fidelity_third", fids[2][2], 11 / 12, 1e-10))

    filt = discrimination.b92_filter(math.pi / 3)
    outcomes = qmath.apply_measurement(filt, discrimination.b92_pair(math.pi / 3)[0])
    checks.append(_check("filter_success_probability", outcomes[0][1], 0.5, 1e-12))

    povm = discrimination.b92_povm(math.pi / 3)
    res = qmath.apply_measurement(povm, discrimination.b92_pair(math.pi / 3)[0])
    checks.append(_check("povm_inconclusive_probability", res[2][1], 0.5, 1e-12))

    checks.append(_check("poisson_normalization",
                         sum(photonics.poisson_distribution(0.2)), 1.0, 1e-12))

    ratio = 0.01
    ov = abs(np.vdot(qmath.two_mode_number_state(100, math.pi, ratio),
                     qmath.two_mode_number_state(100, 0.0, ratio)))
    checks.append(_check("two_mode_overlap_closed_form",
                         ov, information.two_mode_overlap(100, ratio), 1e-12))

    new_ov, _ = discrimination.filtered_overlap_bound(math.pi / 3)
    checks.append(_check("filtered_overlap_eta_pi3", new_ov, 0.8, 1e-12))

    w, _ = qmath.eig_hermitian(qmath.SIGMA_Z)
    checks.append(_check("eig_sigma_z_min", w[0], -1.0, 1e-12))

    checks.append(_check("helstrom_x_vs_z",
                         qmath.helstrom_error(qmath.PLUS_X, qmath.KET_0, 0.5),
                         0.5 * (1 - math.sqrt(0.5)), 1e-12))

    gl = cloning.geneva_lausanne_report()
    checks.append(_check("geneva_lausanne_i_ab", gl.i_ab, 0.713603, 1e-5))
    checks.append(_check("geneva_lausanne_i_eve_below_half",
                         1.0 if gl.i_eve_pns < 0.5 else 0.0, 1.0, 0.0))

    return checks


def summary():
    checks = run_checks()
    failed = [c for c in checks if not c["pass"]]
    return {
        "checks": checks,
        "passed": len(checks) - len(failed),
        "failed": len(failed),
        "all_pass": not failed,
    }
