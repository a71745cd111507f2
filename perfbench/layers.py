"""Traced functions and the per-layer metrics computed from a traced run.

Layers are the package modules.  The private kernels are measured only
through their callers (``qmath.eig_hermitian`` for the eigensolver, the
``attacks`` n_b functions for the Poisson sums), so these names survive the
kernels' removal.
"""
from __future__ import annotations

LAYERS = ("cli", "keyrate", "attacks", "cloning", "discrimination", "photonics", "qmath")
EIG_BUCKETS = ("dim2", "dim4", "dim8", "dim_ge10", "dim_other")
MAKERS = tuple(f"cloning.make_{m}" for m in ("ng12", "cerf12", "ng23", "ngs23", "cerf23"))
FUNCTIONS = (
    "cli.main",
    "keyrate.optimal_mu",
    "keyrate.nb_security_summary",
    "attacks.fourstate_combined_info",
    "attacks.nb_storing_ladder",
    "attacks.nb_storing_critical",
    "attacks.nb_critical_usd",
    "cloning.sifted_point",
    "discrimination.usd_optimal_pok",
    "photonics.qber_total",
    "qmath.eig_hermitian",
    "qmath.helstrom_error",
    "qmath.partial_trace",
)


def _eig_bucket(dim):
    if dim in (2, 4, 8):
        return f"dim{dim}"
    return "dim_ge10" if dim >= 10 else "dim_other"


def _count_eig_dim(tracer, args, result):
    matrix = getattr(args[0], "m", args[0])  # Operator or array
    tracer.counters[f"qmath.eig_hermitian.calls_{_eig_bucket(len(matrix))}"] += 1


def _count_rungs(tracer, args, result):
    tracer.counters["attacks.nb_storing_ladder.rungs"] += len(result)


TARGETS = {name: None for name in FUNCTIONS + MAKERS}
TARGETS["qmath.eig_hermitian"] = _count_eig_dim
TARGETS["attacks.nb_storing_ladder"] = _count_rungs


def metric_specs():
    """(name, unit, better) of every per-layer metric, in report order."""
    specs = []
    for f in FUNCTIONS:
        specs += [(f"{f}.calls", "count", "lower"), (f"{f}.self_s", "s", "lower"),
                  (f"{f}.errors", "count", "lower")]
    specs += [(f"qmath.eig_hermitian.calls_{b}", "count", "lower") for b in EIG_BUCKETS]
    specs += [
        ("qmath.eig_hermitian.self_share", "ratio", "lower"),
        ("cloning.machines_built", "count", "lower"),
        ("cloning.make_self_s", "s", "lower"),
        ("cloning.make_errors", "count", "lower"),
        ("keyrate.optimal_mu.evals_per_call", "calls/call", "lower"),
        ("attacks.nb_storing_ladder.rungs", "count", "lower"),
    ]
    specs += [(f"{layer}.self_s", "s", "lower") for layer in LAYERS]
    specs += [
        ("trace.ops", "count", "higher"),
        ("trace.spans", "count", "lower"),
        ("trace.wall_s", "s", "lower"),
        ("trace.self_sum_s", "s", "lower"),
        ("trace.self_coverage", "ratio", "higher"),
        ("trace.layer_coverage", "ratio", "higher"),
        ("trace.rows_per_s_untraced", "rows/s", "higher"),
        ("trace.rows_per_s_traced", "rows/s", "higher"),
        ("trace.overhead_rows_per_s", "rows/s", "lower"),
    ]
    return specs


def per_layer_values(tracer, ops, rows, traced_wall_s, untraced_cpu_s, traced_cpu_s):
    """Per-layer metric values from a tracer that ran ``ops`` invocations.

    The traced invocations emitted ``rows`` and took ``traced_wall_s`` wall
    time (the clock of the spans) and ``traced_cpu_s`` CPU time; the same
    invocations untraced took ``untraced_cpu_s``.  A metric of a function
    that no longer exists is None (absent), not 0.
    """
    absent = set(tracer.absent)
    values = {}
    for f in FUNCTIONS:
        here = f not in absent
        values[f"{f}.calls"] = tracer.calls[f] if here else None
        values[f"{f}.self_s"] = tracer.self_s[f] if here else None
        values[f"{f}.errors"] = tracer.errors[f] if here else None
    eig_here = "qmath.eig_hermitian" not in absent
    for b in EIG_BUCKETS:
        key = f"qmath.eig_hermitian.calls_{b}"
        values[key] = tracer.counters[key] if eig_here else None
    values["qmath.eig_hermitian.self_share"] = (
        tracer.self_s["qmath.eig_hermitian"] / traced_wall_s if eig_here else None)
    makers = [m for m in MAKERS if m not in absent]
    values["cloning.machines_built"] = sum(tracer.calls[m] for m in makers)
    values["cloning.make_self_s"] = sum(tracer.self_s[m] for m in makers)
    values["cloning.make_errors"] = sum(tracer.errors[m] for m in makers)
    if {"keyrate.optimal_mu", "attacks.fourstate_combined_info"} & absent:
        values["keyrate.optimal_mu.evals_per_call"] = None
    else:
        searches = tracer.calls["keyrate.optimal_mu"]
        evals = tracer.pair_calls[("keyrate.optimal_mu", "attacks.fourstate_combined_info")]
        values["keyrate.optimal_mu.evals_per_call"] = evals / searches if searches else 0.0
    values["attacks.nb_storing_ladder.rungs"] = (
        tracer.counters["attacks.nb_storing_ladder.rungs"]
        if "attacks.nb_storing_ladder" not in absent else None)
    for layer in LAYERS:
        values[f"{layer}.self_s"] = sum(s for name, s in tracer.self_s.items()
                                        if name.split(".", 1)[0] == layer)
    self_sum = sum(tracer.self_s.values())
    values.update({
        "trace.ops": ops,
        "trace.spans": sum(tracer.calls.values()),
        "trace.wall_s": traced_wall_s,
        "trace.self_sum_s": self_sum,
        # About 1 by construction: cli.main's self time absorbs all
        # unwrapped work.  It checks the tracer's arithmetic, not coverage.
        "trace.self_coverage": self_sum / traced_wall_s,
        # Share of the traced time spent in the named layer functions.
        "trace.layer_coverage": (self_sum - tracer.self_s["cli.main"]) / traced_wall_s,
        "trace.rows_per_s_untraced": rows / untraced_cpu_s,
        "trace.rows_per_s_traced": rows / traced_cpu_s,
        "trace.overhead_rows_per_s": rows / untraced_cpu_s - rows / traced_cpu_s,
    })
    return values
