"""Tests of the benchmark itself: inputs, tracer arithmetic and patching."""
import io
import itertools
import json
import math
from pathlib import Path

import pytest

from perfbench import checks, hostspeed, layers, run, workloads
from perfbench.tracer import Tracer

cli = run.import_cli()


def _first(workload, seed, n_cycles=4):
    return list(itertools.chain.from_iterable(
        itertools.islice(workloads.cycles(workload, seed), n_cycles)))


def _options(argv):
    return dict(zip(argv[2::2], argv[3::2]))


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_generator_is_deterministic_per_seed(workload):
    assert _first(workload, 7) == _first(workload, 7)
    assert _first(workload, 7) != _first(workload, 8)


@pytest.mark.parametrize("seed", range(20))
def test_draws_stay_in_domain(seed):
    for inv in _first("cloning-sweep", seed):
        opts = _options(inv.argv)
        if inv.argv[0] == "report":
            assert 0.15 <= float(opts["--alpha"]) <= 0.35
            continue
        grid = cli._parse_grid(opts["--gamma"], None)
        assert len(grid) == inv.rows
        assert 0.0 < grid[0] and grid[-1] <= math.pi / 2
    for inv in _first("keyrate-scan", seed):
        opts = _options(inv.argv)
        if inv.argv[1] == "clonfid":
            grid = cli._parse_grid(opts["--gamma"], None)
            assert len(grid) + 100 == inv.rows
            assert 0.0 <= grid[0] and grid[-1] <= math.pi / 2
            continue
        grid = cli._parse_grid(opts["--d"], None)
        assert len(grid) == inv.rows
        assert 4.0 <= grid[0] and grid[-1] <= 160.0
        assert 0.18 <= float(opts["--alpha"]) <= 0.3
        assert float(opts.get("--mu", 1.0)) > 0.0
    ladder = _first("nb-ladder", seed)
    for n, inv in enumerate(ladder):
        opts = _options(inv.argv)
        assert opts["--nb"] == "2:8"
        assert 1e-7 <= float(opts["--pd"]) <= 1e-4
        assert 0.05 <= float(opts["--eta-det"]) <= 0.3
        assert 0.0 <= float(opts["--qber-opt"]) <= 0.03
        assert 0.18 <= float(opts["--alpha"]) <= 0.3
        assert opts["--format"] == ("csv", "json")[n % 2]


def test_self_time_of_nested_calls():
    ticks = iter([0.0, 1.0, 3.0, 4.0, 7.0, 10.0])
    tracer = Tracer(clock=lambda: next(ticks))
    inner = tracer.wrap("m.inner", lambda: None)

    def outer_body():
        inner()
        inner()

    tracer.begin_op(0)
    tracer.wrap("m.outer", outer_body)()
    # outer spans 0..10; inner spans 1..3 and 4..7 cover 5 of it.
    assert tracer.self_s["m.outer"] == pytest.approx(5.0)
    assert tracer.self_s["m.inner"] == pytest.approx(5.0)
    assert tracer.calls == {"m.outer": 1, "m.inner": 2}
    assert tracer.pair_calls[("m.outer", "m.inner")] == 2
    outer = [s for s in tracer.spans if s[3] == "m.outer"][0]
    assert [s[1] for s in tracer.spans if s[3] == "m.inner"] == [outer[0], outer[0]]
    assert {s[2] for s in tracer.spans} == {0}


def test_errors_are_counted_and_reraised():
    tracer = Tracer()

    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        tracer.wrap("m.boom", boom)()
    assert tracer.errors["m.boom"] == 1 and tracer.calls["m.boom"] == 1


def test_tracing_restores_functions_and_keeps_stdout():
    import pnsqkd
    from pnsqkd import discrimination, qmath

    originals = (qmath.eig_hermitian, discrimination.eig_hermitian, pnsqkd.eig_hermitian,
                 cli.main)
    tracer = Tracer()
    tracer.prepare(layers.TARGETS)
    argvs = [["curve", "ieclon12", "--gamma", "0.1:0.35:0.1"],
             ["curve", "dcrit", "--nb", "2:4", "--format", "json"]]
    for argv in argvs:
        plain = run.invoke(cli, argv)
        with tracer:
            assert discrimination.eig_hermitian is qmath.eig_hermitian is not originals[0]
            traced = run.invoke(cli, argv)
        assert plain[0] == traced[0] == 0
        assert plain[1] == traced[1]
    assert (qmath.eig_hermitian, discrimination.eig_hermitian, pnsqkd.eig_hermitian,
            cli.main) == originals
    assert tracer.calls["cli.main"] == 2
    assert tracer.calls["discrimination.usd_optimal_pok"] == 3
    assert tracer.counters["qmath.eig_hermitian.calls_dim8"] > 0


def test_missing_function_is_reported_absent(monkeypatch):
    from pnsqkd import keyrate

    monkeypatch.delattr(keyrate, "optimal_mu")
    tracer = Tracer()
    tracer.prepare(layers.TARGETS)
    with tracer:
        code = run.invoke(cli, ["curve", "pns-bb84"])[0]
    assert code == 0
    assert tracer.absent == ["keyrate.optimal_mu"]
    values = layers.per_layer_values(tracer, 1, 121, 1.0, 0.5, 0.9)
    assert values["keyrate.optimal_mu.calls"] is None
    assert values["keyrate.optimal_mu.evals_per_call"] is None
    assert values["attacks.fourstate_combined_info.calls"] == 0
    assert values["trace.layer_coverage"] == pytest.approx(
        values["trace.self_sum_s"] - tracer.self_s["cli.main"])
    assert set(values) == {name for name, _, _ in layers.metric_specs()}


def test_output_checks_catch_bad_values():
    inv = workloads.Invocation("curve pns-bb84", [], 2)
    good = "distance_km,delta_db,q,i_eve\n0,0,0.5,0.25\n1,0.25,0.4,0.3\n"
    assert checks.check(inv, 0, good) == (2, [])
    assert checks.check(inv, 2, good)[1] == ["exit code 2"]
    assert checks.check(inv, 0, good.replace("0.3\n", "1.5\n"))[1]
    assert checks.check(inv, 0, good.replace("0.3\n", "nan\n"))[1]
    assert checks.check(inv, 0, good.replace("1,0.25", "1,-0.25"))[1]
    assert checks.check(inv, 0, good[:-1] + ",9\n")[1]
    ref = checks.reference_entry(inv, good, "")
    near = good.replace("0.3\n", "0.3000000001\n")
    assert checks.check(inv, 0, near, ref)[1] == []
    assert checks.check(inv, 0, good.replace("0.3\n", "0.300001\n"), ref)[1]


def test_reference_check_catches_small_values_and_allows_solver_moves():
    muopt = workloads.Invocation("curve muopt", [], 1)
    good = "distance_km,delta_db,mu_opt,key_rate\n158.8598,30.7075995333,0.05956,5.07598606332e-06\n"
    ref = checks.reference_entry(muopt, good, "")
    assert checks.check(muopt, 0, good, ref)[1] == []
    # A 10% error in a key rate of 5e-6 is far below any absolute tolerance
    # of the dB columns, and must still fail.
    assert checks.check(muopt, 0, good.replace("5.07598606332e-06", "5.58e-06"), ref)[1]
    # The exact click-rate inverse moves attenuations by up to 4e-7 dB.
    moved = good.replace("30.7075995333", "30.7075999333").replace("158.8598", "158.8598021")
    assert checks.check(muopt, 0, moved, ref)[1] == []
    stattnb = workloads.Invocation("curve stattnb", [], 1)
    good = "delta_db,distance_km,i_ab,i_eve,n_b\n67.656,240,0.0002,0.751762731643,8\n"
    ref = checks.reference_entry(stattnb, good, "")
    assert checks.check(stattnb, 0, good.replace("731643", "729420"), ref)[1] == []
    assert checks.check(stattnb, 0, good.replace("0.751762731643", "0.7517637"), ref)[1]
    assert checks.check(stattnb, 0, good.replace("0.0002,", "0.00022,"), ref)[1]


def test_records_stream_to_the_sink():
    sink = io.StringIO()
    runner = run.Runner(cli, "keyrate-scan", 2, sink)
    inv = workloads.Invocation("curve pns-bb84", ["curve", "pns-bb84"], 121)
    runner.run(0, inv, "timed")
    runner.run(1, inv._replace(rows=5), "timed")
    lines = [json.loads(line) for line in sink.getvalue().splitlines()]
    assert [r["index"] for r in lines] == [0, 1]
    assert lines[0]["problems"] == [] and lines[1]["problems"]
    assert (runner.attempted, runner.failed, len(runner.failures)) == (2, 1, 1)


def test_timed_invocations_are_scaled_by_the_host_probe():
    sink = io.StringIO()
    runner = run.Runner(cli, "keyrate-scan", 2, sink)
    inv = workloads.Invocation("curve pns-bb84", ["curve", "pns-bb84"], 121)
    timed, traced = run.measure(runner, itertools.repeat([inv]), 0, 0.05)
    assert timed and traced == []
    records = [json.loads(line) for line in sink.getvalue().splitlines()]
    for sample, record in zip(timed, records):
        assert record["host_probe_ms"] > 0
        assert sample.ref_ms == pytest.approx(
            record["ms"] * hostspeed.REFERENCE_MS / record["host_probe_ms"])


def test_tail_leaves_ten_samples_above():
    value, percentile = run.tail([float(x) for x in range(1, 101)])
    assert value == 90.0
    assert sum(x > value for x in range(1, 101)) == 10
    assert percentile == pytest.approx(100 * 89 / 99)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        layers.metric_specs()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
