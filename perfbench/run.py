#!/usr/bin/env python3
"""Seeded benchmark of the pnsqkd CLI, one workload per run.

    python3 perfbench/run.py --workload nb-ladder --seed 1 --seconds 30 --trace 0

The run drives ``pnsqkd.cli.main(argv)`` in this process as a closed loop
with one client (the next invocation starts when the previous one returns),
with BLAS/OpenMP threads pinned to 1.  It first runs ``pnsqkd validate`` and
refuses to report numbers if that fails, then measures set-up time in fresh
processes, warms up on one cycle of the workload and times whole cycles for
``--seconds``.  Every invocation's output is checked (see checks.py).

Latencies are the invocation thread's CPU time and set-up is the fresh
process's CPU time: the CLI is single-threaded, CPU-bound and writes to
memory here, so on an idle machine they equal wall time, and they leave out
the time a shared host runs other work.  Each is then scaled to a host of
reference speed with the host-speed probe (see hostspeed.py), which runs
between invocations.  Raw CPU and wall times go to the result file.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs each
invocation untraced and then traced, checks that both print the same bytes,
and reports the per-layer metrics (see layers.py).  The last line of stdout
is the JSON result.  A result file with provenance and the raw times, and a
JSON-lines file with one record per invocation (argv, times, stdout
sha256, problems), go to perfbench/results/.

Exit codes: 0 result printed, 2 bad arguments or no pnsqkd source in this
checkout, 3 ``pnsqkd validate`` failed, 4 a set-up probe failed.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import checks, hostspeed, layers, workloads  # noqa: E402
from perfbench.tracer import Tracer  # noqa: E402

THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_SAMPLES = 5
SETUP_TIMEOUT_S = 120
TAIL_BEYOND = 10  # samples the tail percentile must leave above it
RESULTS = ROOT / "perfbench" / "results"
REFERENCE = ROOT / "perfbench" / "reference.json"
END_TO_END = (("rows_per_s", "rows/s", "higher"), ("op_ms_p50", "ms", "lower"),
              ("op_ms_tail", "ms", "lower"), ("setup_s", "s", "lower"),
              ("peak_rss_mb", "MB", "lower"))


class BenchError(Exception):
    """The benchmark cannot produce trustworthy numbers."""

    def __init__(self, message, exit_code):
        super().__init__(message)
        self.exit_code = exit_code


def pin_threads():
    """Pin BLAS/OpenMP pools to one thread; call before NumPy is imported."""
    for key in THREAD_ENV:
        os.environ[key] = "1"


def import_cli():
    """Import pnsqkd.cli from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "pnsqkd" / "cli.py").is_file():
        raise BenchError(f"no pnsqkd source under {src}", 2)
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import pnsqkd.cli

    if Path(pnsqkd.cli.__file__).resolve().parent.parent != src.resolve():
        raise BenchError(f"pnsqkd imported from {pnsqkd.cli.__file__}, not {src}", 2)
    return pnsqkd.cli


def invoke(cli, argv):
    """Call ``cli.main(argv)`` with stdout and stderr captured.

    Returns (exit code, stdout, stderr, cpu seconds, wall seconds).  An
    exception escaping the CLI becomes a non-zero exit code naming it, with
    the traceback as stderr.
    """
    out, err = io.StringIO(), io.StringIO()
    cpu_start, wall_start = time.thread_time(), time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # a traceback is a failed invocation, not a crash
        code = f"uncaught {type(exc).__name__}"
        err.write(traceback.format_exc())
    cpu, wall = time.thread_time() - cpu_start, time.perf_counter() - wall_start
    return code, out.getvalue(), err.getvalue(), cpu, wall


def load_reference(workload, seed):
    if seed != workloads.DEFAULT_SEED or not REFERENCE.is_file():
        return []
    return json.loads(REFERENCE.read_text())["workloads"].get(workload, [])


class Runner:
    """Runs and checks invocations.

    Each invocation's record goes to ``sink`` (a text file, as one JSON
    line) as soon as it is made, so the process's memory does not grow with
    the number of invocations.  Only the first MAX_REPORTED failures are
    kept, for stderr.
    """

    MAX_REPORTED = 20

    def __init__(self, cli, workload, seed, sink=None):
        self.cli = cli
        self.reference = load_reference(workload, seed)
        self.sink = sink
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def run(self, index, invocation, phase, expect_sha256=None):
        """Run and check one invocation; return its record."""
        return self.record(index, invocation, phase, invoke(self.cli, invocation.argv),
                           expect_sha256)

    def record(self, index, invocation, phase, outcome, expect_sha256=None,
               host_probe_ms=None):
        """Check the ``invoke`` outcome of one invocation, count it and
        return its record."""
        code, stdout, stderr, cpu, wall = outcome
        reference = self.reference[index] if index < len(self.reference) else None
        rows, problems = checks.check(invocation, code, stdout, reference)
        if code != 0 and stderr.strip():
            problems.append(stderr.strip().splitlines()[-1])
        sha256 = hashlib.sha256(stdout.encode()).hexdigest()
        if expect_sha256 is not None and sha256 != expect_sha256:
            problems.append("stdout differs between traced and untraced runs")
        record = {"index": index, "phase": phase, "kind": invocation.kind,
                  "argv": invocation.argv, "exit": code, "ms": cpu * 1e3,
                  "wall_ms": wall * 1e3, "host_probe_ms": host_probe_ms, "rows": rows,
                  "sha256": sha256, "problems": problems}
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.failures) < self.MAX_REPORTED:
                self.failures.append(record)
        if self.sink is not None:
            self.sink.write(json.dumps(record) + "\n")
        return record


def validate_gate(cli):
    """Run ``pnsqkd validate``; raise unless it exits 0."""
    code, stdout, _, _, wall = invoke(cli, ["validate"])
    try:
        result = json.loads(stdout) if code == 0 else None
    except ValueError:
        result = None
    if not isinstance(result, dict):
        raise BenchError(f"pnsqkd validate failed (exit {code}); refusing to report numbers", 3)
    return {"exit": code, "wall_s": wall, "passed": result.get("passed"),
            "failed": result.get("failed")}


def setup_probe(workload, seed):
    """Fresh-process set-up: import pnsqkd.cli and warm up on the first cycle.

    Prints the process CPU time and wall time that took, that CPU time
    scaled to the reference host speed, and the warm-up's check counts.
    Only the import and the invocations are timed: the host-speed probe
    runs after each invocation and its time is taken out, and the outputs
    are checked after the clock is read.
    """
    invocations = next(workloads.cycles(workload, seed))
    cpu_start, wall_start = time.process_time(), time.perf_counter()
    cli = import_cli()
    outcomes, probes_ms = [], []
    for invocation in invocations:
        outcomes.append(invoke(cli, invocation.argv))
        probes_ms.append(hostspeed.probe() * 1e3)
    probes_s = sum(probes_ms) / 1e3
    cpu = time.process_time() - cpu_start - probes_s
    wall = time.perf_counter() - wall_start - probes_s
    runner = Runner(cli, workload, seed)
    for index, (invocation, outcome) in enumerate(zip(invocations, outcomes)):
        runner.record(index, invocation, "warmup", outcome)
    host_ms = statistics.mean(probes_ms)
    print(json.dumps({"setup_s": cpu * hostspeed.REFERENCE_MS / host_ms, "cpu_s": cpu,
                      "wall_s": wall, "host_probe_ms": host_ms,
                      "attempted": runner.attempted, "failed": runner.failed}))
    return 0


def setup_samples(workload, seed):
    """Run SETUP_SAMPLES set-up probes one after another in fresh processes."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        try:
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                 "--seed", str(seed), "--setup-probe"],
                cwd=ROOT, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
        except subprocess.TimeoutExpired:  # run() has killed and reaped the probe
            raise BenchError(f"set-up probe ran over {SETUP_TIMEOUT_S} s", 4) from None
        if proc.returncode != 0:
            raise BenchError(f"set-up probe exited {proc.returncode}: {proc.stderr.strip()}", 4)
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return samples


def tail(latencies_ms):
    """(value, percentile): the highest percentile with TAIL_BEYOND samples
    above it, or the maximum when there are too few samples for one."""
    ordered = sorted(latencies_ms)
    n = len(ordered)
    k = n - TAIL_BEYOND - 1 if n > TAIL_BEYOND else n - 1
    return ordered[k], 100.0 * k / max(1, n - 1)


def git_sha():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() or None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def provenance(seed):
    import numpy
    import pnsqkd

    backend = getattr(pnsqkd, "backend_name", None)
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu_model": cpu_model(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "thread_env": {key: os.environ.get(key) for key in THREAD_ENV},
        "seed": seed,
        "pnsqkd_backend": backend() if callable(backend) else "absent",
        "platform": platform.platform(),
    }


class Sample(NamedTuple):
    """Times and rows of one timed invocation."""

    ms: float       # thread CPU time
    ref_ms: float   # ms scaled to the reference host speed (untraced runs)
    wall_ms: float
    rows: int


def _sample(record):
    host_ms = record.get("host_probe_ms")
    ref_ms = record["ms"] * hostspeed.REFERENCE_MS / host_ms if host_ms else None
    return Sample(record["ms"], ref_ms, record["wall_ms"], record["rows"])


def measure(runner, stream, first_index, seconds, tracer=None):
    """Time whole cycles until ``seconds`` have passed.

    Every invocation starts from a clean heap, as in a fresh pnsqkd
    process: the heap left by import and warm-up is frozen, and a garbage
    collection runs, untimed, before each invocation.  Otherwise a full
    collection, triggered partly by the benchmark's own allocations, lands
    inside a few invocations and adds ~10 ms to each, so the tail would
    depend on how many such collections a run happens to see.  An
    invocation's own collections stay timed.

    Untraced, the host-speed probe runs before the first invocation and
    after each one, and an invocation is scaled by the mean of the two
    probes around it.  With a tracer, each invocation runs untraced and
    then traced, and no probes run.  Returns the Samples of the timed
    invocations, and with a tracer those of their traced twins.
    """
    timed, traced = [], []
    index = first_index
    gc.collect()
    gc.freeze()
    try:
        before = None if tracer else hostspeed.probe() * 1e3
        start = time.perf_counter()
        while time.perf_counter() - start < seconds:
            for invocation in next(stream):
                gc.collect()
                if tracer is None:
                    outcome = invoke(runner.cli, invocation.argv)
                    after = hostspeed.probe() * 1e3
                    record = runner.record(index, invocation, "timed", outcome,
                                           host_probe_ms=(before + after) / 2)
                    before = after
                    timed.append(_sample(record))
                else:
                    record = runner.run(index, invocation, "timed")
                    timed.append(_sample(record))
                    tracer.begin_op(index)
                    gc.collect()
                    with tracer:
                        traced.append(_sample(runner.run(index, invocation, "traced",
                                                         record["sha256"])))
                index += 1
    finally:
        gc.unfreeze()
    return timed, traced


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    pin_threads()
    try:
        if args.setup_probe:
            return setup_probe(args.workload, args.seed)
        return run(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return exc.exit_code


def run(args):
    cli = import_cli()
    gate = validate_gate(cli)
    setup = [] if args.trace else setup_samples(args.workload, args.seed)
    RESULTS.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(RESULTS / f"{stem}.invocations.jsonl", "w") as sink:
        runner = Runner(cli, args.workload, args.seed, sink)
        stream = workloads.cycles(args.workload, args.seed)
        warmup = next(stream)
        for index, invocation in enumerate(warmup):
            runner.run(index, invocation, "warmup")
        tracer = None
        if args.trace:
            tracer = Tracer()
            tracer.prepare(layers.TARGETS)
        timed, traced = measure(runner, stream, len(warmup), args.seconds, tracer)

    attempted = runner.attempted + sum(s["attempted"] for s in setup)
    failed = runner.failed + sum(s["failed"] for s in setup)
    rows = sum(t.rows for t in timed)
    cpu_s = sum(t.ms for t in timed) / 1e3
    cpu_latencies = [t.ms for t in timed]
    wall_latencies = [t.wall_ms for t in timed]
    result = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "provenance": provenance(args.seed), "validate": gate,
        "attempted": attempted, "failed": failed, "error_rate": failed / attempted,
        "op_samples": len(timed),
        "cpu_rows_per_s": rows / cpu_s,
        "cpu_op_ms_p50": statistics.median(cpu_latencies),
        "cpu_op_ms_tail": tail(cpu_latencies)[0],
        "wall_op_ms_p50": statistics.median(wall_latencies),
        "wall_op_ms_tail": tail(wall_latencies)[0],
        "setup_samples": setup,
        "invocations_file": f"{stem}.invocations.jsonl",
    }
    if args.trace:
        values = layers.per_layer_values(
            tracer, len(traced), rows, traced_wall_s=sum(t.wall_ms for t in traced) / 1e3,
            untraced_cpu_s=cpu_s, traced_cpu_s=sum(t.ms for t in traced) / 1e3)
        specs = layers.metric_specs()
        result["absent_functions"] = tracer.absent
        result["spans_stored"] = len(tracer.spans)
        result["spans_dropped"] = tracer.spans_dropped
    else:
        latencies = [t.ref_ms for t in timed]
        tail_ms, result["op_tail_percentile"] = tail(latencies)
        result["host_probe_ms_p50"] = statistics.median(
            t.ms * hostspeed.REFERENCE_MS / t.ref_ms for t in timed)
        values = {
            "rows_per_s": rows / (sum(latencies) / 1e3),
            "op_ms_p50": statistics.median(latencies),
            "op_ms_tail": tail_ms,
            "setup_s": statistics.median(s["setup_s"] for s in setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        specs = END_TO_END
    metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in specs}
    result["metrics"] = metrics

    (RESULTS / f"{stem}.json").write_text(json.dumps(result, indent=1) + "\n")
    if tracer is not None:
        tracer.write_spans(RESULTS / f"{stem}.spans.jsonl")
    for record in runner.failures:
        print(f"perfbench: {record['kind']} #{record['index']} ({record['phase']}): "
              f"{'; '.join(record['problems'])}", file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
