#!/usr/bin/env python3
"""Record reference outputs for the default seed.

    python3 perfbench/make_reference.py

Runs the first REFERENCE_CYCLES cycles of every workload with the default
seed and writes perfbench/reference.json: per invocation its arguments,
stdout sha256, header, row count and a fixed sample of parsed rows.  Runs
of that seed compare their outputs with it within the tolerances of
checks.py.  Regenerate it only when an output is meant to change.
"""
from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import checks, run, workloads  # noqa: E402

REFERENCE_CYCLES = 2


def main():
    run.pin_threads()
    cli = run.import_cli()
    out = {"seed": workloads.DEFAULT_SEED, "workloads": {}}
    for name in workloads.WORKLOADS:
        stream = workloads.cycles(name, workloads.DEFAULT_SEED)
        entries = []
        for _ in range(REFERENCE_CYCLES):
            for invocation in next(stream):
                code, stdout, stderr, _, _ = run.invoke(cli, invocation.argv)
                rows, problems = checks.check(invocation, code, stdout)
                if problems:
                    sys.exit(f"{invocation.argv}: {problems} {stderr}")
                sha256 = hashlib.sha256(stdout.encode()).hexdigest()
                entries.append(checks.reference_entry(invocation, stdout, sha256))
        out["workloads"][name] = entries
    run.REFERENCE.write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
