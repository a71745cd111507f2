"""Seeded end-to-end and per-layer benchmark of the pnsqkd CLI.

Run one workload with::

    python3 perfbench/run.py --workload nb-ladder --seed 1 --seconds 30 --trace 0

See ``perfbench/README.md`` for the workloads, metrics and predictions.
"""
