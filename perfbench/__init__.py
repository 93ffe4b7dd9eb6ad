"""The repository benchmark: end-to-end and per-layer performance of repro.

Run one workload with ``python3 perfbench/run.py --workload <name>``;
``python3 perfbench/selfcheck.py`` checks the benchmark itself at tiny
sizes.  ``BENCHMARK.json`` at the repository root names the workloads
and metrics.
"""
