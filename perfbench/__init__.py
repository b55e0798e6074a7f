"""The repository's benchmark: workloads, correctness gate and span tracing.

Run ``python3 perfbench/run.py --help`` from the repository root; see
``perfbench/README.md`` for the workloads and metrics.
"""
