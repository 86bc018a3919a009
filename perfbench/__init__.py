"""The repository benchmark (``python3 perfbench/run.py``).

See :mod:`perfbench.run` for the workloads, the metrics and how to run
it; ``BENCHMARK.json`` at the repository root declares the same names.
"""
