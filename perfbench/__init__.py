"""The repository benchmark: three seeded workloads, end to end and per layer.

See ``perfbench/README.md`` and ``BENCHMARK.json``.
"""
