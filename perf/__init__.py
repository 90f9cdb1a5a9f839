"""The repo's frozen benchmark: see perf/README.md and BENCHMARK.json.

Nothing here is imported by ``src/``; nothing here imports
``repro.workloads`` or ``benchmarks/``, so a change to the program can
never move the ruler it is measured with.
"""
