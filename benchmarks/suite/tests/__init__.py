"""Self-tests of the benchmark harness (not of the program it measures).

Run from the repository root: ``python -m pytest benchmarks/suite/tests``.
"""
