"""The repository benchmark: four workloads, end-to-end and per-layer metrics.

``BENCHMARK.json`` at the repository root declares the workloads and
metrics; ``README.md`` next to this file explains each choice.  Entry
points:

- ``python3 benchmarks/suite/run.py --workload W --seed N --seconds S
  --trace 0|1`` measures one workload and prints one JSON result line;
- ``python -m benchmarks.suite run --seed N [--trace] [--out F]`` measures
  every workload, cross-checks their outputs and prints a table;
- ``python -m benchmarks.suite compare A/*.json -- B/*.json`` compares
  two sets of ``run --out`` files against the declared bounds.
"""
