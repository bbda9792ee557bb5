"""Measure one workload and print one JSON result line.

    python3 benchmarks/suite/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Exits non-zero, printing no result,
when the checkout has no ``src/repro`` to measure.
"""

import os
import sys

# Import the suite as a package from the checkout root, never this
# script's own directory.
sys.path[0] = os.path.dirname(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
)

from benchmarks.suite import layout  # noqa: E402

if __name__ == "__main__":
    try:
        layout.use_checkout_source()
    except layout.MissingProgram as exc:
        sys.exit(f"error: {exc}")
    from benchmarks.suite.cli import measure_main

    sys.exit(measure_main())
