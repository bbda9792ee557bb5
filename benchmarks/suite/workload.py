"""One workload in a fresh interpreter; ``setup_s`` starts at the next line.

Started by the runner, one process per workload run and per extra
set-up sample: ``python3 benchmarks/suite/workload.py --workload W
--out RESULT.json [--seed N] [--seconds S] [--trace] [--setup-only]``.
"""
import time

_STARTED = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402

# Import the suite as a package from the checkout root, never this
# script's own directory.
sys.path[0] = os.path.dirname(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
)

from benchmarks.suite import layout  # noqa: E402

layout.use_checkout_source()

from benchmarks.suite.workloads import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main(sys.argv[1:], _STARTED))
