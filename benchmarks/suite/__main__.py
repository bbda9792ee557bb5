"""``python -m benchmarks.suite run|compare`` from the repository root."""

import sys

from benchmarks.suite import layout

try:
    layout.use_checkout_source()
except layout.MissingProgram as exc:
    sys.exit(f"error: {exc}")

from benchmarks.suite.cli import main  # noqa: E402

sys.exit(main())
