"""Where the checkout, the program under test and the suite's state live.

The suite measures the ``repro`` package of the checkout it sits in and
nothing else: an installed copy elsewhere on ``sys.path`` must never be
picked up in its place, and a directory without ``src/repro`` is an
error, not a fallback.
"""

import hashlib
import os
import sys

SUITE_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(SUITE_DIR))
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "repro")
# Generated inputs, output digests and traces, kept inside the suite's
# own directory; listed in the repository's .gitignore.
STATE_DIR = os.path.join(SUITE_DIR, ".state")
BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")


class MissingProgram(RuntimeError):
    """The checkout has no ``src/repro`` package to measure."""


def use_checkout_source() -> None:
    """Put this checkout's ``src/`` first on ``sys.path``.

    Raises :class:`MissingProgram` when the package is absent, so the
    benchmark fails instead of measuring some other installed copy.
    """
    if not os.path.isfile(os.path.join(PACKAGE, "__init__.py")):
        raise MissingProgram(f"no repro package under {SRC}")
    if SRC in sys.path:
        sys.path.remove(SRC)
    sys.path.insert(0, SRC)


def tree_digest(*relative_dirs: str) -> str:
    """SHA-256 over every ``.py`` file under the given ``src/repro``
    subdirectories (path and content), in sorted order."""
    digest = hashlib.sha256()
    for relative in relative_dirs:
        base = os.path.join(PACKAGE, relative) if relative else PACKAGE
        for directory, dirs, files in os.walk(base):
            dirs[:] = sorted(d for d in dirs if d != "__pycache__")
            for name in sorted(files):
                if not name.endswith(".py"):
                    continue
                path = os.path.join(directory, name)
                digest.update(os.path.relpath(path, PACKAGE).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()


def state_path(*parts: str) -> str:
    """A path under the suite's state directory, creating its parent."""
    path = os.path.join(STATE_DIR, *parts)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    return path
