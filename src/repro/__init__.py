"""repro — a Python reproduction of Invoke-Deobfuscation (DSN 2022).

The package implements an AST-based, semantics-preserving deobfuscator for
PowerShell scripts together with every substrate it needs: a pure-Python
PowerShell lexer/parser/AST (:mod:`repro.pslang`), a sandboxed expression
interpreter (:mod:`repro.runtime`), the deobfuscation pipeline itself
(:mod:`repro.core`), a fault-contained worker pool for corpus-scale runs
(:mod:`repro.batch`), an obfuscation toolkit used to build evaluation corpora
(:mod:`repro.obfuscation`), re-implementations of the baseline tools the
paper compares against (:mod:`repro.baselines`), obfuscation scoring
(:mod:`repro.scoring`), measurement utilities (:mod:`repro.analysis`,
:mod:`repro.dataset`), and a differential semantics-preservation verifier
(:mod:`repro.verify`) that replays original and deobfuscated scripts in
the sandbox and compares their behaviour-event logs.

Pipeline knobs travel as one typed record, :class:`PipelineOptions`
(:mod:`repro.options`): ``Deobfuscator(options=PipelineOptions(...))``
is the only constructor form.

Quickstart::

    from repro import deobfuscate

    result = deobfuscate("I`E`X ('wri'+'te-host hi')")
    print(result.script)        # Write-Host hi
    print(result.layers)        # intermediate scripts, one per layer

For whole corpora, :class:`BatchPool` fans samples across worker
processes with per-sample timeouts and crash isolation — see
:mod:`repro.batch`.
"""

__version__ = "1.2.0"

_LAZY_PIPELINE = {"Deobfuscator", "DeobfuscationResult", "deobfuscate"}
_LAZY_BATCH = {"BatchPool", "run_batch"}
_LAZY_OBS = {"PipelineStats"}
_LAZY_OPTIONS = {"PipelineOptions"}
_LAZY_VERIFY = {"VerifyVerdict", "verify_equivalence", "verify_result"}


def package_version() -> str:
    """The installed distribution's version, falling back to the
    source tree's ``__version__`` when the package is not installed
    (e.g. running from a checkout via ``PYTHONPATH=src``)."""
    try:
        from importlib.metadata import version

        return version("repro")
    except Exception:  # noqa: BLE001 — any metadata failure → fallback
        return __version__


def __getattr__(name):
    """Lazily expose the pipeline API to avoid import cycles at bootstrap."""
    if name in _LAZY_PIPELINE:
        from repro.core import pipeline

        return getattr(pipeline, name)
    if name in _LAZY_BATCH:
        from repro import batch

        return getattr(batch, name)
    if name in _LAZY_OBS:
        from repro import obs

        return getattr(obs, name)
    if name in _LAZY_OPTIONS:
        from repro import options

        return getattr(options, name)
    if name in _LAZY_VERIFY:
        from repro import verify

        return getattr(verify, name)
    raise AttributeError(f"module 'repro' has no attribute {name!r}")

__all__ = [
    "Deobfuscator",
    "DeobfuscationResult",
    "PipelineOptions",
    "PipelineStats",
    "VerifyVerdict",
    "deobfuscate",
    "verify_equivalence",
    "verify_result",
    "BatchPool",
    "run_batch",
    "package_version",
    "__version__",
]
