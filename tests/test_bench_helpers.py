"""The paper benches build their deobfuscators through the options API.

``benchmarks/test_ablation.py`` (DESIGN.md's A1 ablation) hands each
variant's option keywords to ``our_tool_adapter``, and the phase
profile bench toggles spans the same way.  A constructor change that
rejects those keywords crashes a bench before it measures anything,
and the benches are not part of this suite, so every variant runs
here once on one short script.
"""

from types import SimpleNamespace

import pytest

from benchmarks.bench_utils import our_tool_adapter
from benchmarks.test_ablation import VARIANTS
from benchmarks.test_phase_profile import run_corpus

SCRIPT = "I`E`X ('wri'+'te-host hi')"


@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_ablation_variant_runs(variant):
    result = our_tool_adapter(**VARIANTS[variant]).run(SCRIPT)
    assert result.valid_input
    assert "hi" in result.script


@pytest.mark.parametrize("collect_spans", [True, False])
def test_phase_profile_corpus_runs(collect_spans):
    results, wall = run_corpus(
        [SimpleNamespace(script=SCRIPT)], collect_spans=collect_spans
    )
    assert [result.script for result in results] == ["Write-Host hi"]
    assert bool(results[0].stats.phase_seconds) is collect_spans
    assert wall > 0
