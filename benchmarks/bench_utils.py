"""Shared helpers for the paper-reproduction benchmarks.

Each ``test_*`` bench regenerates one table or figure of the paper,
prints it, and appends it to ``benchmarks/results/`` so the numbers
survive the pytest run.
"""

import os
import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro import Deobfuscator, PipelineOptions
from repro.baselines import LiEtAl, PSDecode, PowerDecode, PowerDrive
from repro.baselines.common import BaselineResult

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")


def write_result(name: str, text: str) -> None:
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, name + ".txt")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
    print(text)


@dataclass
class ToolAdapter:
    """Uniform interface over Invoke-Deobfuscation and the baselines."""

    name: str
    run: Callable[[str], object]

    def final_script(self, script: str) -> str:
        result = self.run(script)
        return result.script


def our_tool_adapter(**kwargs) -> ToolAdapter:
    tool = Deobfuscator(options=PipelineOptions(**kwargs))
    return ToolAdapter(name="Invoke-Deobfuscation", run=tool.deobfuscate)


def baseline_adapters() -> List[ToolAdapter]:
    return [
        ToolAdapter(name="PSDecode", run=PSDecode().deobfuscate),
        ToolAdapter(name="PowerDrive", run=PowerDrive().deobfuscate),
        ToolAdapter(name="PowerDecode", run=PowerDecode().deobfuscate),
        ToolAdapter(name="Li et al.", run=LiEtAl().deobfuscate),
    ]


def all_tools() -> List[ToolAdapter]:
    return baseline_adapters() + [our_tool_adapter()]


def render_table(
    title: str,
    headers: List[str],
    rows: List[List[str]],
) -> str:
    widths = [
        max(len(str(headers[i])), *(len(str(r[i])) for r in rows))
        if rows
        else len(str(headers[i]))
        for i in range(len(headers))
    ]
    lines = [title, ""]
    header_line = " | ".join(
        str(h).ljust(widths[i]) for i, h in enumerate(headers)
    )
    lines.append(header_line)
    lines.append("-+-".join("-" * w for w in widths))
    for row in rows:
        lines.append(
            " | ".join(str(c).ljust(widths[i]) for i, c in enumerate(row))
        )
    lines.append("")
    return "\n".join(lines)


def fig5_corpus(count: int = 100, seed: int = 2022):
    """The Fig 5 / Fig 6 / Table IV corpus, sized like the paper's:
    "100 obfuscated PowerShell scripts whose sizes are between 97 bytes
    and 2 KB" (Section IV-C2).

    Over half the samples carry sandbox-evasion guards, matching how
    pervasive anti-analysis is in wild droppers — the feature that
    separates static recovery from the execution-based baselines.
    """
    from repro.dataset import generate_corpus

    raw = generate_corpus(count * 5, seed=seed, guard_fraction=0.6)
    sized = [s for s in raw if 97 <= len(s.script) <= 2048]
    return sized[:count]


def layered_output(result) -> str:
    """Everything a tool surfaced: final script plus intermediate layers.

    Analysts inspect every layer a deobfuscator emits, so key-information
    counts credit information visible in any of them.
    """
    pieces = [result.script]
    pieces.extend(getattr(result, "layers", []) or [])
    return "\n".join(pieces)
