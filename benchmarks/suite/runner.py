"""Measure one workload: set-up samples, the workload process, checks.

Each measurement starts fresh interpreters only: ``SETUP_SAMPLES - 1``
set-up-only processes and then the workload process itself (whose own
set-up is the last sample).  ``setup_s`` is their median, so one slow
start (a cold page cache, bytecode compiled on the first import) does
not move it.

Correctness checks, each failing the measurement:

- every hit on serve's hot set returns the output the hot-set post
  returned;
- every output's SHA-256 equals the one any earlier run of the same
  code recorded for the same input (``.state/digests/``): the
  same script must come out byte-identical from wild-small, batch and
  serve, traced or not;
- key-information recall (the generator's truth URLs and IPs found as
  substrings of the output) stays at or above :data:`RECALL_FLOOR`.
"""

import contextlib
import itertools
import json
import os
import signal
import subprocess
import sys
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from . import corpus, layout, metrics, workloads

DEFAULT_SECONDS = 30
SETUP_SAMPLES = 5
# Well below every workload's measured recall (0.92 on wild-large).
RECALL_FLOOR = 0.8
WORKLOAD_SCRIPT = os.path.join(layout.SUITE_DIR, "workload.py")
# Beyond the run's own overrun allowance: set-up, hot-set posts, drain.
_PROCESS_SLACK_S = 90.0
_run_ids = itertools.count()


class WorkloadFailed(RuntimeError):
    """A workload process exited abnormally or wrote no result."""


@dataclass
class Measurement:
    result: dict
    setup_samples: List[float]
    metrics: Dict[str, Optional[float]] = field(default_factory=dict)
    problems: List[str] = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return not self.problems


def _spawn(args: List[str], seconds: float) -> dict:
    """Run one workload process and return the result it wrote."""
    out = layout.state_path(
        "runs", f"{os.getpid()}-{next(_run_ids)}.json"
    )
    command = [sys.executable, WORKLOAD_SCRIPT, *args, "--out", out]
    # Its own session, so a timeout kills its worker processes too.  The
    # child's stdout joins our stderr (descriptor 2): our stdout carries
    # results only.
    process = subprocess.Popen(
        command, cwd=layout.ROOT, stdout=2, start_new_session=True
    )
    try:
        try:
            code = process.wait(
                timeout=workloads.OVERRUN * seconds + _PROCESS_SLACK_S
            )
        except BaseException:  # timeout or interrupt: stop the group, re-raise
            with contextlib.suppress(ProcessLookupError):
                os.killpg(process.pid, signal.SIGKILL)
            process.wait()
            raise
        if code != 0:
            raise WorkloadFailed(f"{' '.join(args)} exited with {code}")
        with open(out, encoding="utf-8") as handle:
            return json.load(handle)
    except subprocess.TimeoutExpired as exc:
        raise WorkloadFailed(f"{' '.join(args)} timed out") from exc
    except (OSError, ValueError) as exc:
        raise WorkloadFailed(f"{' '.join(args)} wrote no result: {exc}") from exc
    finally:
        if os.path.exists(out):
            os.remove(out)


def measure(
    workload: str,
    seed: int,
    seconds: float = DEFAULT_SECONDS,
    trace: bool = False,
    toy: bool = False,
) -> Measurement:
    """Measure *workload* once and run its correctness checks."""
    sizes = corpus.TOY if toy else corpus.FULL
    corpus_key = corpus.load(sizes).key  # draw before any timed process
    base = ["--workload", workload]
    if toy:
        base.append("--toy")
    samples = []
    if not trace:
        for _ in range(SETUP_SAMPLES - 1):
            samples.append(
                _spawn(base + ["--setup-only"], seconds)["setup_s"]
            )
    args = base + ["--seed", str(seed), "--seconds", str(seconds)]
    if trace:
        args.append("--trace")
    result = _spawn(args, seconds)
    for failure in result["failures"]:
        print(f"failed: {failure}", file=sys.stderr)
    samples.append(result["setup_s"])
    measurement = Measurement(result, samples)
    if trace:
        measurement.metrics = metrics.per_layer(result)
    else:
        measurement.metrics = metrics.end_to_end(result, samples)
    measurement.problems = check(result, corpus_key)
    return measurement


def check(result: dict, corpus_key: str) -> List[str]:
    """The correctness problems of one workload result (empty if none)."""
    problems = []
    if result["attempted"] < 1:
        problems.append("no input was attempted")
    for sample_id in result["digest_conflicts"][:5]:
        problems.append(f"{sample_id}: a cache hit returned another output")
    recall = (
        result["keys_found"] / result["keys_total"]
        if result["keys_total"] else 1.0
    )
    if recall < RECALL_FLOOR:
        problems.append(
            f"key-information recall {recall:.3f} is below {RECALL_FLOOR}"
        )
    problems.extend(_check_digests(result["digests"], corpus_key))
    return problems


def _check_digests(found: Dict[str, str], corpus_key: str) -> List[str]:
    """Compare against, then extend, the digests earlier runs of this
    code recorded; any difference for one input is a problem."""
    code = layout.tree_digest("")
    path = layout.state_path("digests", f"{corpus_key}-{code[:20]}.json")
    known: Dict[str, str] = {}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as handle:
            known = json.load(handle)
    problems = [
        f"{sample_id}: output differs from an earlier run of this code"
        for sample_id, value in sorted(found.items())
        if known.get(sample_id, value) != value
    ]
    if not problems and not set(found) <= set(known):
        known.update(found)
        partial = f"{path}.{os.getpid()}.tmp"
        with open(partial, "w", encoding="utf-8") as handle:
            json.dump(known, handle, sort_keys=True)
        os.replace(partial, path)
    return problems[:5]


def result_line(measurement: Measurement, table) -> dict:
    """The one-line JSON result, carrying the metrics of *table*."""
    return {
        "correct": measurement.correct,
        "attempted": measurement.result["attempted"],
        "failed": measurement.result["failed"],
        "metrics": metrics.with_units(measurement.metrics, table),
    }
