"""Acceptance: the verifier over a generated corpus.

``repro batch --verify`` over the example corpus must judge ≥95% of
samples equivalent, crash nothing, and attach a reason or diff to every
non-equivalent verdict (the paper's Table IV behavioural-consistency
experiment, upgraded to ordered event logs).
"""

import os

import pytest

from repro import deobfuscate
from repro.batch.task import make_tasks, run_one
from repro.dataset import generate_corpus
from repro.verify import verify_result

CORPUS_SIZE = 24

# Inputs that once verified divergent, one script per file.  draw-00217
# is seed-2022 generator draw 217 (the benchmark corpus): a dropper
# whose hex-encoded payload ends in ``powershell -ExecutionPolicy
# Bypass -File <path>``, which used to unwrap into the bare path.
REGRESSIONS = os.path.join(os.path.dirname(__file__), "regressions")


class TestCorpusEquivalence:
    def test_corpus_verifies_equivalent(self, tmp_path):
        corpus = generate_corpus(CORPUS_SIZE, seed=2022)
        paths = []
        for sample in corpus:
            path = tmp_path / f"{sample.identifier}.ps1"
            path.write_text(sample.script, encoding="utf-8")
            paths.append(str(path))

        records = [
            run_one(task)
            for task in make_tasks(paths, verify=True)
        ]

        assert len(records) == CORPUS_SIZE  # no crashes
        verdicts = [record["verify"]["verdict"] for record in records]
        equivalent = verdicts.count("equivalent")
        assert equivalent / len(verdicts) >= 0.95, (
            f"only {equivalent}/{len(verdicts)} equivalent: "
            + str([
                (record["path"], record["verify"])
                for record in records
                if record["verify"]["verdict"] != "equivalent"
            ])
        )
        for record in records:
            verdict = record["verify"]
            if verdict["verdict"] == "divergent":
                assert verdict.get("diff") or verdict.get("reason")
            if verdict["verdict"] == "inconclusive":
                assert verdict.get("reason")

    def test_verify_verdicts_aggregate_in_stats(self, tmp_path):
        sample = tmp_path / "one.ps1"
        sample.write_text("I`E`X ('wri'+'te-host hi')", encoding="utf-8")
        record = run_one(make_tasks([str(sample)], verify=True)[0])
        assert record["stats"]["verify"] == {"equivalent": 1}
        assert record["verify"]["verdict"] == "equivalent"


@pytest.mark.parametrize("name", sorted(os.listdir(REGRESSIONS)))
def test_regression_input_verifies_equivalent(name):
    with open(os.path.join(REGRESSIONS, name), encoding="utf-8") as handle:
        verdict = verify_result(deobfuscate(handle.read()))
    assert verdict.verdict == "equivalent", verdict.to_dict()
