"""Seeded inputs: one generated corpus, cut into size bands, ordered per seed.

The corpus is drawn from :func:`repro.dataset.generator.generate_sample`
in seed order with the Fig 5/6 setting ``guard_fraction=0.6``.  Draws go
into two size bands (UTF-8 bytes of the obfuscated script):

- **small**: 97-2048 B, the paper's Fig 5/6 band;
- **mid**: 2049-32768 B.

Drawing stops once both bands are full; draws over 32 KB are dropped
(some take minutes to deobfuscate).  The generator's ground truth
(``truth.urls`` and ``truth.ips``) is kept as the correctness reference.

The corpus is drawn once, from :data:`CORPUS_SEED`, and cached under the
suite's ``.state/`` directory keyed by the draw settings and a
hash of the generator's code.  A run's ``--seed`` then fixes everything
else: the order each workload sends its scripts in, the batch shuffle,
and the serve workload's request mix.  Drawing a fresh corpus per seed
would cost about 25 s of generation per seed and move wild-large's p95
by 7-13 % between seeds on input choice alone, which no regression bound
could absorb.
"""

import json
import os
import random
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List

from . import layout

CORPUS_SEED = 2022
GUARD_FRACTION = 0.6
SMALL_BAND = (97, 2048)
MID_BAND = (2049, 32768)
# Bump when the cached file layout changes.
_FORMAT = 1


@dataclass(frozen=True)
class Sizes:
    """How many scripts each band holds and each workload uses."""

    small: int = 1050
    mid: int = 200
    wild_small: int = 1000
    batch_mid: int = 100
    hot: int = 50
    requests: int = 2000

    def __post_init__(self):
        misses = self.requests - self.requests // 2
        if self.wild_small > self.small or self.batch_mid > self.mid:
            raise ValueError("a workload uses more scripts than its band")
        if self.hot + misses > self.small:
            raise ValueError("serve needs hot + misses <= small scripts")


FULL = Sizes()
# The self-tests' smoke size: every workload runs end to end in seconds.
TOY = Sizes(small=24, mid=3, wild_small=20, batch_mid=2, hot=4, requests=40)


@dataclass(frozen=True)
class Sample:
    """One corpus script and the key information it must still show."""

    id: str
    script: str
    keys: List[str] = field(default_factory=list)

    def to_dict(self) -> Dict[str, object]:
        return {"id": self.id, "script": self.script, "keys": self.keys}

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "Sample":
        return cls(data["id"], data["script"], list(data["keys"]))


@dataclass
class Corpus:
    small: List[Sample]
    mid: List[Sample]
    key: str


@dataclass
class Plan:
    """What one workload run sends, in order.

    ``inputs`` is the measured stream: scripts for the in-process and
    batch workloads, requests for serve.  ``hot`` is serve's hot set,
    posted once before timing starts.
    """

    inputs: List[Sample]
    hot: List[Sample] = field(default_factory=list)


def corpus_key(sizes: Sizes) -> str:
    """Cache key: draw settings plus the code the draw runs through."""
    import hashlib

    settings = json.dumps(
        {
            "format": _FORMAT,
            "seed": CORPUS_SEED,
            "guard_fraction": GUARD_FRACTION,
            "bands": [SMALL_BAND, MID_BAND],
            "counts": [sizes.small, sizes.mid],
            # The generator parses while it obfuscates, so the parser
            # is part of what decides the draw.
            "code": layout.tree_digest("dataset", "obfuscation", "pslang"),
        },
        sort_keys=True,
    )
    return hashlib.sha256(settings.encode()).hexdigest()[:20]


def draw(sizes: Sizes) -> Dict[str, object]:
    """Draw samples in seed order until both bands are full."""
    from repro.dataset.generator import generate_sample

    rng = random.Random(CORPUS_SEED)
    bands: Dict[str, List[Sample]] = {"small": [], "mid": []}
    wanted = {"small": sizes.small, "mid": sizes.mid}
    draws = dropped = 0
    while any(len(bands[b]) < wanted[b] for b in bands):
        guard = rng.random() < GUARD_FRACTION
        sample = generate_sample(f"draw-{draws:05d}", rng, guard=guard)
        draws += 1
        size = len(sample.script.encode("utf-8", "surrogatepass"))
        if SMALL_BAND[0] <= size <= SMALL_BAND[1]:
            band = "small"
        elif MID_BAND[0] <= size <= MID_BAND[1]:
            band = "mid"
        else:
            dropped += 1
            continue
        if len(bands[band]) < wanted[band]:
            truth = sample.truth
            keys = sorted(truth.urls | truth.ips) if truth else []
            bands[band].append(Sample(sample.identifier, sample.script, keys))
    return {
        "draws": draws,
        "dropped": dropped,
        "small": [s.to_dict() for s in bands["small"]],
        "mid": [s.to_dict() for s in bands["mid"]],
    }


def load(sizes: Sizes) -> Corpus:
    """The cached corpus for *sizes*, drawing (and caching) it if absent.

    Generation time is reported on stderr and counted in no metric.
    """
    key = corpus_key(sizes)
    path = layout.state_path("corpus", f"{key}.json")
    if not os.path.exists(path):
        started = time.perf_counter()
        data = draw(sizes)
        elapsed = time.perf_counter() - started
        print(
            f"corpus: drew {data['draws']} samples "
            f"({data['dropped']} outside both bands) in {elapsed:.1f} s",
            file=sys.stderr,
        )
        partial = f"{path}.{os.getpid()}.tmp"
        with open(partial, "w", encoding="utf-8") as handle:
            json.dump(data, handle)
        os.replace(partial, path)
    with open(path, encoding="utf-8") as handle:
        data = json.load(handle)
    return Corpus(
        small=[Sample.from_dict(s) for s in data["small"]],
        mid=[Sample.from_dict(s) for s in data["mid"]],
        key=key,
    )


def plan(workload: str, corpus: Corpus, sizes: Sizes, seed: int) -> Plan:
    """The seeded input stream of *workload*.

    Each workload uses a fixed set of scripts; the seed orders them and,
    for serve, draws the request mix.  Fixed sets keep input choice out
    of the run-to-run spread.
    """
    rng = random.Random(f"{seed}:{workload}")
    if workload == "wild-small":
        inputs = list(corpus.small[: sizes.wild_small])
    elif workload == "wild-large":
        inputs = list(corpus.mid)
    elif workload == "batch":
        inputs = corpus.small[: sizes.wild_small] + corpus.mid[: sizes.batch_mid]
    elif workload == "serve":
        hot = corpus.small[: sizes.hot]
        misses = corpus.small[sizes.hot:]
        rng.shuffle(misses)
        hits = sizes.requests // 2
        misses = misses[: sizes.requests - hits]
        kinds = ["hit"] * hits + ["miss"] * len(misses)
        rng.shuffle(kinds)
        pending = iter(misses)
        inputs = [
            rng.choice(hot) if kind == "hit" else next(pending)
            for kind in kinds
        ]
        return Plan(inputs=inputs, hot=hot)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(inputs)
    return Plan(inputs=inputs)
