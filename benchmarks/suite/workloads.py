"""The body of one workload process: set up, send the seeded inputs, report.

Every workload runs in its own fresh interpreter (``workload.py`` next
to this file), so each has its own caches, set-up time and peak RSS.
Load comes from this one process: in-process calls from the main
thread, the batch pool driven from the main thread, or two HTTP client
threads with one keep-alive connection each.

- ``wild-small`` / ``wild-large``: ``Deobfuscator()`` with default
  options, closed loop, one client, each script once.
- ``batch``: ``BatchPool(jobs=2)`` through ``submit``/``collect`` with
  in-band ``Task.source`` and ``store_script=True``; a closed loop with
  one task outstanding per worker, so a task's latency is its transport
  and run time, not a queue, and the mixed sizes leave an idle tail.
- ``serve``: the asyncio edge in front of ``DeobfuscationService(jobs=1)``
  (one core for the worker, one for the edge and the clients); two
  client threads run a closed loop over a request mix that is half
  cache hits on a pre-posted hot set and half first-time scripts.

The process writes one JSON result: raw latencies, output digests,
key-information counts, and, when traced, per-layer totals and the
program's own counters.  ``runner.py`` turns it into metrics.
"""

import argparse
import hashlib
import json
import resource
import threading
import time
from http.client import HTTPConnection, HTTPException
from typing import Dict, List, Optional

from . import corpus, layout, spans
from .metrics import sum_counters

WORKLOADS = ("wild-small", "wild-large", "batch", "serve")
BATCH_JOBS = 2
SERVE_JOBS = 1
SERVE_CLIENTS = 2
# A run stops taking new inputs once it has measured this many times
# --seconds, so a much slower commit still exits in time.
OVERRUN = 2.0
# The set-up warm call: short, and in no band of the corpus.
WARM_SCRIPT = "I`E`X ('wri'+'te-host hi')"


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8", "surrogatepass")).hexdigest()


class Tally:
    """What the measured phase produced, script by script."""

    def __init__(self):
        self.latencies_ms: List[float] = []
        self.hit_latencies_ms: List[float] = []
        self.pipeline_ms: List[float] = []
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        self.digests: Dict[str, str] = {}
        self.digest_conflicts: List[str] = []
        self.keys_found = 0
        self.keys_total = 0
        self.input_chars = 0
        self.stats_rows: List[dict] = []
        self.layers: Dict[str, spans.LayerTotal] = {}
        self.parse_cache = [0, 0]
        self.truncated = False

    def fail(self, sample: corpus.Sample, reason: str) -> None:
        self.attempted += 1
        self.failed += 1
        if len(self.failures) < 10:
            self.failures.append(f"{sample.id}: {reason}")

    def record(
        self,
        sample: corpus.Sample,
        latency_s: float,
        output: str,
        status: str,
        hit: bool = False,
    ) -> None:
        """One answered input; a status other than ``ok`` is a failure."""
        if status != "ok":
            self.fail(sample, f"status {status}")
            return
        self.attempted += 1
        (self.hit_latencies_ms if hit else self.latencies_ms).append(
            latency_s * 1e3
        )
        found = digest(output)
        known = self.digests.setdefault(sample.id, found)
        if known != found:
            self.digest_conflicts.append(sample.id)
        self.keys_total += len(sample.keys)
        self.keys_found += sum(1 for key in sample.keys if key in output)

    def pipeline_run(
        self,
        sample: corpus.Sample,
        elapsed_s: float,
        stats: Optional[dict],
        iterations,
        layers_unwrapped,
    ) -> None:
        """The program's own account of one pipeline execution."""
        self.pipeline_ms.append(elapsed_s * 1e3)
        self.input_chars += len(sample.script)
        if stats is not None:
            row = dict(stats)
            row["iterations"] = iterations
            row["layers_unwrapped"] = layers_unwrapped
            self.stats_rows.append(row)

    def to_dict(self) -> dict:
        return {
            "attempted": self.attempted,
            "failed": self.failed,
            "completed": self.attempted - self.failed,
            "failures": self.failures,
            "truncated": self.truncated,
            "latencies_ms": self.latencies_ms,
            "hit_latencies_ms": self.hit_latencies_ms,
            "pipeline_ms": self.pipeline_ms,
            "digests": self.digests,
            "digest_conflicts": self.digest_conflicts,
            "keys_found": self.keys_found,
            "keys_total": self.keys_total,
            "input_chars": self.input_chars,
            "layers": {n: t.to_list() for n, t in self.layers.items()},
            "parse_cache": self.parse_cache,
            "counters": sum_counters(self.stats_rows),
        }

    def worker_layers(self, record: dict) -> None:
        spans.merge_totals(self.layers, {
            name: spans.LayerTotal.from_list(values)
            for name, values in (record.get("suite_layers") or {}).items()
        })
        delta = record.get("suite_parse_cache")
        if delta is None:
            self.parse_cache = None
        elif self.parse_cache is not None:
            self.parse_cache[0] += delta[0]
            self.parse_cache[1] += delta[1]


class InProcess:
    """``Deobfuscator()`` called directly: wild-small and wild-large."""

    jobs = 1

    def __init__(self, tracer: Optional[spans.Tracer]):
        from repro import Deobfuscator

        self.tracer = tracer
        self.tool = Deobfuscator()
        self.tool.deobfuscate(WARM_SCRIPT)

    def prepare(self, plan: corpus.Plan, tally: Tally) -> None:
        pass

    def run(self, plan: corpus.Plan, deadline: float, tally: Tally) -> dict:
        tool, tracer = self.tool, self.tracer
        cache_before = spans.parse_cache_counts()
        for sample in plan.inputs:
            if time.perf_counter() > deadline:
                tally.truncated = True
                break
            started = time.perf_counter()
            try:
                if tracer is None:
                    result = tool.deobfuscate(sample.script)
                else:
                    result = tracer.call(
                        spans.ROOT_SPAN, tool.deobfuscate, sample.script
                    )
            except Exception as exc:  # one crashing script is one failure
                tally.fail(sample, f"{type(exc).__name__}: {exc}"[:200])
                continue
            latency = time.perf_counter() - started
            if not result.valid_input:
                status = "invalid"
            elif result.timed_out:
                status = "timeout"
            else:
                status = "ok"
            tally.record(sample, latency, result.script, status)
            tally.pipeline_run(
                sample,
                result.elapsed_seconds,
                result.stats.to_dict() if tracer is not None else None,
                result.iterations,
                result.layers_unwrapped,
            )
        cache_after = spans.parse_cache_counts()
        tally.parse_cache = (
            None if cache_before is None or cache_after is None
            else [cache_after[0] - cache_before[0],
                  cache_after[1] - cache_before[1]]
        )
        return {}

    def close(self) -> None:
        pass


class Batch:
    """``BatchPool(jobs=2)`` driven through ``submit``/``collect``."""

    jobs = BATCH_JOBS

    def __init__(self, tracer: Optional[spans.Tracer]):
        from repro.batch import BatchPool, Task
        from repro.batch.task import DEFAULT_WORKER_SPEC

        self.Task = Task
        self.traced = tracer is not None
        self.pool = BatchPool(
            jobs=self.jobs,
            worker=spans.WORKER_SPEC if self.traced else DEFAULT_WORKER_SPEC,
        )
        self.pool.prestart()
        # One round trip per worker: ready means every worker answers.
        for _ in range(self.jobs):
            self.pool.submit(Task(path="warm", source=WARM_SCRIPT))
        while self.pool.outstanding:
            self.pool.collect()

    def prepare(self, plan: corpus.Plan, tally: Tally) -> None:
        pass

    def run(self, plan: corpus.Plan, deadline: float, tally: Tally) -> dict:
        pool = self.pool
        pending = iter(plan.inputs)
        inflight = {}
        drain_started = None

        def refill() -> None:
            while len(inflight) < self.jobs:
                if time.perf_counter() > deadline:
                    tally.truncated = next(pending, None) is not None
                    return
                sample = next(pending, None)
                if sample is None:
                    return
                task = self.Task(
                    path=sample.id, source=sample.script, store_script=True
                )
                inflight[pool.submit(task)] = (sample, time.perf_counter())

        refill()
        while inflight:
            for ticket, record in pool.collect():
                sample, sent = inflight.pop(ticket)
                latency = time.perf_counter() - sent
                tally.record(
                    sample, latency, record.get("script", ""),
                    record.get("status", "missing"),
                )
                if "elapsed_seconds" in record:
                    tally.pipeline_run(
                        sample,
                        record["elapsed_seconds"],
                        record.get("stats") if self.traced else None,
                        record.get("iterations"),
                        record.get("layers_unwrapped"),
                    )
                tally.worker_layers(record)
            refill()
            if drain_started is None and len(inflight) < self.jobs:
                drain_started = time.perf_counter()
        ended = time.perf_counter()
        return {
            "tail_s": ended - (drain_started or ended),
            "restarts": sum(pool.restarts.values()),
        }

    def close(self) -> None:
        self.pool.close()


class Serve:
    """The asyncio edge over ``DeobfuscationService(jobs=1)``."""

    jobs = SERVE_JOBS

    def __init__(self, tracer: Optional[spans.Tracer]):
        from repro.batch.task import DEFAULT_WORKER_SPEC
        from repro.service import DeobfuscationService, ServiceConfig
        from repro.service.aserver import start_async_server

        self.traced = tracer is not None
        self.service = DeobfuscationService(ServiceConfig(
            jobs=self.jobs,
            worker=spans.WORKER_SPEC if self.traced else DEFAULT_WORKER_SPEC,
        ))
        self.handle = start_async_server(self.service)
        self.address = self.handle.server_address
        connection = HTTPConnection(*self.address, timeout=30)
        try:
            while True:
                connection.request("GET", "/healthz")
                response = connection.getresponse()
                health = json.loads(response.read())
                if response.status == 200 and health["workers"] >= self.jobs:
                    break
                time.sleep(0.002)
        finally:
            connection.close()

    def _post(self, connection: HTTPConnection, script: str):
        body = json.dumps({"script": script, "stats": self.traced})
        connection.request(
            "POST", "/deobfuscate", body,
            {"Content-Type": "application/json"},
        )
        response = connection.getresponse()
        return response.status, response.read()

    def prepare(self, plan: corpus.Plan, tally: Tally) -> None:
        """Post the hot set once, so its later requests are cache hits."""
        connection = HTTPConnection(*self.address, timeout=60)
        try:
            for sample in plan.hot:
                code, body = self._post(connection, sample.script)
                if code != 200:
                    raise RuntimeError(f"hot-set post failed: HTTP {code}")
                # Every later hit must return exactly this output.
                tally.digests[sample.id] = digest(json.loads(body)["script"])
        finally:
            connection.close()

    def run(self, plan: corpus.Plan, deadline: float, tally: Tally) -> dict:
        before = dict(self.service.counters)
        queue = iter(plan.inputs)
        lock = threading.Lock()
        answers: List[list] = [[] for _ in range(SERVE_CLIENTS)]
        failures: List[list] = [[] for _ in range(SERVE_CLIENTS)]

        def next_request() -> Optional[corpus.Sample]:
            with lock:
                if time.perf_counter() > deadline:
                    tally.truncated = next(queue, None) is not None
                    return None
                return next(queue, None)

        def client(index: int) -> None:
            connection = HTTPConnection(*self.address, timeout=60)
            try:
                while True:
                    sample = next_request()
                    if sample is None:
                        return
                    started = time.perf_counter()
                    try:
                        code, body = self._post(connection, sample.script)
                    except (OSError, HTTPException) as exc:
                        failures[index].append((sample, repr(exc)))
                        connection.close()
                        connection = HTTPConnection(*self.address, timeout=60)
                        continue
                    latency = time.perf_counter() - started
                    answers[index].append((sample, latency, code, body))
            finally:
                connection.close()

        threads = [
            threading.Thread(target=client, args=(i,), name=f"suite-client-{i}")
            for i in range(SERVE_CLIENTS)
        ]
        started = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - started
        after = dict(self.service.counters)
        # Decoding and checking happen after the clock stops.
        for sample, reason in (f for part in failures for f in part):
            tally.fail(sample, reason)
        for sample, latency, code, body in (a for part in answers for a in part):
            if code != 200:
                tally.fail(sample, f"HTTP {code}")
                continue
            record = json.loads(body)
            hit = bool(record.get("cache_hit") or record.get("coalesced"))
            tally.record(
                sample, latency, record.get("script", ""),
                record.get("status", "missing"), hit=hit,
            )
            if not hit and "elapsed_seconds" in record:
                tally.pipeline_run(
                    sample,
                    record["elapsed_seconds"],
                    record.get("stats"),
                    record.get("iterations"),
                    record.get("layers_unwrapped"),
                )
                tally.worker_layers(record)
        return {
            "wall_s": wall,
            "service": {
                name: after.get(name, 0) - before.get(name, 0)
                for name in ("requests", "cache_hits", "rejected")
            },
        }

    def close(self) -> None:
        self.handle.shutdown(drain=True)


SYSTEMS = {
    "wild-small": InProcess,
    "wild-large": InProcess,
    "batch": Batch,
    "serve": Serve,
}


def peak_rss_kib() -> int:
    """The larger of this process's and its largest reaped worker's
    peak resident set, in KiB.

    This process's own peak is read from ``VmHWM``: on Linux its
    ``ru_maxrss`` would also carry the peak of the runner that started
    it, which ``exec`` keeps.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    try:
        with open("/proc/self/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    own = int(line.split()[1])
    except OSError:
        pass
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children)


def main(argv: List[str], started: float) -> int:
    """Workload-process entry; *started* is the clock at its first line."""
    parser = argparse.ArgumentParser(prog="workload.py")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--toy", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    tracer = None
    if args.trace:
        # Installed before set-up so forked workers inherit the wrappers.
        tracer = spans.Tracer()
        tracer.install()
        spans.ACTIVE = tracer
    system = SYSTEMS[args.workload](tracer)
    setup_s = time.perf_counter() - started
    result = {"workload": args.workload, "setup_s": setup_s}
    try:
        if not args.setup_only:
            sizes = corpus.TOY if args.toy else corpus.FULL
            plan = corpus.plan(
                args.workload, corpus.load(sizes), sizes, args.seed
            )
            tally = Tally()
            system.prepare(plan, tally)
            if tracer is not None:
                tracer.spans.clear()  # keep the measured phase only
            clock = time.perf_counter()
            extra = system.run(plan, clock + OVERRUN * args.seconds, tally)
            wall = extra.pop("wall_s", time.perf_counter() - clock)
            if tracer is not None:
                # This process's own spans: the in-process pipeline, or
                # the batch and service calls around the workers.
                spans.merge_totals(tally.layers, spans.layer_totals(tracer.spans))
            result.update(extra)
            result.update(tally.to_dict(), wall_s=wall, workers=system.jobs)
            if tracer is not None:
                result["missing_layers"] = tracer.missing
                tracer.dump(
                    layout.state_path("traces", f"{args.workload}.jsonl")
                )
    finally:
        system.close()
    result["peak_rss_kib"] = peak_rss_kib()
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0
