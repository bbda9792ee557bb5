"""The corpus-scale worker pool: fault containment for hostile inputs.

Wild PowerShell corpora (the paper's Section IV evaluation runs over
39,713 samples) contain scripts that hang, exhaust memory, or crash the
process that analyses them.  One bad sample must never take down a
corpus run, so every sample is deobfuscated inside a disposable worker
process and the parent enforces three guarantees:

timeout
    Each sample gets a wall-clock budget.  The worker first tries to
    finish gracefully (the pipeline's cooperative ``deadline_seconds``);
    if the process is still on the same sample ``kill_grace`` seconds
    past the budget, the parent SIGKILLs it, records ``timeout`` and
    respawns a fresh worker.

crash isolation
    A worker that dies (segfault, OOM kill, ``os._exit``) loses only the
    sample it was holding.  The parent notices the death, respawns the
    worker, and either retries the sample or records ``error``.

bounded retry
    A crashed sample is retried up to ``retries`` times (default 1) —
    crashes can be environmental — then recorded as ``error``.
    Timeouts are never retried: they are deterministic under a fixed
    budget.

The design is parent-authoritative: the parent assigns exactly one task
at a time to each worker over a dedicated :func:`multiprocessing.Pipe`
and starts that sample's clock at send time.  There is no shared task
queue, so the parent always knows which sample a dead worker held —
a worker that dies without ever reporting in cannot strand a sample
(the failure mode of queue-based pools, whose feeder threads can drop
in-flight messages when a process exits abruptly).

Two front ends share the same engine:

- :meth:`BatchPool.run` — the offline generator, yielding one record
  dict per sample *as each finishes* (completion order, not input
  order), which is what lets the CLI stream JSONL while the run is
  still going.  It shuts the fleet down when the task list is done.
- :meth:`BatchPool.submit` / :meth:`BatchPool.collect` — the
  interactive API ``repro.service`` is built on: tickets go in at any
  time, ``(ticket, record)`` pairs come out as they complete, and the
  worker fleet stays warm between submissions until :meth:`close`.

The pool is **not** thread-safe: exactly one thread must own
``submit``/``collect``/``run`` (the service wraps it in a dispatcher
thread for that reason).

Worker lifecycle is counted in :attr:`BatchPool.restarts` — crash
respawns vs timeout kills — so flapping workers show up in batch
summaries and in the service's ``/metrics`` instead of being invisible.

Known race, by design: if a worker finishes a sample in the instant
between the parent's last poll and a timeout kill, the sample is
recorded ``timeout`` and the late result is discarded — the parent
never double-records a sample.
"""

import itertools
import multiprocessing
import os
import pickle
import stat
import time
from collections import deque
from multiprocessing.connection import wait as _connection_wait
from typing import Deque, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.batch.task import (
    DEFAULT_WORKER_SPEC,
    Task,
    error_record,
    exception_record,
    resolve_worker,
)
from repro.obs.log import get_logger

_POLL_SECONDS = 0.05

_log = get_logger("batch.pool")

# Keys of :attr:`BatchPool.restarts`, the worker-lifecycle counters.
RESTART_REASONS = ("crash", "timeout")


def _release_inherited_sockets(keep: int) -> None:
    """Release every socket a forked worker inherited, except *keep*.

    A fork copies the parent's whole FD table, and with it whatever
    sockets the HTTP front ends hold at that instant: listeners and
    accepted connections, including one accepted a moment ago that no
    handler has seen yet.  A worker holding a copy keeps the socket
    alive after the server closes its own: a closed listener's port
    keeps accepting (clients hang in the backlog instead of being
    refused) and a closed connection sends no FIN (the client never
    sees EOF).  Each inherited socket is pointed at ``/dev/null``
    rather than closed, so its number stays taken: a stale socket
    object copied from the parent that is finalized later closes
    ``/dev/null``, not an FD the worker opened since.  The standard
    streams stay as they are, and spawn-style contexts start from a
    clean FD table with nothing to release.
    """
    for directory in ("/proc/self/fd", "/dev/fd"):
        try:
            fds = [int(name) for name in os.listdir(directory)]
            break
        except OSError:
            continue
    else:
        return
    devnull = os.open(os.devnull, os.O_RDWR)
    try:
        for fd in fds:
            if fd <= 2 or fd in (keep, devnull):
                continue
            try:
                if stat.S_ISSOCK(os.fstat(fd).st_mode):
                    os.dup2(devnull, fd, inheritable=False)
            except OSError:
                pass
    finally:
        os.close(devnull)


def _worker_main(worker_spec, conn):
    """Worker process body: serve one task at a time over *conn*.

    Exceptions raised by the worker function are converted to ``error``
    records here; only process death reaches the parent's crash path.
    A closed pipe (parent shut down) ends the loop.
    """
    _release_inherited_sockets(conn.fileno())
    worker = resolve_worker(worker_spec)
    try:
        while True:
            item = conn.recv()
            if item is None:
                return
            ticket, task = item
            try:
                record = worker(task)
            except BaseException as exc:  # noqa: BLE001 — contain everything
                record = exception_record(task, exc)
            conn.send((ticket, record))
    except (EOFError, BrokenPipeError, OSError):
        return


class _Worker:
    """Parent-side handle: process, pipe, and the ticket it holds.

    ``started`` is the monotonic dispatch time (budget accounting);
    ``started_unix`` is the wall-clock twin, kept so a span can be
    synthesized for a worker that died without reporting back.
    """

    __slots__ = ("proc", "conn", "ticket", "started", "started_unix")

    def __init__(self, proc, conn):
        self.proc = proc
        self.conn = conn
        self.ticket: Optional[int] = None
        self.started = 0.0
        self.started_unix = 0.0


def _synthesize_aborted_span(task: Task, started_unix: float) -> Optional[dict]:
    """A parent-side ``worker`` span for a worker that died without
    reporting back (SIGKILL on timeout, segfault, OOM kill).

    The task's trace context promised the worker root span's id, so the
    parent can mint the exact span the worker would have exported —
    with ``status="aborted"`` and only wall-clock fidelity — instead of
    losing the sample from the waterfall entirely.
    """
    if not task.trace:
        return None
    from repro.obs.trace import TraceContext, TraceSpan

    context = TraceContext.from_dict(task.trace)
    return TraceSpan(
        name="worker",
        trace_id=context.trace_id,
        span_id=context.span_id,
        parent_span_id=context.parent_span_id,
        start_unix=started_unix,
        end_unix=time.time(),
        status="aborted",
        process="worker",
        attributes={"path": task.path},
    ).to_dict()


class BatchPool:
    """Fan tasks across worker processes with per-sample fault limits.

    Parameters
    ----------
    jobs
        Worker process count (default: ``os.cpu_count()``).
    timeout
        Per-sample wall-clock budget in seconds (default: unlimited).
    kill_grace
        Extra seconds past ``timeout`` before the hard SIGKILL, giving
        the in-worker cooperative deadline a chance to return a partial
        result first.
    retries
        How many times a sample whose worker *died* is re-queued before
        being recorded as ``error``.
    worker
        ``"module:callable"`` spec of the per-task worker function
        (default :func:`repro.batch.task.run_one`).

    Workers start with the platform's default start method
    (:func:`multiprocessing.get_context`).

    Attributes
    ----------
    restarts
        Lifetime worker-respawn counters: ``{"crash": n, "timeout": n}``.
        ``crash`` counts workers that died on their own (and were
        replaced); ``timeout`` counts workers the parent SIGKILLed for
        blowing the per-sample budget.  Counters survive :meth:`close`
        so a service can report them over the fleet's whole life.
    """

    def __init__(
        self,
        jobs: Optional[int] = None,
        timeout: Optional[float] = None,
        kill_grace: float = 0.5,
        retries: int = 1,
        worker: str = DEFAULT_WORKER_SPEC,
    ):
        self.jobs = max(1, jobs or multiprocessing.cpu_count())
        self.timeout = timeout
        self.kill_grace = kill_grace
        self.retries = max(0, retries)
        self.worker = worker
        self._ctx = multiprocessing.get_context()
        self.restarts: Dict[str, int] = {r: 0 for r in RESTART_REASONS}
        self._workers: Dict[int, _Worker] = {}
        self._worker_ids = itertools.count()
        self._ticket_ids = itertools.count()
        self._tasks: Dict[int, Task] = {}
        # Ticket -> pre-pickled (ticket, task) wire payload.  A task is
        # serialized exactly once, at submit time; every dispatch —
        # including crash retries — reuses the bytes, keeping pickling
        # cost out of the poll loop (Connection.recv() on the worker
        # side unpickles a send_bytes payload like any send()).
        self._payloads: Dict[int, bytes] = {}
        self._attempts: Dict[int, int] = {}
        self._pending: Deque[int] = deque()
        self._outstanding = 0
        self._spec_checked = False

    # -- interactive API ----------------------------------------------------

    @property
    def outstanding(self) -> int:
        """Tickets submitted but not yet collected."""
        return self._outstanding

    @property
    def worker_count(self) -> int:
        """Live worker processes right now."""
        return len(self._workers)

    def submit(self, task: Task) -> int:
        """Queue *task* for a worker; return its ticket.

        The ticket identifies the task in :meth:`collect` output.  The
        worker spec is validated on the first submission so a bad
        ``--worker`` fails in the parent, not in every worker.
        """
        if not self._spec_checked:
            resolve_worker(self.worker)
            self._spec_checked = True
        ticket = next(self._ticket_ids)
        self._tasks[ticket] = task
        self._payloads[ticket] = pickle.dumps(
            (ticket, task), protocol=pickle.HIGHEST_PROTOCOL
        )
        self._attempts[ticket] = 0
        self._pending.append(ticket)
        self._outstanding += 1
        return ticket

    def prestart(self, count: Optional[int] = None) -> None:
        """Spawn up to ``min(count or jobs, jobs)`` workers eagerly.

        A long-running service calls this at boot so the first requests
        do not pay process startup.
        """
        target = min(self.jobs, count if count is not None else self.jobs)
        while len(self._workers) < target:
            self._spawn()

    def resize(self, jobs: int) -> int:
        """Change the target worker count; returns the new target.

        Growing takes effect on the next :meth:`collect` pass (workers
        spawn on demand up to the target).  Shrinking retires surplus
        *idle* workers immediately; a worker mid-sample finishes its
        work first and is retired on a later pass.  The service's
        autoscaler calls this from the dispatcher thread — like every
        other pool method, it is not thread-safe.
        """
        self.jobs = max(1, int(jobs))
        self._shed_surplus()
        return self.jobs

    def _shed_surplus(self) -> None:
        """Retire idle workers beyond the ``jobs`` target."""
        surplus = len(self._workers) - self.jobs
        if surplus <= 0:
            return
        for worker_id, state in list(self._workers.items()):
            if surplus <= 0:
                break
            if state.ticket is not None:
                continue
            try:
                state.conn.send(None)  # graceful stop sentinel
            except (BrokenPipeError, OSError):
                pass
            state.conn.close()
            state.proc.join(timeout=1.0)
            if state.proc.is_alive():
                state.proc.kill()
                state.proc.join()
            del self._workers[worker_id]
            surplus -= 1

    def collect(
        self, timeout: Optional[float] = None
    ) -> List[Tuple[int, dict]]:
        """Advance the pool; return ``(ticket, record)`` pairs that
        completed during this call.

        With ``timeout=None`` the call blocks until at least one
        outstanding ticket completes (returning ``[]`` only when
        nothing is outstanding).  With a timeout it returns whatever
        completed within roughly that many seconds, possibly ``[]`` —
        the poll granularity is ``_POLL_SECONDS``, so even ``0`` runs
        one full dispatch/poll/kill pass.
        """
        done: List[Tuple[int, dict]] = []
        deadline = (
            None if timeout is None else time.monotonic() + timeout
        )
        while self._outstanding > 0:
            self._step(done)
            if done:
                break
            if deadline is not None and time.monotonic() >= deadline:
                break
        return done

    def close(self) -> None:
        """Shut the fleet down and forget queued work.

        Outstanding tickets are dropped without records — drain with
        :meth:`collect` first if you need them.  ``restarts`` counters
        are preserved.  The pool may be reused afterwards; fresh
        workers spawn on demand.
        """
        # Ask idle workers to exit, and busy ones once their current
        # task is done; closing our pipe end then reads as EOF too.
        for state in self._workers.values():
            try:
                state.conn.send(None)  # graceful stop sentinel
            except (BrokenPipeError, OSError):
                pass
            try:
                state.conn.close()
            except OSError:
                pass
        join_by = time.monotonic() + 1.0
        for state in self._workers.values():
            state.proc.join(max(0.0, join_by - time.monotonic()))
            if state.proc.is_alive():
                state.proc.kill()
                state.proc.join()
        self._workers.clear()
        self._pending.clear()
        self._tasks.clear()
        self._payloads.clear()
        self._attempts.clear()
        self._outstanding = 0

    def __enter__(self) -> "BatchPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- offline front end --------------------------------------------------

    def run(self, tasks: Iterable[Task]) -> Iterator[dict]:
        """Yield one record per task, in completion order.

        Submits everything, drains to completion, then shuts the
        workers down — the one-shot corpus mode of ``repro batch``.
        Do not interleave with :meth:`submit`/:meth:`collect` on the
        same pool.
        """
        tasks = list(tasks)
        if not tasks:
            return
        try:
            for task in tasks:
                self.submit(task)
            while self._outstanding > 0:
                for _ticket, record in self.collect():
                    yield record
        finally:
            self.close()

    # -- engine -------------------------------------------------------------

    def _spawn(self) -> None:
        parent_conn, child_conn = self._ctx.Pipe()
        proc = self._ctx.Process(
            target=_worker_main,
            args=(self.worker, child_conn),
            daemon=True,
        )
        proc.start()
        # drop the parent's copy of the child end so a dead worker
        # reads as EOF on parent_conn
        child_conn.close()
        worker_id = next(self._worker_ids)
        self._workers[worker_id] = _Worker(proc, parent_conn)
        _log.debug(
            "spawned worker", worker=worker_id, pid=proc.pid,
            fleet=len(self._workers),
        )

    def _finalize(self, ticket: int) -> None:
        del self._tasks[ticket]
        del self._payloads[ticket]
        del self._attempts[ticket]
        self._outstanding -= 1

    def _reap(self, worker_id: int) -> Optional[Tuple[int, dict]]:
        """Remove a dead worker; retry or fail the ticket it held."""
        held = self._workers.pop(worker_id)
        held.conn.close()
        held.proc.join()
        exit_code = held.proc.exitcode
        self.restarts["crash"] += 1
        ticket = held.ticket
        _log.warning(
            "worker died; respawning",
            worker=worker_id,
            pid=held.proc.pid,
            exit_code=exit_code,
            held_ticket=ticket,
        )
        if ticket is None or ticket not in self._tasks:
            return None
        if self._attempts[ticket] <= self.retries:
            self._pending.append(ticket)
            return None
        task = self._tasks[ticket]
        record = error_record(
            task,
            f"worker process died (exit code {exit_code})",
            attempts=self._attempts[ticket],
        )
        aborted = _synthesize_aborted_span(task, held.started_unix)
        if aborted is not None and "trace_spans" not in record:
            record["trace_spans"] = [aborted]
        self._finalize(ticket)
        return (ticket, record)

    def _step(self, done: List[Tuple[int, dict]]) -> None:
        """One dispatch / poll / kill pass over the fleet."""
        self._shed_surplus()
        while len(self._workers) < min(self.jobs, self._outstanding):
            self._spawn()

        for worker_id, state in list(self._workers.items()):
            if state.ticket is None and self._pending:
                ticket = self._pending.popleft()
                self._attempts[ticket] += 1
                try:
                    state.conn.send_bytes(self._payloads[ticket])
                except (BrokenPipeError, OSError):
                    self._pending.appendleft(ticket)
                    self._attempts[ticket] -= 1
                    reaped = self._reap(worker_id)
                    if reaped is not None:
                        done.append(reaped)
                    continue
                state.ticket = ticket
                state.started = time.monotonic()
                state.started_unix = time.time()

        conn_to_id = {
            state.conn: worker_id
            for worker_id, state in self._workers.items()
        }
        if conn_to_id:
            ready = _connection_wait(
                list(conn_to_id), timeout=_POLL_SECONDS
            )
        else:
            ready = []
        for conn in ready:
            worker_id = conn_to_id[conn]
            state = self._workers[worker_id]
            try:
                ticket, record = conn.recv()
            except (EOFError, OSError):
                reaped = self._reap(worker_id)
                if reaped is not None:
                    done.append(reaped)
                continue
            state.ticket = None
            if ticket not in self._tasks:
                continue
            record.setdefault("attempts", self._attempts[ticket])
            self._finalize(ticket)
            done.append((ticket, record))

        now = time.monotonic()
        for worker_id, state in list(self._workers.items()):
            ticket = state.ticket
            over_budget = (
                ticket is not None
                and self.timeout is not None
                and now - state.started > self.timeout + self.kill_grace
            )
            if over_budget:
                state.proc.kill()
                state.proc.join()
                state.conn.close()
                del self._workers[worker_id]
                self.restarts["timeout"] += 1
                _log.warning(
                    "SIGKILLed worker over budget",
                    worker=worker_id,
                    pid=state.proc.pid,
                    budget=self.timeout,
                    elapsed=round(now - state.started, 3),
                )
                if ticket in self._tasks:
                    from repro.batch.records import RECORD_SCHEMA_VERSION

                    task = self._tasks[ticket]
                    record = {
                        "path": task.path,
                        "status": "timeout",
                        "schema_version": RECORD_SCHEMA_VERSION,
                        "graceful": False,
                        "elapsed_seconds": round(now - state.started, 6),
                        "attempts": self._attempts[ticket],
                    }
                    aborted = _synthesize_aborted_span(
                        task, state.started_unix
                    )
                    if aborted is not None:
                        record["trace_id"] = aborted["trace_id"]
                        record["trace_spans"] = [aborted]
                    self._finalize(ticket)
                    done.append((ticket, record))
            elif not state.proc.is_alive():
                reaped = self._reap(worker_id)
                if reaped is not None:
                    done.append(reaped)


def run_batch(tasks: Iterable[Task], **pool_options) -> List[dict]:
    """Convenience wrapper: run a pool to completion, return all records."""
    return list(BatchPool(**pool_options).run(tasks))
