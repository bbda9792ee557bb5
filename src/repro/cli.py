"""Command line interface: ``python -m repro <command>``.

Commands
--------
deobfuscate FILE [--no-rename] [--no-reformat] [--show-layers] [--timeout S]
    Deobfuscate a script and print the result; ``--stats`` adds the
    run's telemetry profile on stderr; ``--policy NAME`` selects the
    sandbox policy preset (:mod:`repro.policy`) piece recovery runs
    under; ``--language NAME`` selects the language front end
    (:mod:`repro.frontend`; ``powershell`` by default).
languages
    List the registered language front ends with their aliases, file
    extensions and capability flags; ``--json`` emits the same table
    machine-readably.
batch INPUT... [--jobs N] [--timeout S] [--output FILE] [--resume] ...
    Deobfuscate a whole corpus across a worker-process pool, streaming
    one JSONL record per sample plus an aggregate summary; ``--dedup``
    runs each unique content hash once and reuses the result.
serve [--host H] [--port P] [--jobs N] [--timeout S] [--queue-limit N]
    Run the long-running HTTP deobfuscation service: asyncio front
    end, persistent worker fleet with optional queue-depth
    autoscaling (``--max-jobs``), sharded content-addressed result
    cache with single-flight dedup and optional disk persistence
    (``--cache-dir`` snapshots + journal, warm-start on restart),
    backpressure (429 with jittered Retry-After) when the admission
    queue fills, /healthz, Prometheus /metrics and the live /statusz
    rolling-window status page, graceful drain on SIGTERM;
    ``--log-file``/``--log-level`` configure the structured event log
    (:mod:`repro.obs.log`).
fleet --instances N [--port P] [serve flags...]
    Run N serve instances behind a consistent-hash router: requests
    route deterministically by script SHA-256 (rendezvous fallback
    when an instance dies), /metrics and /statusz aggregate across
    instances, /healthz reports per-instance readiness; the serve log
    flags are forwarded (each instance logs to
    ``LOG_FILE.instance-K``).
top [--url URL] [--interval S] [--once] [--limit N]
    Live console over a service or fleet ``/statusz`` endpoint:
    rolling 1m/5m/15m request/error/divergence rates, cache-hit
    ratio, latency p50/p95 with the slowest request's trace id,
    pool/queue state, per-language latency and the recent event tail;
    ``--once`` prints a single snapshot and exits.
logs FILE [--follow] [--level L] [--logger PREFIX] [--trace ID] [--tail N]
    Tail and filter a structured JSONL event log written by
    ``--log-file``: by minimum level, logger-name prefix, or trace-id
    prefix; ``--json`` re-emits the matching raw lines for tooling,
    ``--follow`` keeps reading as the file grows.
trace FILE [--check] [--summary] [--id PREFIX]
    Render per-request waterfalls from a span JSONL file written by
    ``--trace-out`` (``deobfuscate``/``batch``/``serve``); ``--check``
    validates span schema and parent linkage instead, for CI gates.
profile FILE [--json] [--timeout S]
    Deobfuscate once and print the telemetry profile (per-phase spans,
    recovery outcomes, tracing hits) instead of the script.
verify FILE [--json] [--fail-on-divergent] [--step-limit N]
    Deobfuscate, then differentially execute the original and the
    result in the recording sandbox and judge semantic equivalence
    (equivalent / divergent with a minimal event diff / inconclusive);
    the check dispatches through the run's ``--language`` front end.
score FILE
    Print the detected obfuscation techniques and the score.
keyinfo FILE
    Print URLs, IPs, .ps1 paths and powershell commands found.
behavior FILE
    Execute in the recording sandbox and print network effects.
report FILE
    Full triage report: deobfuscation + score + behaviour + key info.
tokenize FILE
    Dump the PSParser-style token stream.
parse FILE
    Dump the AST.

``repro --version`` prints the installed package version (also
reported by the service's ``/healthz`` and in batch JSONL headers).

Every command is documented with examples in ``docs/cli.md``; the test
suite enforces that the docs cover each registered subcommand.
"""

import argparse
import sys
import time


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8", errors="replace") as handle:
        return handle.read()


def _policy_name(value: str) -> str:
    """argparse type for ``--policy``: normalize and validate a preset
    name, so ``Verify_Observing`` means ``verify-observing``."""
    from repro.policy import PRESET_NAMES, normalize_policy_name
    from repro.policy.presets import PRESETS

    name = normalize_policy_name(value)
    if name not in PRESETS:
        raise argparse.ArgumentTypeError(
            f"unknown policy {value!r}; expected one of "
            + ", ".join(PRESET_NAMES)
        )
    return name


def _add_policy_flag(parser) -> None:
    """The shared ``--policy NAME`` flag (sandbox policy preset)."""
    from repro.policy import PRESET_NAMES

    parser.add_argument(
        "--policy", metavar="NAME", default=None, type=_policy_name,
        help="sandbox policy preset for script evaluation: "
        + ", ".join(PRESET_NAMES)
        + " (default: recovery-strict)",
    )


def _language_name(value: str) -> str:
    """argparse type for ``--language``: canonicalize a front-end name
    (``ps1`` means ``powershell``, ``javascript`` means ``js``)."""
    from repro.frontend import FrontendError, normalize_language

    try:
        return normalize_language(value)
    except FrontendError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _add_language_flag(parser) -> None:
    """The shared ``--language NAME`` flag (language front end)."""
    from repro.frontend import frontend_names

    parser.add_argument(
        "--language", metavar="NAME", default=None, type=_language_name,
        help="language front end to parse and recover with: "
        + ", ".join(frontend_names())
        + " (default: powershell; see `repro languages`)",
    )


def _add_log_flags(parser) -> None:
    """The shared event-log flags (``serve``/``fleet``)."""
    parser.add_argument(
        "--log-file", metavar="FILE", default=None,
        help="append structured JSONL events here (read them with "
        "`repro logs FILE`); the in-memory ring behind /statusz is "
        "always on",
    )
    parser.add_argument(
        "--log-level", metavar="LEVEL", default="info",
        choices=("debug", "info", "warning", "error"),
        help="event-log threshold (default: info)",
    )


def _export_trace(args, recorder) -> None:
    if not args.trace_out:
        return
    from repro.obs.export import SpanExporter

    with SpanExporter(args.trace_out, service_name="repro-cli") as out:
        out.export(recorder.spans)
    print(
        f"trace     : {recorder.trace_id} -> {args.trace_out}",
        file=sys.stderr,
    )


def _cmd_deobfuscate(args) -> int:
    from repro import Deobfuscator, PipelineOptions
    from repro.obs import SpanRecorder

    # A CLI-rooted trace: its spans feed --trace-out and --stats.
    recorder = SpanRecorder(process="cli")
    tool = Deobfuscator(options=PipelineOptions.from_cli_args(args))
    result = tool.deobfuscate(_read(args.file), recorder=recorder)
    _export_trace(args, recorder)
    if not result.valid_input:
        print(
            f"error: input is not a valid {tool.frontend.name} script",
            file=sys.stderr,
        )
        print(result.script)
        return 1
    if result.timed_out:
        print("warning: deadline hit, output is a partial result",
              file=sys.stderr)
    if args.show_layers:
        for index, layer in enumerate(result.layers):
            print(f"# --- layer {index + 1} ---")
            print(layer)
        print("# --- final ---")
    print(result.script)
    if args.stats:
        from repro.obs import render_profile

        print(render_profile(result, recorder), file=sys.stderr)
    return 0


def _cmd_profile(args) -> int:
    import json

    from repro import Deobfuscator, PipelineOptions
    from repro.obs import SpanRecorder, render_profile

    recorder = SpanRecorder()
    tool = Deobfuscator(options=PipelineOptions.from_cli_args(args))
    result = tool.deobfuscate(_read(args.file), recorder=recorder)
    if args.json:
        payload = {
            "valid_input": result.valid_input,
            "timed_out": result.timed_out,
            "changed": result.changed,
            "iterations": result.iterations,
            "layers_unwrapped": result.layers_unwrapped,
            "elapsed_seconds": round(result.elapsed_seconds, 6),
            "stats": result.stats.to_dict(),
        }
        print(json.dumps(payload, sort_keys=True))
    else:
        print(render_profile(result, recorder))
    return 0 if result.valid_input else 1


def _dedup_groups(paths):
    """Group paths by content hash: ``{first_path: [duplicate, ...]}``.

    Unreadable files land in their own group (the pool will surface
    the read error per-sample).  Returns the kept (first-seen) paths
    in input order plus the duplicates map.
    """
    import hashlib

    first_by_digest = {}
    duplicates = {}
    kept = []
    for path in paths:
        try:
            with open(path, "rb") as handle:
                digest = hashlib.sha256(handle.read()).hexdigest()
        except OSError:
            digest = None
        if digest is not None and digest in first_by_digest:
            duplicates.setdefault(first_by_digest[digest], []).append(path)
            continue
        if digest is not None:
            first_by_digest[digest] = path
        kept.append(path)
    return kept, duplicates


def _export_batch_trace(exporter, sample_spans, record) -> None:
    """Close the sample's parent span and export both sides of its
    trace; the worker spans are popped off the JSONL record (the
    ``trace_id`` stays so summaries can cite exemplars)."""
    worker_spans = record.pop("trace_spans", None)
    entry = sample_spans.pop(record.get("path"), None)
    if entry is not None:
        recorder, span = entry
        status = {"error": "error", "timeout": "aborted"}.get(
            record.get("status"), "ok"
        )
        recorder.end(span, status=status)
        exporter.export(recorder.spans)
    if worker_spans:
        exporter.export_dicts(worker_spans)


def _cmd_batch(args) -> int:
    from repro.batch import (
        BatchPool,
        ResultWriter,
        batch_header,
        completed_paths,
        discover,
        make_tasks,
        render_summary,
        summarize,
    )

    paths = discover(args.inputs, glob=args.glob)
    if not paths:
        print("error: no samples found", file=sys.stderr)
        return 1

    skipped = 0
    if args.resume:
        if not args.output:
            print("error: --resume requires --output", file=sys.stderr)
            return 2
        done = completed_paths(args.output)
        kept = [path for path in paths if path not in done]
        skipped = len(paths) - len(kept)
        paths = kept

    duplicates = {}
    if args.dedup:
        paths, duplicates = _dedup_groups(paths)

    from repro import PipelineOptions

    tasks = make_tasks(
        paths,
        options=PipelineOptions.from_cli_args(args),
        store_script=args.store_scripts,
        verify=args.verify,
    )

    from repro.batch.task import resolve_worker

    try:
        resolve_worker(args.worker)
    except Exception as exc:  # noqa: BLE001 — import/spec errors vary
        print(f"error: invalid --worker {args.worker!r}: {exc}",
              file=sys.stderr)
        return 2

    exporter = None
    sample_spans = {}
    if args.trace_out:
        from repro.obs.export import SpanExporter
        from repro.obs.trace import SpanRecorder, TraceContext

        exporter = SpanExporter(args.trace_out, service_name="repro-batch")
        # One trace per sample, rooted in this (parent) process: the
        # ``batch_sample`` span opens at submission, so queueing time
        # shows up as the gap before the worker span in the waterfall.
        for task in tasks:
            recorder = SpanRecorder(
                context=TraceContext.new(), process="batch"
            )
            span = recorder.begin("batch_sample", path=task.path)
            task.trace = recorder.current_context().child().to_dict()
            sample_spans[task.path] = (recorder, span)

    pool = BatchPool(
        jobs=args.jobs,
        timeout=args.timeout,
        retries=args.retries,
        worker=args.worker,
    )
    writer = (
        ResultWriter(path=args.output)
        if args.output
        else ResultWriter(stream=sys.stdout)
    )
    records = []
    started = time.monotonic()
    with writer:
        writer.write(batch_header(dedup=bool(args.dedup)))
        for record in pool.run(tasks):
            if exporter is not None:
                _export_batch_trace(exporter, sample_spans, record)
            writer.write(record)
            records.append(record)
            for duplicate in duplicates.get(record["path"], ()):
                copy = dict(record)
                copy["path"] = duplicate
                copy["cache_hit"] = True
                writer.write(copy)
                records.append(copy)
    wall = time.monotonic() - started
    if exporter is not None:
        exporter.close()
        print(
            f"trace     : {exporter.exported} spans -> {args.trace_out}",
            file=sys.stderr,
        )

    summary = summarize(
        records, wall_seconds=wall, worker_restarts=pool.restarts
    )
    summary_out = sys.stdout if args.output else sys.stderr
    if skipped:
        print(f"resumed   : {skipped} samples already done, skipped",
              file=summary_out)
    print(render_summary(summary), file=summary_out)
    failures = summary["status_counts"]["error"]
    return 0 if not failures or args.exit_zero else 3


def _cmd_serve(args) -> int:
    from repro.obs.log import configure_logging
    from repro.service import ServiceConfig
    from repro.service.aserver import run_async_server

    # The service always runs with the event log on: the ring buffer
    # feeds /statusz's tail, the optional file sink feeds `repro logs`.
    configure_logging(level=args.log_level, path=args.log_file)
    default_options = {
        "rename": not args.no_rename,
        "reformat": not args.no_reformat,
    }
    if args.policy:
        default_options["policy"] = args.policy
    if args.language:
        default_options["language"] = args.language
    config = ServiceConfig(
        jobs=args.jobs or 2,
        timeout=args.timeout,
        queue_limit=args.queue_limit,
        cache_max_entries=args.cache_entries,
        cache_max_bytes=args.cache_bytes,
        cache_dir=args.cache_dir,
        max_jobs=args.max_jobs,
        default_options=default_options,
        worker=args.worker,
        trace_path=args.trace_out,
    )
    return run_async_server(
        config,
        host=args.host,
        port=args.port,
        port_file=args.port_file,
        quiet=not args.access_log,
    )


def _cmd_fleet(args) -> int:
    from repro.obs.log import configure_logging
    from repro.service.fleet import run_fleet

    # Router-side event log (routing/failover decisions); instances
    # get the same flags forwarded, each with its own file suffix.
    configure_logging(level=args.log_level, path=args.log_file)
    serve_args = [
        "--jobs", str(args.jobs),
        "--timeout", str(args.timeout),
        "--queue-limit", str(args.queue_limit),
        "--cache-entries", str(args.cache_entries),
        "--cache-bytes", str(args.cache_bytes),
        "--log-level", args.log_level,
    ]
    if args.max_jobs:
        serve_args += ["--max-jobs", str(args.max_jobs)]
    if args.no_rename:
        serve_args.append("--no-rename")
    if args.no_reformat:
        serve_args.append("--no-reformat")
    if args.policy:
        serve_args += ["--policy", args.policy]
    if args.language:
        serve_args += ["--language", args.language]
    if args.worker != "repro.batch.task:run_one":
        serve_args += ["--worker", args.worker]
    return run_fleet(
        args.instances,
        host=args.host,
        port=args.port,
        port_file=args.port_file,
        serve_args=serve_args,
        cache_root=args.cache_root,
        workdir=args.workdir,
        quiet=not args.access_log,
        serve_log_file=args.log_file,
    )


def _format_event_line(data) -> str:
    """One human-readable line for a serialized LogEvent dict."""
    stamp = time.strftime(
        "%H:%M:%S", time.localtime(float(data.get("ts") or 0.0))
    )
    level = str(data.get("level", "info")).upper()
    fields = data.get("fields") or {}
    extras = " ".join(
        f"{key}={value}" for key, value in sorted(fields.items())
    )
    trace = data.get("trace_id")
    parts = [
        stamp,
        f"{level:<7}",
        f"{data.get('logger', ''):<18}",
        str(data.get("message", "")),
    ]
    if extras:
        parts.append(extras)
    if trace:
        parts.append(f"trace={trace}")
    return " ".join(parts)


def _render_statusz(url: str, payload, tail_limit: int = 8) -> str:
    """The ``repro top`` frame for one ``/statusz`` payload."""
    lines = []
    pool = payload.get("pool") or {}
    queue = payload.get("queue") or {}
    restarts = pool.get("restarts") or {}
    restart_text = (
        " ".join(f"{k}={v}" for k, v in sorted(restarts.items()))
        or "none"
    )
    lines.append(
        f"repro top — {url}  instances={payload.get('instances', 1)}  "
        f"uptime={payload.get('uptime_seconds', 0):.0f}s  "
        f"draining={'yes' if payload.get('draining') else 'no'}"
    )
    lines.append(
        f"pool: workers={pool.get('workers', 0)}/"
        f"{pool.get('size', 0)} (restarts: {restart_text})  "
        f"queue: {queue.get('depth', 0)}/{queue.get('limit', 0)}  "
        f"cache-hit: {payload.get('cache_hit_ratio', 0.0):.1%}"
    )
    lines.append("")
    lines.append(
        f"{'window':<8}{'req':>7}{'rate/s':>9}{'err%':>7}{'div%':>7}"
        f"{'cache%':>8}{'p50ms':>9}{'p95ms':>9}  slowest trace"
    )
    windows = payload.get("windows") or {}
    for name in ("1m", "5m", "15m"):
        entry = windows.get(name)
        if not entry:
            continue
        exemplar = (entry.get("exemplar") or {}).get("trace_id", "-")
        lines.append(
            f"{name:<8}{entry.get('requests', 0):>7}"
            f"{entry.get('request_rate', 0.0):>9.2f}"
            f"{entry.get('error_rate', 0.0) * 100:>7.1f}"
            f"{entry.get('divergence_rate', 0.0) * 100:>7.1f}"
            f"{entry.get('cache_hit_ratio', 0.0) * 100:>8.1f}"
            f"{entry.get('latency_p50_ms', 0.0):>9.1f}"
            f"{entry.get('latency_p95_ms', 0.0):>9.1f}  {exemplar}"
        )
    latency_by = payload.get("latency_by") or {}
    if latency_by:
        lines.append("")
        lines.append("latency by language|policy:")
        for label, entry in sorted(latency_by.items()):
            lines.append(
                f"  {label:<36} n={entry.get('count', 0):<7} "
                f"p50={entry.get('p50_ms', 0.0):.1f}ms "
                f"p95={entry.get('p95_ms', 0.0):.1f}ms"
            )
    techniques = payload.get("techniques_top") or []
    if techniques:
        lines.append("")
        lines.append(
            "techniques: "
            + " ".join(
                f"{row['technique']}={row['count']}"
                for row in techniques
            )
        )
    tail = payload.get("log_tail") or []
    if tail:
        lines.append("")
        lines.append("recent events:")
        for event in tail[-max(1, tail_limit):]:
            lines.append("  " + _format_event_line(event))
    return "\n".join(lines)


def _cmd_top(args) -> int:
    import json
    import urllib.error
    import urllib.request

    url = (args.url or f"http://127.0.0.1:{args.port}").rstrip("/")

    def fetch():
        with urllib.request.urlopen(
            url + "/statusz", timeout=10.0
        ) as response:
            return json.loads(response.read())

    while True:
        try:
            payload = fetch()
        except (OSError, ValueError, urllib.error.URLError) as exc:
            print(f"error: cannot fetch {url}/statusz: {exc}",
                  file=sys.stderr)
            if args.once:
                return 1
            time.sleep(args.interval)
            continue
        frame = _render_statusz(url, payload, tail_limit=args.limit)
        if args.once:
            print(frame)
            return 0
        # Clear + home, like top(1); one frame per interval.
        sys.stdout.write("\x1b[2J\x1b[H" + frame + "\n")
        sys.stdout.flush()
        try:
            time.sleep(args.interval)
        except KeyboardInterrupt:  # pragma: no cover - interactive
            return 0


def _cmd_logs(args) -> int:
    import json

    from repro.obs.log import LEVELS, iter_events

    threshold = LEVELS[args.level] if args.level else 0

    def matches(event) -> bool:
        if LEVELS.get(event.level, 0) < threshold:
            return False
        if args.logger and not event.logger.startswith(args.logger):
            return False
        if args.trace and not (
            event.trace_id or ""
        ).startswith(args.trace):
            return False
        return True

    def emit(event) -> None:
        if args.json:
            print(json.dumps(event.to_dict(), sort_keys=True))
        else:
            print(_format_event_line(event.to_dict()))

    try:
        matched = [e for e in iter_events(args.file) if matches(e)]
    except OSError as exc:
        print(f"error: cannot read {args.file}: {exc}", file=sys.stderr)
        return 1
    if args.tail:
        matched = matched[-args.tail:]
    for event in matched:
        emit(event)
    if not args.follow:
        return 0
    # Follow mode: poll for appended lines (rotation aside — a rotated
    # file keeps its old handle; restart `repro logs` to pick up the
    # fresh one).
    from repro.obs.log import LogEvent

    with open(args.file, "r", encoding="utf-8") as handle:
        handle.seek(0, 2)
        try:
            while True:
                line = handle.readline()
                if not line:
                    time.sleep(0.25)
                    continue
                line = line.strip()
                if not line:
                    continue
                try:
                    data = json.loads(line)
                except ValueError:
                    continue
                if not isinstance(data, dict):
                    continue
                event = LogEvent.from_dict(data)
                if matches(event):
                    emit(event)
        except KeyboardInterrupt:  # pragma: no cover - interactive
            return 0


def _cmd_trace(args) -> int:
    from repro.obs.export import (
        read_raw_lines,
        read_spans,
        render_waterfall,
        summarize_traces,
        validate_spans,
    )

    try:
        raw = read_raw_lines(args.file)
    except OSError as exc:
        print(f"error: cannot read {args.file}: {exc}", file=sys.stderr)
        return 1
    if not raw:
        print(f"error: no spans in {args.file}", file=sys.stderr)
        return 1

    if args.check:
        problems = validate_spans(raw)
        traces = len({line.get("traceId") for line in raw})
        if problems:
            for problem in problems:
                print(problem, file=sys.stderr)
            print(
                f"error: {len(problems)} problem(s) across {len(raw)} "
                f"span(s)",
                file=sys.stderr,
            )
            return 5
        print(f"ok: {len(raw)} span(s) in {traces} trace(s), "
              f"schema version consistent, parentage intact")
        return 0

    spans = read_spans(args.file)
    if args.id:
        spans = [s for s in spans if s.trace_id.startswith(args.id)]
        if not spans:
            print(f"error: no trace matching {args.id!r}", file=sys.stderr)
            return 1
    if args.summary:
        for trace_id, count, wall in summarize_traces(spans):
            print(f"{trace_id}  {count:>4} span(s)  {wall * 1000:9.1f}ms")
    else:
        print(render_waterfall(spans), end="")
    return 0


def _cmd_verify(args) -> int:
    import json

    from repro import Deobfuscator, PipelineOptions

    tool = Deobfuscator(options=PipelineOptions.from_cli_args(args))
    result = tool.deobfuscate(_read(args.file))
    # The differential executions default to verify-observing; an
    # explicit --policy applies to them as well as to the pipeline.
    # Each front end brings its own differential runner (PowerShell:
    # repro.verify; JS: repro.frontend.js.runner).
    verdict = tool.frontend.verify(
        result, step_limit=args.step_limit, policy=args.policy
    )

    if args.json:
        payload = verdict.to_dict()
        payload["changed"] = result.changed
        print(json.dumps(payload, sort_keys=True))
    else:
        print(f"verdict   : {verdict.verdict}")
        if verdict.reason:
            print(f"reason    : {verdict.reason}")
        print(
            f"events    : original={verdict.original_events} "
            f"deobfuscated={verdict.candidate_events}"
        )
        for line in verdict.diff:
            print(f"  {line}")
    if verdict.verdict == "divergent" and args.fail_on_divergent:
        return 4
    return 0


def _cmd_languages(args) -> int:
    import json

    from repro.frontend import available_frontends

    rows = [frontend.describe() for frontend in available_frontends()]
    if args.json:
        print(json.dumps(rows, sort_keys=True))
        return 0
    for row in rows:
        capabilities = " ".join(
            f"{name}={'yes' if on else 'no'}"
            for name, on in sorted(row["capabilities"].items())
        )
        aliases = ", ".join(row["aliases"]) or "-"
        extensions = " ".join(row["file_extensions"]) or "-"
        print(f"{row['id']:<12} {row['name']}")
        print(f"{'':<12} aliases: {aliases}")
        print(f"{'':<12} extensions: {extensions}")
        print(f"{'':<12} {capabilities}")
    return 0


def _cmd_score(args) -> int:
    from repro.scoring import score_script
    from repro.scoring.detectors import TECHNIQUE_LEVELS

    report = score_script(_read(args.file))
    for name in sorted(report.techniques):
        print(f"L{TECHNIQUE_LEVELS[name]} {name}")
    print(f"score: {report.score}")
    return 0


def _cmd_keyinfo(args) -> int:
    from repro.analysis import extract_key_info

    info = extract_key_info(_read(args.file))
    for label, values in (
        ("url", info.urls),
        ("ip", info.ips),
        ("ps1", info.ps1_files),
        ("powershell", info.powershell_commands),
    ):
        for value in sorted(values):
            print(f"{label}\t{value}")
    return 0


def _cmd_behavior(args) -> int:
    from repro.verify import observe_behavior

    report = observe_behavior(
        _read(args.file), collect_events=False, policy=args.policy
    )
    for effect in report.effects:
        print(f"{effect.kind}\t{effect.target}")
    if report.audit is not None:
        for capability, count in sorted(
            report.audit.denial_counts().items()
        ):
            print(f"denied:{capability}\t{count}", file=sys.stderr)
    if report.error:
        print(f"error: {report.error}", file=sys.stderr)
    return 0


def _cmd_report(args) -> int:
    from repro.analysis.report import build_report

    report = build_report(_read(args.file))
    print(report.render())
    return 0


def _cmd_tokenize(args) -> int:
    from repro.pslang import tokenize

    for token in tokenize(_read(args.file)):
        print(
            f"{token.start:>6} {token.length:>4} "
            f"{token.type.value:<20} {token.content!r}"
        )
    return 0


def _cmd_parse(args) -> int:
    from repro.pslang import parse

    source = _read(args.file)
    ast = parse(source)

    def dump(node, depth=0):
        text = source[node.start:node.end]
        preview = repr(text[:50])
        print(f"{'  ' * depth}{node.type_name} {preview}")
        for child in node.children():
            dump(child, depth + 1)

    dump(ast)
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Build the ``repro`` argument parser (exposed for docs tooling)."""
    from repro import package_version

    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Invoke-Deobfuscation (DSN 2022) reproduction: AST-based, "
            "semantics-preserving PowerShell deobfuscation"
        ),
    )
    parser.add_argument(
        "--version", action="version",
        version=f"%(prog)s {package_version()}",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("deobfuscate", help="deobfuscate a script")
    p.add_argument("file", help="script path, or - for stdin")
    p.add_argument("--no-rename", action="store_true")
    p.add_argument("--no-reformat", action="store_true")
    p.add_argument("--show-layers", action="store_true")
    p.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="cooperative deadline; on expiry print the partial result",
    )
    p.add_argument(
        "--stats", action="store_true",
        help="print the run's telemetry profile to stderr",
    )
    p.add_argument(
        "--trace-out", metavar="FILE", default=None,
        help="append the run's trace spans to FILE as OTel-style JSONL "
        "(render with `repro trace FILE`)",
    )
    _add_policy_flag(p)
    _add_language_flag(p)
    p.set_defaults(func=_cmd_deobfuscate)

    p = sub.add_parser(
        "languages",
        help="list the registered language front ends",
    )
    p.add_argument(
        "--json", action="store_true",
        help="emit the table as machine-readable JSON",
    )
    p.set_defaults(func=_cmd_languages)

    p = sub.add_parser(
        "profile",
        help="deobfuscate once and print the telemetry profile",
    )
    p.add_argument("file", help="script path, or - for stdin")
    p.add_argument(
        "--json", action="store_true",
        help="emit machine-readable JSON instead of the text profile",
    )
    p.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="cooperative deadline; a timed-out run still reports the "
        "spans of every phase that ran",
    )
    p.add_argument("--no-rename", action="store_true")
    p.add_argument("--no-reformat", action="store_true")
    p.set_defaults(func=_cmd_profile)

    p = sub.add_parser(
        "batch",
        help="deobfuscate a corpus across a worker pool, streaming JSONL",
    )
    p.add_argument(
        "inputs", nargs="+",
        help="directories (searched for --glob), files, or - for a "
        "newline-separated path list on stdin",
    )
    p.add_argument(
        "--jobs", "-j", type=int, default=None, metavar="N",
        help="worker processes (default: CPU count)",
    )
    p.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="per-sample wall-clock budget; over-budget samples are "
        "recorded as status=timeout",
    )
    p.add_argument(
        "--output", "-o", metavar="FILE",
        help="append JSONL records here instead of stdout",
    )
    p.add_argument(
        "--resume", action="store_true",
        help="skip samples already recorded in --output",
    )
    p.add_argument(
        "--retries", type=int, default=1, metavar="N",
        help="re-queue a sample whose worker crashed up to N times",
    )
    p.add_argument(
        "--glob", default="*.ps1", metavar="PATTERN",
        help="filename pattern for directory inputs (default: *.ps1)",
    )
    p.add_argument(
        "--store-scripts", action="store_true",
        help="embed the deobfuscated script in each record",
    )
    p.add_argument(
        "--dedup", action="store_true",
        help="hash each sample and run each unique content once; "
        "duplicates reuse the first result (cache_hit: true)",
    )
    p.add_argument("--no-rename", action="store_true")
    p.add_argument("--no-reformat", action="store_true")
    p.add_argument(
        "--verify", action="store_true",
        help="differentially verify each sample's deobfuscation "
        "(semantic-equivalence verdict in every record and in the "
        "summary)",
    )
    p.add_argument(
        "--exit-zero", action="store_true",
        help="exit 0 even when samples errored (default: exit 3)",
    )
    p.add_argument(
        "--worker", default="repro.batch.task:run_one",
        metavar="MODULE:FUNC",
        help="per-sample worker function (advanced; used by the tests "
        "to inject faults)",
    )
    p.add_argument(
        "--trace-out", metavar="FILE", default=None,
        help="export one trace per sample (parent batch_sample span + "
        "the worker's pipeline spans) to FILE as JSONL",
    )
    _add_policy_flag(p)
    _add_language_flag(p)
    p.set_defaults(func=_cmd_batch)

    p = sub.add_parser(
        "serve",
        help="run the long-running HTTP deobfuscation service",
    )
    p.add_argument(
        "--host", default="127.0.0.1",
        help="bind address (default: 127.0.0.1)",
    )
    p.add_argument(
        "--port", type=int, default=8765,
        help="bind port; 0 picks an ephemeral port (default: 8765)",
    )
    p.add_argument(
        "--port-file", metavar="FILE", default=None,
        help="write the bound port here once listening (for scripts "
        "that use --port 0)",
    )
    p.add_argument(
        "--jobs", "-j", type=int, default=2, metavar="N",
        help="persistent worker processes (default: 2)",
    )
    p.add_argument(
        "--timeout", type=float, default=30.0, metavar="SECONDS",
        help="per-request worker budget; hung requests are SIGKILLed "
        "past it (default: 30)",
    )
    p.add_argument(
        "--queue-limit", type=int, default=64, metavar="N",
        help="max queued+running pipeline executions before requests "
        "get 429 Retry-After (default: 64)",
    )
    p.add_argument(
        "--cache-entries", type=int, default=4096, metavar="N",
        help="result cache capacity in entries; 0 disables storage "
        "(default: 4096)",
    )
    p.add_argument(
        "--cache-bytes", type=int, default=256 * 1024 * 1024, metavar="B",
        help="result cache byte budget (default: 256 MiB)",
    )
    p.add_argument(
        "--cache-dir", metavar="DIR", default=None,
        help="persist the result cache here (snapshot + append-only "
        "journal); a restarted instance warm-starts from it",
    )
    p.add_argument(
        "--max-jobs", type=int, default=None, metavar="N",
        help="autoscale the worker pool between --jobs and N on "
        "admission queue depth (default: no autoscaling)",
    )
    p.add_argument(
        "--access-log", action="store_true",
        help="log one line per HTTP request to stderr",
    )
    p.add_argument("--no-rename", action="store_true")
    p.add_argument("--no-reformat", action="store_true")
    p.add_argument(
        "--worker", default="repro.batch.task:run_one",
        metavar="MODULE:FUNC",
        help="per-request worker function (advanced; used by the "
        "tests to inject faults)",
    )
    p.add_argument(
        "--trace-out", metavar="FILE", default=None,
        help="export every request's trace spans to FILE as JSONL "
        "(requests always carry a trace_id; this enables the file)",
    )
    _add_log_flags(p)
    _add_policy_flag(p)
    _add_language_flag(p)
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser(
        "fleet",
        help="run N serve instances behind a consistent-hash router",
    )
    p.add_argument(
        "--instances", "-n", type=int, default=2, metavar="N",
        help="service instances to spawn (default: 2)",
    )
    p.add_argument(
        "--host", default="127.0.0.1",
        help="router bind address (default: 127.0.0.1)",
    )
    p.add_argument(
        "--port", type=int, default=8765,
        help="router bind port; 0 picks an ephemeral port "
        "(default: 8765)",
    )
    p.add_argument(
        "--port-file", metavar="FILE", default=None,
        help="write the router's bound port here once listening",
    )
    p.add_argument(
        "--cache-root", metavar="DIR", default=None,
        help="root for per-instance persisted caches "
        "(DIR/instance-K; default: under the fleet workdir)",
    )
    p.add_argument(
        "--workdir", metavar="DIR", default=None,
        help="working directory for port files and instance logs "
        "(default: a temp dir)",
    )
    p.add_argument(
        "--jobs", "-j", type=int, default=2, metavar="N",
        help="worker processes per instance (default: 2)",
    )
    p.add_argument(
        "--max-jobs", type=int, default=None, metavar="N",
        help="per-instance worker-pool autoscale ceiling",
    )
    p.add_argument(
        "--timeout", type=float, default=30.0, metavar="SECONDS",
        help="per-request worker budget per instance (default: 30)",
    )
    p.add_argument(
        "--queue-limit", type=int, default=64, metavar="N",
        help="per-instance admission queue limit (default: 64)",
    )
    p.add_argument(
        "--cache-entries", type=int, default=4096, metavar="N",
        help="per-instance result cache entries (default: 4096)",
    )
    p.add_argument(
        "--cache-bytes", type=int, default=256 * 1024 * 1024, metavar="B",
        help="per-instance result cache byte budget (default: 256 MiB)",
    )
    p.add_argument(
        "--access-log", action="store_true",
        help="log one line per routed request to stderr",
    )
    p.add_argument("--no-rename", action="store_true")
    p.add_argument("--no-reformat", action="store_true")
    p.add_argument(
        "--worker", default="repro.batch.task:run_one",
        metavar="MODULE:FUNC",
        help="per-request worker function for every instance",
    )
    _add_log_flags(p)
    _add_policy_flag(p)
    _add_language_flag(p)
    p.set_defaults(func=_cmd_fleet)

    p = sub.add_parser(
        "top",
        help="live console over a service/fleet /statusz endpoint",
    )
    p.add_argument(
        "--url", metavar="URL", default=None,
        help="service or fleet base URL "
        "(default: http://127.0.0.1:PORT)",
    )
    p.add_argument(
        "--port", type=int, default=8765,
        help="port for the default URL (default: 8765)",
    )
    p.add_argument(
        "--interval", type=float, default=2.0, metavar="SECONDS",
        help="refresh interval (default: 2)",
    )
    p.add_argument(
        "--once", action="store_true",
        help="print one snapshot and exit instead of refreshing",
    )
    p.add_argument(
        "--limit", type=int, default=8, metavar="N",
        help="recent log events shown per frame (default: 8)",
    )
    p.set_defaults(func=_cmd_top)

    p = sub.add_parser(
        "logs",
        help="tail and filter a structured JSONL event log",
    )
    p.add_argument(
        "file",
        help="event log written by --log-file (serve/fleet)",
    )
    p.add_argument(
        "--follow", "-f", action="store_true",
        help="keep reading as the file grows (Ctrl-C to stop)",
    )
    p.add_argument(
        "--level", metavar="LEVEL", default=None,
        choices=("debug", "info", "warning", "error"),
        help="only events at or above this level",
    )
    p.add_argument(
        "--logger", metavar="PREFIX", default=None,
        help="only events from loggers starting with PREFIX "
        "(e.g. service.core, policy)",
    )
    p.add_argument(
        "--trace", metavar="ID", default=None,
        help="only events whose trace_id starts with ID",
    )
    p.add_argument(
        "--tail", type=int, default=None, metavar="N",
        help="only the last N matching events (before --follow)",
    )
    p.add_argument(
        "--json", action="store_true",
        help="re-emit matching events as raw JSON lines",
    )
    p.set_defaults(func=_cmd_logs)

    p = sub.add_parser(
        "trace",
        help="render or validate an exported span JSONL file",
    )
    p.add_argument("file", help="span JSONL written by --trace-out")
    p.add_argument(
        "--check", action="store_true",
        help="validate schema version, span ids and parent linkage "
        "instead of rendering; exit 5 on problems (for CI gates)",
    )
    p.add_argument(
        "--summary", action="store_true",
        help="one line per trace (id, span count, wall time) instead "
        "of full waterfalls",
    )
    p.add_argument(
        "--id", metavar="PREFIX", default=None,
        help="only render traces whose trace_id starts with PREFIX",
    )
    p.set_defaults(func=_cmd_trace)

    p = sub.add_parser(
        "verify",
        help="deobfuscate and differentially verify semantics "
        "preservation",
    )
    p.add_argument("file", help="script path, or - for stdin")
    p.add_argument(
        "--json", action="store_true",
        help="emit the machine-readable verdict instead of text",
    )
    p.add_argument(
        "--fail-on-divergent", action="store_true",
        help="exit 4 when the verdict is divergent (for CI gates)",
    )
    p.add_argument(
        "--step-limit", type=int, default=200_000, metavar="N",
        help="sandbox step budget for each differential execution "
        "(default: 200000)",
    )
    p.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="cooperative deadline for the deobfuscation pass",
    )
    p.add_argument("--no-rename", action="store_true")
    p.add_argument("--no-reformat", action="store_true")
    _add_policy_flag(p)
    _add_language_flag(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("score", help="score obfuscation techniques")
    p.add_argument("file")
    p.set_defaults(func=_cmd_score)

    p = sub.add_parser("keyinfo", help="extract key information")
    p.add_argument("file")
    p.set_defaults(func=_cmd_keyinfo)

    p = sub.add_parser("behavior", help="record sandboxed behaviour")
    p.add_argument("file")
    _add_policy_flag(p)
    p.set_defaults(func=_cmd_behavior)

    p = sub.add_parser(
        "report", help="full triage report (deobfuscate+score+behaviour)"
    )
    p.add_argument("file")
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("tokenize", help="dump tokens")
    p.add_argument("file")
    p.set_defaults(func=_cmd_tokenize)

    p = sub.add_parser("parse", help="dump the AST")
    p.add_argument("file")
    p.set_defaults(func=_cmd_parse)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
