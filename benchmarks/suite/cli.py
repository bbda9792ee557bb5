"""Command lines: the one-workload contract run, ``run`` and ``compare``."""

import argparse
import json
import sys
from typing import List, Optional

from . import compare, metrics, runner, workloads


def measure_main(argv: Optional[List[str]] = None) -> int:
    """``run.py --workload W --seed N --seconds S --trace 0|1``.

    Prints one JSON line: ``correct``, ``attempted``, ``failed`` and the
    ``BENCHMARK.json`` metrics (end-to-end untraced, per-layer traced).
    Exits 1 when a correctness check fails.
    """
    parser = argparse.ArgumentParser(prog="run.py")
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=runner.DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        measurement = runner.measure(
            args.workload, args.seed, args.seconds, trace=bool(args.trace)
        )
    except runner.WorkloadFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for problem in measurement.problems:
        print(f"incorrect: {problem}", file=sys.stderr)
    table = metrics.PER_LAYER if args.trace else metrics.END_TO_END
    line = runner.result_line(measurement, table)
    print(json.dumps(line))
    return 0 if measurement.correct else 1


def _print_metrics(workload: str, values: dict, table) -> None:
    for metric in table:
        if metric.name in values:
            value = values[metric.name]
            shown = "null" if value is None else f"{value:.6g}"
            print(f"  {workload:<11} {metric.name:<45} {shown:>12} {metric.unit}")


def run_main(args) -> int:
    report = {"seed": args.seed, "toy": args.toy, "workloads": {}}
    correct = True
    e2e_tables = (metrics.END_TO_END, metrics.EXTRA)
    layer_tables = (metrics.PER_LAYER, metrics.WORKLOAD_LAYER)
    for workload in workloads.WORKLOADS:
        plain = runner.measure(
            workload, args.seed, args.seconds, toy=args.toy
        )
        entry = {
            "correct": plain.correct,
            "problems": plain.problems,
            "attempted": plain.result["attempted"],
            "failed": plain.result["failed"],
            "truncated": plain.result["truncated"],
            "setup_samples": plain.setup_samples,
            "metrics": metrics.with_units(plain.metrics, *e2e_tables),
        }
        print(f"{workload}: {plain.result['attempted']} attempted, "
              f"{plain.result['failed']} failed, "
              f"{plain.result['wall_s']:.1f} s measured")
        for table in e2e_tables:
            _print_metrics(workload, plain.metrics, table)
        if args.trace:
            traced = runner.measure(
                workload, args.seed, args.seconds, trace=True, toy=args.toy
            )
            traced_rate = traced.result["completed"] / traced.result["wall_s"]
            overhead = plain.metrics["scripts_per_s"] / traced_rate - 1.0
            entry["per_layer"] = metrics.with_units(traced.metrics, *layer_tables)
            entry["trace_overhead_share"] = overhead
            entry["breakdown"] = metrics.breakdown(traced.result)
            entry["correct"] = entry["correct"] and traced.correct
            entry["problems"] += traced.problems
            for table in layer_tables:
                _print_metrics(workload, traced.metrics, table)
            print(f"  {workload:<11} {'trace overhead':<45} "
                  f"{overhead:>12.1%}")
        for problem in entry["problems"]:
            print(f"  incorrect: {problem}")
        correct = correct and entry["correct"]
        report["workloads"][workload] = entry
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=1, sort_keys=True)
    print("all checks passed" if correct else "CORRECTNESS CHECKS FAILED")
    return 0 if correct else 1


def compare_main(argv: List[str]) -> int:
    if "--" not in argv:
        print("usage: compare A.json... -- B.json...", file=sys.stderr)
        return 2
    split = argv.index("--")
    side_a, side_b = argv[:split], argv[split + 1:]
    if not side_a or not side_b:
        print("usage: compare A.json... -- B.json...", file=sys.stderr)
        return 2
    try:
        rows = compare.compare(
            compare.load_runs(side_a), compare.load_runs(side_b)
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(compare.render(rows))
    return 1 if any(row.verdict == "regressed" for row in rows) else 0


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["compare"]:
        return compare_main(argv[1:])
    parser = argparse.ArgumentParser(prog="python -m benchmarks.suite")
    commands = parser.add_subparsers(dest="command", required=True)
    run = commands.add_parser("run", help="measure every workload")
    run.add_argument("--seed", type=int, required=True)
    run.add_argument("--trace", action="store_true",
                     help="also run each workload traced for per-layer metrics")
    run.add_argument("--out", help="write the report as JSON (for compare)")
    run.add_argument("--seconds", type=float, default=runner.DEFAULT_SECONDS)
    run.add_argument("--toy", action="store_true",
                     help="a tiny corpus: checks the harness, not the program")
    commands.add_parser("compare", help="compare A.json... -- B.json...")
    args = parser.parse_args(argv)
    return run_main(args)
