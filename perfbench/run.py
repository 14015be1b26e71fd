"""Front-door benchmark of the LSM statistics cluster.

Usage (from the repository root)::

    python3 perfbench/run.py --workload bulk_ingest --seed 1 --seconds 10 --trace 0

Workloads: ``bulk_ingest``, ``estimate_mix``, ``churn``.  With
``--trace 0`` the run measures with no tracing and prints every
end-to-end metric; with ``--trace 1`` it runs the same work twice, once
untraced and once with spans around every layer, and prints the
per-layer metrics (the spans are written to ``.perfbench_out/``).  Each
run checks the program's outputs against the benchmark's own model.
The last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The program is imported from ``src/`` of the checkout this file sits
in; without it the run exits with an error before measuring anything.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import statistics
import sys
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"


def pin_to_one_cpu() -> None:
    """Keep the process, and the estimate service's worker thread, on
    one CPU.  Only one thread runs Python at a time anyway; on one CPU a
    hand-off between the two threads is a local context switch, and the
    worker runs at the speed the calibration kernel measures, instead of
    on whichever core the scheduler wakes up (unpinned, the round trip
    of a cached estimate through the service moved from 70 to 400 us
    between otherwise identical runs)."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def prepare_imports() -> None:
    """Put this checkout's program sources and the benchmark on the
    import path, refusing to fall back to any other installed copy."""
    package = ROOT / "src" / "repro"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"error: program sources not found under {package}")
    for path in (str(HERE), str(ROOT / "src")):
        if path not in sys.path:
            sys.path.insert(0, path)
    import repro

    if Path(repro.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"error: imported repro from {repro.__file__}, not {package}")


def execute(
    name: str, seed: int, seconds: float, trace: bool, scale: float = 1.0
) -> dict[str, Any]:
    """Run one workload and return the result object plus report lines."""
    from repro import MetricsRegistry, use_registry

    import report
    import workloads
    from calibration import Calibration
    from tracer import BALANCE_TOLERANCE, NULL_RECORDER, Recorder, clock

    workload = workloads.WORKLOADS[name](seed, seconds, scale)
    registry = MetricsRegistry()
    with use_registry(registry):
        if not trace:
            calibration = Calibration()
            workload.calibrate = calibration.sample
            workload.calibrate_tick = calibration.tick
            calibration.sample()
            setup_times = []
            for _ in range(workloads.SETUP_REPEATS):
                cluster = None
                gc.collect()
                started = clock()
                cluster = workload.setup()
                setup_times.append(clock() - started)
            calibration.sample()
            outcome = workload.run(cluster, NULL_RECORDER, registry)
            metrics, notes = report.end_to_end(
                outcome,
                statistics.median(setup_times),
                workloads.peak_rss_mb(),
                calibration.factor,
            )
            problems = outcome.problems
        else:
            untraced = workload.run(workload.setup(), NULL_RECORDER, registry)
            recorder = Recorder()
            with recorder.installed():
                cluster = workload.setup()
                recorder.probe = lambda: workloads.window_counters(cluster, registry)
                outcome = workload.run(cluster, recorder, registry)
            summary = recorder.analyse()
            problems = untraced.problems + outcome.problems + summary.problems
            problems += workload.trace_guards(summary, recorder.tallies)
            write_ops, written_bytes = workload.timed_writes()
            w = recorder.window
            window = {
                "tallies": recorder.tallies,
                "cache.hit": w["cache.merged.hit"],
                "cache.miss": w["cache.merged.miss"],
                "cache.invalidation": w["cache.merged.invalidation"],
                "lazy_merges": w["estimator.lazy_merge.count"],
                "pages_written": w["pages_written"],
                "pages_read": w["pages_read"],
                "bytes_written": w["bytes_written"],
                "user_bytes": written_bytes,
                "wire_bytes": w["network.bytes"],
                "write_ops": write_ops,
                "catalog_entries": outcome.counts["catalog_entries"],
                "catalog_anti_entries": outcome.counts["catalog_anti_entries"],
                "checkpoints": w["feed.cursor.checkpoints"],
                "replayed_ops": w["recovery.replayed.ops"],
                "range_estimates_changed": outcome.counts["range_estimates_changed"],
            }
            metrics = report.per_layer(
                summary,
                window,
                outcome.timed_seconds - untraced.timed_seconds,
                untraced.timed_seconds,
            )
            OUT_DIR.mkdir(exist_ok=True)
            spans_path = OUT_DIR / f"spans-{name}-seed{seed}.npz"
            recorder.write(str(spans_path))
            functions_path = OUT_DIR / f"functions-{name}-seed{seed}.json"
            functions_path.write_text(json.dumps(summary.per_function(), indent=1))
            notes = [
                f"spans: {summary.spans} written to {spans_path.relative_to(ROOT)}",
                f"calls, busy_s and self_s per function: {functions_path.relative_to(ROOT)}",
                f"balance: layer self + unattributed vs root time differ by "
                f"{summary.balance_error:.2e} (tolerance {BALANCE_TOLERANCE:.0%})",
                f"tracing overhead: {metrics['trace.overhead_s']:.3f} s over "
                f"{untraced.timed_seconds:.3f} s untraced",
            ]
        cluster.shutdown()
    units = report.PER_LAYER if trace else report.END_TO_END
    return {
        "correct": not problems and outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {key: {"value": value, "unit": units[key]} for key, value in metrics.items()},
        "notes": notes,
        "problems": problems,
        "findings": outcome.findings,
        "counts": outcome.counts,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("bulk_ingest", "estimate_mix", "churn"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    prepare_imports()
    pin_to_one_cpu()
    result = execute(args.workload, args.seed, args.seconds, bool(args.trace))
    for line in result.pop("notes"):
        print(f"# {line}")
    for finding in result.pop("findings"):
        print(f"# FINDING: {finding}")
    for problem in result.pop("problems"):
        print(f"# CHECK FAILED: {problem}")
    result.pop("counts")
    for key, metric in result["metrics"].items():
        print(f"# {key} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result, separators=(",", ":")))
    return 0


if __name__ == "__main__":
    sys.exit(main())
