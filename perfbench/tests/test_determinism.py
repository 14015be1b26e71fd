"""Self-test of the front-door benchmark at a tiny size.

Run from the repository root::

    python3 -m pytest perfbench/tests -q

The same seed must repeat every count metric exactly (simulated-disk
pages, merges, statistics bytes on the wire, catalog entries) and the
accuracy metrics bit for bit; another seed must change the inputs.  The
traced run must balance and report every per-layer metric, and the
metric lists must be the ones ``BENCHMARK.json`` declares.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

run.prepare_imports()

import report  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SCALE = 0.05
SECONDS = 2
COUNTS = (
    "pages_written",
    "pages_read",
    "bytes_written",
    "merges",
    "flushes",
    "wire_bytes",
    "catalog_entries",
    "catalog_anti_entries",
    "replayed_ops",
    "estimate_nae",
    "ndv_rel_err",
)


def _fresh_process_run(name: str, seed: int) -> dict:
    """One untraced run in its own interpreter, as the benchmark is run
    (component ids come from a process-wide counter, and their digits
    ride in every statistics message)."""
    script = (
        "import json, sys; sys.path.insert(0, sys.argv[1]); import run; "
        "run.prepare_imports(); "
        "result = run.execute(sys.argv[2], int(sys.argv[3]), float(sys.argv[4]), "
        "False, float(sys.argv[5])); "
        "print(json.dumps({k: result[k] for k in ('correct', 'problems', 'counts')}))"
    )
    completed = subprocess.run(
        [sys.executable, "-c", script, str(BENCH), name, str(seed), str(SECONDS), str(SCALE)],
        capture_output=True, text=True, timeout=300, check=True,
    )
    return json.loads(completed.stdout.splitlines()[-1])


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_repeats_counts_exactly(name: str) -> None:
    first = _fresh_process_run(name, 7)
    second = _fresh_process_run(name, 7)
    assert first["correct"], first["problems"]
    assert second["correct"], second["problems"]
    assert {k: first["counts"][k] for k in COUNTS} == {
        k: second["counts"][k] for k in COUNTS
    }
    assert first["counts"]["pages_written"] > 0
    assert first["counts"]["wire_bytes"] > 0


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_seed_decides_the_inputs(name: str) -> None:
    def inputs_of(seed: int) -> tuple:
        workload = workloads.WORKLOADS[name](seed, SECONDS, SCALE)
        return workload.base, workload.live

    assert inputs_of(7) == inputs_of(7)
    assert inputs_of(7) != inputs_of(8)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_run_balances_and_reports_every_layer(name: str) -> None:
    result = run.execute(name, 7, SECONDS, trace=True, scale=SCALE)
    assert result["correct"], result["problems"]
    metrics = result["metrics"]
    assert set(metrics) == set(report.PER_LAYER)
    assert metrics["trace.balance_err"]["value"] <= tracer.BALANCE_TOLERANCE
    assert metrics["trace.spans"]["value"] > 0


def test_wrappers_are_removed_after_the_traced_run() -> None:
    from repro.lsm import tree

    builders = dict(tree._CHUNK_INDEX_BUILDERS)
    originals = {attribute: getattr(tree.LSMTree, attribute) for attribute in ("merge", "flush")}
    with tracer.Recorder().installed():
        assert tree.LSMTree.merge is not originals["merge"]
    assert {a: getattr(tree.LSMTree, a) for a in originals} == originals
    assert tree._CHUNK_INDEX_BUILDERS == builders


def test_metric_lists_match_benchmark_json() -> None:
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == report.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == report.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_tail_is_the_highest_percentile_with_ten_samples_beyond() -> None:
    assert report.tail(list(range(100)))[0] == 90.0
    assert report.tail(list(range(1000)))[0] == 99.0
    assert report.tail(list(range(20000)))[0] == 99.9
    assert report.tail(list(range(25)))[0] == 50.0
