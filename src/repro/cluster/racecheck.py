"""Concurrent-maintenance equivalence verification (``repro racecheck``).

The background scheduler's contract is that concurrency changes *when*
maintenance runs but never *what* it produces: after a drain, a cluster
that flushed and merged on background workers must be bit-identical
under the shared oracle (:mod:`repro.cluster.check`: contents with
component structure, uid-rank catalog, estimate sweep) to one that did
everything inline (the legacy synchronous mode, which is also the
crash-recovery oracle).

The check runs a scripted ingest (bulkload, inserts, deletes, periodic
explicit flushes) three ways:

1. ``scheduler="sync"`` -- the baseline.  Every flush and merge happens
   inline with the triggering write.
2. ``scheduler="virtual"`` once per sweep seed -- the deterministic
   step-executor interleaves the per-partition maintenance lanes by
   seeded choice, so every schedule it explores is replayable from its
   seed.
3. ``scheduler="threads"`` once per sweep seed -- real worker threads,
   real preemption.  The OS schedule is not replayable, so each seed's
   run is simply one more sample of the nondeterminism.

Uid-rank normalisation matters here: absolute uids depend on the global
interleaving of flushes across partitions, but their *order within a
partition's index* is what statistics correctness depends on, and lane
FIFO preserves it.
"""

from __future__ import annotations

from repro.cluster.check import DATASET, CheckReport, doc, run_leg, tally
from repro.cluster.cluster import LSMCluster

__all__ = ["run_racecheck", "DEFAULT_SEEDS", "QUICK_SEEDS"]

_BULKLOAD_COUNT = 64

#: Paced-mode merge budget (records/second).  High enough that the
#: scripted workload finishes promptly, low enough that thread-mode
#: merges actually hit the token bucket and sleep at chunk boundaries.
PACED_MERGE_RATE = 50_000.0

#: Memory-mode cluster budget (bytes).  Small enough that the scripted
#: workload's per-dataset allowance sits *below* the 32-record memtable
#: capacity, so arbitration-triggered early flushes genuinely fire --
#: the image-affecting decision whose mode-invariance this proves.
MEMORY_CHECK_BUDGET = 32_768

DEFAULT_SEEDS: tuple[int, ...] = (0, 1, 2, 3, 4)
"""The default sweep: each seed drives one virtual-scheduler
interleaving and one real-thread run."""

QUICK_SEEDS: tuple[int, ...] = (0, 1)
"""The CI-sized sweep (``repro racecheck --quick``)."""


def _run_workload(cluster: LSMCluster, records: int) -> None:
    """The scripted ingest: enough flush/merge lifecycle traffic that
    background lanes stay busy while the DML thread keeps writing."""
    cluster.bulkload(DATASET, [doc(pk) for pk in range(_BULKLOAD_COUNT)])
    for pk in range(_BULKLOAD_COUNT, records):
        cluster.insert(DATASET, doc(pk))
        # A mid-script explicit flush exercises the drain barrier while
        # merge continuations may still be queued behind it.
        if pk == _BULKLOAD_COUNT + records // 2:
            cluster.flush_all(DATASET)
    for pk in range(0, records, 17):
        cluster.delete(DATASET, pk)
    cluster.flush_all(DATASET)


def run_racecheck(
    seeds: tuple[int, ...] = DEFAULT_SEEDS,
    records: int = 512,
    paced: bool = False,
    memory: bool = False,
) -> CheckReport:
    """Verify that concurrent maintenance ends bit-identical to sync.

    With ``paced=True`` every run (baseline included) carries a merge
    pacer, proving pacing is image-neutral: it throttles *when* merge
    chunks are processed under real threads, never what they produce.

    With ``memory=True`` every run carries a deliberately tight
    :class:`~repro.lsm.memory.MemoryArbiter` budget, proving memory
    arbitration is image-neutral: early flushes trigger at the identical
    record under every scheduler mode (the allowance is a pure function
    of DML-thread state), and the pool backpressure/cache capacity
    responses only move timing.
    """
    options = {
        "durable": True,
        "merge_pacing_rate": PACED_MERGE_RATE if paced else None,
        "memory_budget": MEMORY_CHECK_BUDGET if memory else None,
    }

    def workload(cluster: LSMCluster) -> None:
        _run_workload(cluster, records)

    problems: list[str] = []
    baseline = run_leg("sync", workload, problems, **options)
    # The synchronous oracle has no background tasks, so a recorded
    # stall there is phantom backpressure (the wait() accounting bug
    # this guards against).
    baseline_stalls = baseline.counters.get("scheduler.stalls", 0)
    if baseline_stalls:
        problems.append(
            f"sync baseline recorded {baseline_stalls} stall(s); "
            "synchronous maintenance can never stall on itself"
        )
    # The memory sweep is vacuous unless the tight budget actually
    # triggered arbitration on the baseline.
    if memory and not baseline.counters.get("memory.pressure.early_flush", 0):
        problems.append(
            "memory mode ran but the baseline recorded zero early "
            "flushes -- the budget is too generous to exercise "
            "arbitration"
        )
    counts = {"runs_compared": 0, "background_tasks": 0, "stalls": 0}
    for seed in seeds:
        for mode in ("virtual", "threads"):
            label = f"{mode}[seed={seed}]"
            try:
                leg = run_leg(
                    label,
                    workload,
                    problems,
                    baseline.images,
                    scheduler=mode,
                    scheduler_seed=seed,
                    **options,
                )
            except Exception as error:  # noqa: BLE001 - report, keep sweeping
                problems.append(f"{label}: workload failed: {error!r}")
                continue
            counts["runs_compared"] += 1
            tally(
                counts,
                leg.counters,
                {
                    "background_tasks": "scheduler.tasks.completed",
                    "stalls": "scheduler.stalls",
                },
            )
            submitted = leg.counters.get("scheduler.tasks.submitted", 0)
            completed = leg.counters.get("scheduler.tasks.completed", 0)
            if submitted == 0:
                problems.append(
                    f"{label}: no background tasks ran -- the mode fell "
                    "back to inline maintenance"
                )
            elif completed != submitted:
                problems.append(
                    f"{label}: {submitted - completed} of {submitted} "
                    "scheduled tasks never completed"
                )
    return CheckReport(
        f"racecheck seeds={list(seeds)} records={records}",
        not problems,
        tuple(problems),
        counts,
    )
