"""Seeded crash-recovery verification behind ``repro crashcheck``.

Runs a scripted durable-cluster ingest once crash-free (the baseline),
then once per registered crash point with a seeded
:class:`~repro.lsm.crashpoints.CrashInjector` armed.  When the
simulated process death fires, every node is crash-restarted (all
in-memory state lost, disks survive), statistics recovery drains, the
interrupted operation is retried if and only if its effect is absent
(the client-side at-least-once retry), and the rest of the script runs
to completion.  The run must then be *bit-identical* to the baseline
under the shared oracle (:mod:`repro.cluster.check`: contents with
component structure, uid-rank catalog, estimate sweep).

A negative control runs the same harness on a durable cluster with the
WAL disabled and must demonstrably lose acknowledged records -- the
check that the WAL is the thing earning the durability, not the
harness accidentally re-executing everything.

A second sweep re-runs the maintenance-lifecycle crash points on a
cluster whose flushes and merges run on the background scheduler (in
deterministic ``virtual`` mode, so the schedule is replayable): the
crash then fires inside a background task -- mid-rotation, mid-build or
mid-splice while ingestion is in flight -- and recovery must still be
bit-identical to the same synchronous baseline.
"""

from __future__ import annotations

from typing import Any

from repro.cluster.check import DATASET, CheckReport, doc, run_leg, tally
from repro.cluster.cluster import LSMCluster
from repro.lsm.crashpoints import (
    CRASH_POINTS,
    CrashInjector,
    CrashPlan,
    SimulatedCrash,
)

__all__ = ["run_crashcheck"]

_BULKLOAD_COUNT = 64

# The crash points a background flush/merge task passes through; the
# concurrent sweep arms exactly these on a virtual-scheduler cluster.
_CONCURRENT_POINTS = (
    "flush.rotate",
    "flush.build",
    "merge.build",
    "merge.splice",
)

_RECOVERY_COUNTERS = {
    "orphans_deleted": "recovery.orphans.deleted",
    "replayed_ops": "recovery.replayed.ops",
    "rederived_synopses": "collector.synopses.rederived",
    "stale_epoch_drops": "cluster.stats.stale_epoch",
}


def _ops(records: int) -> list[tuple[str, Any]]:
    """The scripted workload: an initial bulkload, then inserts,
    deletes and an explicit final flush -- enough lifecycle traffic to
    pass every registered crash point several times."""
    ops: list[tuple[str, Any]] = [
        ("bulkload", tuple(range(_BULKLOAD_COUNT)))
    ]
    for pk in range(_BULKLOAD_COUNT, records):
        ops.append(("insert", pk))
    for pk in range(0, records, 17):
        ops.append(("delete", pk))
    ops.append(("flush", None))
    return ops


def _apply(cluster: LSMCluster, op: str, arg: Any) -> None:
    if op == "bulkload":
        cluster.bulkload(DATASET, [doc(pk) for pk in arg])
    elif op == "insert":
        cluster.insert(DATASET, doc(arg))
    elif op == "delete":
        cluster.delete(DATASET, arg)
    else:
        cluster.flush_all(DATASET)


def _retry(cluster: LSMCluster, op: str, arg: Any) -> None:
    """Re-apply the operation the crash interrupted, but only where
    its effect is absent -- the client-side at-least-once retry that a
    durable engine's idempotence must tolerate."""
    if op == "bulkload":
        _retry_bulkload(cluster, arg)
    elif op == "insert":
        if cluster.get(DATASET, arg) is None:
            cluster.insert(DATASET, doc(arg))
    elif op == "delete":
        if cluster.get(DATASET, arg) is not None:
            cluster.delete(DATASET, arg)
    else:
        cluster.flush_all(DATASET)


def _retry_bulkload(cluster: LSMCluster, pks: tuple[int, ...]) -> None:
    """Reload only the partitions whose load transaction was voided.

    A bulkload commits per partition (one manifest transaction each),
    so after a mid-load crash some partitions hold their component and
    the rest recovered empty; reloading an already-loaded partition
    would violate the load-into-empty contract.
    """
    batches: dict[int, list[dict[str, Any]]] = {}
    for pk in pks:
        batches.setdefault(cluster.partitioner.partition_of(pk), []).append(
            doc(pk)
        )
    for partition_id, batch in batches.items():
        node = cluster._partition_owner[partition_id]
        dataset = node.dataset(DATASET, partition_id)
        if dataset.primary.components or dataset.primary.memtable:
            continue  # this partition's load already committed
        batch.sort(key=lambda document: document["id"])
        node.bulkload(DATASET, partition_id, batch)


def _run_script(cluster: LSMCluster, records: int) -> SimulatedCrash | None:
    """Run the workload; on a simulated crash, restart every node,
    recover, retry the interrupted op and finish the script."""
    ops = _ops(records)
    position = 0
    try:
        for position, (op, arg) in enumerate(ops):
            _apply(cluster, op, arg)
    except SimulatedCrash as crash:
        cluster.restart_nodes()
        cluster.recover_statistics()
        _retry(cluster, *ops[position])
        for op, arg in ops[position + 1 :]:
            _apply(cluster, op, arg)
        return crash
    return None


def run_crashcheck(seed: int = 0, records: int = 512) -> CheckReport:
    """Verify bit-identical recovery at every registered crash point."""
    problems: list[str] = []

    def script(cluster: LSMCluster) -> SimulatedCrash | None:
        return _run_script(cluster, records)

    baseline = run_leg("baseline", script, problems, durable=True)
    counts = {
        "points_checked": len(CRASH_POINTS),
        "crashes_fired": 0,
        "concurrent_points_checked": len(_CONCURRENT_POINTS),
        "concurrent_crashes_fired": 0,
    }
    # The concurrent sweep arms the same lifecycle points, but the
    # flush/merge that dies is a *background* task on the
    # (deterministic) virtual scheduler, with ingestion mid-flight
    # around it.  Pending lane work is discarded on restart -- exactly
    # the in-memory loss a real process death inflicts.
    virtual = {"scheduler": "virtual", "scheduler_seed": seed}
    sweeps = [(point, point, "crashes_fired", {}) for point in CRASH_POINTS] + [
        (f"virtual:{point}", point, "concurrent_crashes_fired", virtual)
        for point in _CONCURRENT_POINTS
    ]
    for label, point, fired, options in sweeps:
        injector = CrashInjector.seeded(seed, point)
        leg = run_leg(
            label,
            script,
            problems,
            baseline.images,
            durable=True,
            crash_injector=injector,
            **options,
        )
        if leg.result is None:
            problems.append(
                f"{label}: crash never fired (planned hit "
                f"{injector.plan.hit}, passages "
                f"{injector.hits.get(point, 0)})"
            )
        else:
            counts[fired] += 1
        tally(counts, leg.counters, _RECOVERY_COUNTERS)

    # Negative control: same harness, WAL disabled.  The crash loses
    # the acknowledged records sitting in memtables; only the one
    # interrupted operation is retried, so the loss must be visible.
    control = run_leg(
        "control",
        script,
        problems,
        durable=True,
        wal_enabled=False,
        crash_injector=CrashInjector(CrashPlan("flush.build", 1)),
    )
    live = baseline.cluster.count_records(DATASET)
    lost = live - control.cluster.count_records(DATASET)
    counts["control_records_lost"] = lost
    if control.result is None:
        problems.append("control: crash never fired")
    elif lost <= 0:
        problems.append(
            "control: WAL-less crash lost no acknowledged records "
            f"(lost={lost}) -- the check proves nothing"
        )
    return CheckReport(
        f"crashcheck seed={seed} records={records}",
        not problems,
        tuple(problems),
        counts,
    )
