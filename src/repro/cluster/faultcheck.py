"""Seeded chaos verification behind ``repro faultcheck``.

Runs the same scripted cluster ingest twice -- once on a perfect wire,
once under a seeded :class:`~repro.cluster.faults.FaultPlan` with the
retrying sinks -- then recovers the chaotic run and verifies it
converged to the *exact* state of the fault-free run under the shared
oracle (:mod:`repro.cluster.check`: contents with component structure,
uid-rank catalog, estimate sweep).

Because the local LSM pipeline is oblivious to statistics-delivery
failures (the sink never blocks ingestion), both runs build identical
components; any divergence therefore indicts the transport -- a lost,
duplicated, reordered or resurrected statistics message that the
retry/idempotency machinery failed to absorb.

The chaos run's ingest travels the *feed path*: a
:class:`~repro.cluster.feeds.ResumableFeedConsumer` drains a
changestream source with a seeded
:class:`~repro.cluster.faults.FeedFaultPlan` armed (injected
disconnects, partial batches, duplicate deliveries), so feed faults and
wire faults compose in one seeded run.  The consumer's dedup and
reconnect machinery must absorb the feed chaos exactly as the sink
absorbs the wire chaos -- the applied operation sequence, and therefore
every component, stays identical to the baseline's.
"""

from __future__ import annotations

from repro.cluster.check import DATASET, CheckReport, doc, run_leg, tally
from repro.cluster.cluster import LSMCluster
from repro.cluster.faults import FaultPlan, FeedFaultPlan, FeedFaults, LinkFaults
from repro.cluster.feeds import (
    ChangestreamFeed,
    DatasetFeedAdapter,
    FeedCursorStore,
    FeedOperation,
    FeedRecord,
    ResumableFeedConsumer,
)
from repro.cluster.node import RetryPolicy

__all__ = ["run_faultcheck"]

#: Feed-fault probabilities armed on the chaos run's changestream.
FEED_DISCONNECT = 0.03
FEED_DUPLICATE = 0.05

_COUNTERS = {
    "dropped": "network.dropped",
    "duplicated": "network.duplicated",
    "reordered": "network.reordered",
    "delayed": "network.delayed",
    "retries": "sink.retries",
    "duplicates_skipped": "cluster.stats.duplicates",
    "feed_disconnects": "feed.source.disconnects",
    "feed_deduplicated": "feed.records.deduplicated",
}


def _ingest(
    cluster: LSMCluster, records: int, feed_plan: FeedFaultPlan | None = None
) -> None:
    """Deterministic ingest through the feed path: inserts, deletes
    (anti-matter) and a final flush -- enough flush/merge traffic to
    exercise publishes and retracts.  With a ``feed_plan`` the
    changestream transport injects disconnects, partial batches and
    duplicate deliveries, which the consumer must absorb without
    changing the applied operation sequence."""
    ops = [
        FeedRecord(FeedOperation.INSERT, doc(pk)) for pk in range(records)
    ] + [
        FeedRecord(FeedOperation.DELETE, {"id": pk})
        for pk in range(0, records, 17)
    ]
    consumer = ResumableFeedConsumer(
        ChangestreamFeed("chaos_ingest", ops, fault_plan=feed_plan),
        DatasetFeedAdapter(cluster, DATASET),
        FeedCursorStore(cluster.nodes[0].disk),
        retry_policy=RetryPolicy.immediate(max_attempts=5),
    )
    consumer.run()


def run_faultcheck(
    seed: int = 0,
    records: int = 512,
    drop: float = 0.10,
    duplicate: float = 0.10,
    reorder: float = 0.10,
    delay: float = 0.05,
) -> CheckReport:
    """Run the chaos ingest and verify convergence to the baseline."""
    plan = FaultPlan(
        seed=seed,
        default=LinkFaults(
            drop=drop, duplicate=duplicate, reorder=reorder, delay=delay
        ),
        # The master drops off the wire for a stretch mid-ingest; the
        # sinks must degrade gracefully and flush the backlog after.
        unavailable={"cc": [(40, 80)]},
    )
    feed_plan = FeedFaultPlan(
        seed=seed,
        faults=FeedFaults(disconnect=FEED_DISCONNECT, duplicate=FEED_DUPLICATE),
    )
    problems: list[str] = []
    baseline = run_leg("baseline", lambda c: _ingest(c, records), problems)
    chaos = run_leg(
        "chaos",
        lambda c: _ingest(c, records, feed_plan),
        problems,
        baseline.images,
        fault_plan=plan,
    )
    counts = {
        "catalog_entries": chaos.cluster.master.catalog.entry_count(),
        "recovery_rounds": chaos.recovery_rounds,
    }
    tally(counts, chaos.counters, _COUNTERS)
    return CheckReport(
        f"faultcheck seed={seed} records={records}",
        not problems,
        tuple(problems),
        counts,
    )
