"""The three workloads of the front-door benchmark.

Every workload drives the public API of one durable 4-node x
2-partition ``LSMCluster`` plus master, from one closed-loop client:

* ``bulk_ingest`` -- write-only ingest through ``insert_many`` with
  capacity-triggered flushes and prefix merges;
* ``estimate_mix`` -- read-only range and NDV estimates over a loaded,
  multi-component dataset, served from the warm merged-synopsis cache;
* ``churn`` -- a feed of inserts, updates and deletes applied in slices
  that each end with a flush, with estimates served by an
  ``EstimateService`` worker between slices.

The work in a run is fixed by the seed and ``--seconds`` (a nominal
rate per second of run time), so both sides of a comparison execute
identical operations.  Settings that shape the load are constants here
and listed in ``perfbench/README.md``.
"""

from __future__ import annotations

import contextlib
import gc
import random
import resource
import statistics
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.cluster.cluster import LSMCluster
from repro.cluster.feeds import (
    ChangestreamFeed,
    FeedCursorStore,
    FeedOperation,
    FeedRecord,
    ResumableFeedConsumer,
)
from repro.cluster.serving import EstimateService
from repro.core.config import DEFAULT_NDV_PRECISION, StatisticsConfig
from repro.errors import OverloadedError
from repro.lsm.dataset import IndexSpec
from repro.lsm.merge_policy import PrefixMergePolicy
from repro.synopses.base import SynopsisType
from repro.types import Domain

import inputs
from oracle import Oracle, normalized_absolute_error, user_bytes
from tracer import NULL_RECORDER, clock

DATASET = "tweets"
FIELDS = {
    "value": inputs.VALUE_DOMAIN,
    "uni": inputs.UNI_DOMAIN,
    "ts": inputs.TS_DOMAIN,
}

# Fixed configuration: identical on both sides of any comparison.
CLUSTER = {
    "num_nodes": 4,
    "partitions_per_node": 2,
    "scheduler": "sync",
    "durable": True,
}
STATISTICS = StatisticsConfig(
    SynopsisType.WAVELET,
    budget=256,
    ndv_enabled=True,
    ndv_precision=DEFAULT_NDV_PRECISION,
)
MERGE_POLICY = {"max_mergable_pages": 32, "max_tolerance_count": 3}
"""With a flush per churn slice, a merge every third slice: the per-slice
costs cycle through three levels, so the medians and tails fall inside
a level rather than on the edge between two."""
SETUP_REPEATS = 3
RESTARTS = 3
"""Crash-restarts at the end of a run; ``recovery_s`` is their median."""
SWEEP_QUERIES = 2000
"""Range estimates per index in the accuracy/recovery sweep."""
CHECKED_GETS = 300
CHECKED_RANGES = 8
SERVICE_TIMEOUT_S = 30.0


@contextlib.contextmanager
def quiet_heap():
    """Collect, then hold the cyclic garbage collector off for the block.

    A collection that lands inside a timed phase adds a pause at a
    random point and swings tail latencies between identical runs (the
    same reason ``timeit`` disables the collector).  Reference counting
    still frees everything acyclic; cyclic garbage made in the block is
    collected after it and counts towards ``peak_rss_mb``.
    """
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def index_name(field_name: str) -> str:
    return f"{field_name}_idx"


def build_cluster(fields: tuple[str, ...], memtable_capacity: int) -> LSMCluster:
    cluster = LSMCluster(stats_config=STATISTICS, **CLUSTER)
    cluster.create_dataset(
        DATASET,
        primary_key="id",
        primary_domain=Domain(*inputs.PK_DOMAIN),
        indexes=[
            IndexSpec(index_name(name), name, Domain(*FIELDS[name]))
            for name in fields
        ],
        memtable_capacity=memtable_capacity,
        merge_policy_factory=lambda: PrefixMergePolicy(**MERGE_POLICY),
    )
    return cluster


@dataclass
class Samples:
    """Latencies (seconds) and write totals of one run."""

    write_batch: list[float] = field(default_factory=list)
    write_ops: int = 0
    write_seconds: float = 0.0
    estimate: list[float] = field(default_factory=list)
    ndv: list[float] = field(default_factory=list)
    fresh: list[float] = field(default_factory=list)

    def add_write(self, seconds: float, ops: int) -> None:
        self.write_batch.append(seconds)
        self.write_ops += ops
        self.write_seconds += seconds


class FreshnessTracker:
    """Write batches not yet visible to estimates.

    Statistics reach the catalog when a partition flushes, so a batch is
    included in an estimate once every partition that still buffered
    writes when the batch was acknowledged has flushed since (a batch
    of 200 documents reaches all eight partitions).
    """

    def __init__(self, cluster: LSMCluster) -> None:
        self._trees = [dataset.primary for dataset in cluster.datasets_of(DATASET)]
        self._pending: list[tuple[float, list[tuple[int, int]]]] = []

    def acked(self, at: float) -> None:
        marks = [(tree.flush_count, len(tree.memtable)) for tree in self._trees]
        self._pending.append((at, marks))

    def estimated(self, returned_at: float, fresh: list[float]) -> None:
        while self._pending and self._covered(self._pending[0][1]):
            fresh.append(returned_at - self._pending.pop(0)[0])

    def _covered(self, marks: list[tuple[int, int]]) -> bool:
        return all(
            buffered == 0 or tree.flush_count > flushes
            for tree, (flushes, buffered) in zip(self._trees, marks)
        )


@dataclass
class Outcome:
    """What one execution of a workload measured and checked."""

    samples: Samples
    timed_seconds: float = 0.0
    recovery_seconds: float = 0.0
    nae: float = 0.0
    ndv_rel_err: float = 0.0
    space_amp: float = 0.0
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    findings: list[str] = field(default_factory=list)
    ndv_errors: list[float] = field(default_factory=list)
    counts: dict[str, float] = field(default_factory=dict)


def _io_totals(cluster: LSMCluster) -> dict[str, int]:
    totals = {"pages_written": 0, "pages_read": 0, "bytes_written": 0}
    for node in cluster.nodes:
        for key in totals:
            totals[key] += getattr(node.disk.stats, key)
    return totals


WINDOW_COUNTERS = (
    "cache.merged.hit",
    "cache.merged.miss",
    "cache.merged.invalidation",
    "estimator.lazy_merge.count",
    "network.bytes",
    "feed.cursor.checkpoints",
    "recovery.replayed.ops",
)


def window_counters(cluster: LSMCluster, registry: Any) -> dict[str, float]:
    """Program counters and simulated-disk totals, for window deltas."""
    values = {name: registry.counter(name).value for name in WINDOW_COUNTERS}
    values.update(_io_totals(cluster))
    return values


def _stored_bytes(cluster: LSMCluster) -> int:
    return sum(
        node.disk.num_pages(file_id) * node.disk.page_bytes
        for node in cluster.nodes
        for file_id in node.disk.live_file_ids()
    )


def _contents_image(cluster: LSMCluster, fields: tuple[str, ...]) -> list:
    image = []
    for dataset in cluster.datasets_of(DATASET):
        image.append([(r.key, r.value) for r in dataset.primary.scan()])
        for name in fields:
            image.append([r.key for r in dataset.scan_secondary(index_name(name))])
    return image


def _catalog_image(cluster: LSMCluster) -> dict[tuple, list]:
    """Per index and partition, the catalogued payload pairs in
    component-creation (uid) order: recovery re-derives components under
    fresh uids, so entries are compared by rank, not by raw uid."""
    catalog = cluster.master.catalog
    image: dict[tuple, list] = {}
    for name in catalog.index_names():
        for entry in sorted(catalog.entries_for(name), key=lambda e: e.component_uid):
            image.setdefault((name, entry.node_id, entry.partition_id), []).append(
                (entry.synopsis.to_payload(), entry.anti_synopsis.to_payload())
            )
    return image


class Workload:
    """Shared skeleton: seeded inputs, setup, timed phase, checks and
    crash-restarts whose recovered state must match the state before."""

    name = ""
    fields: tuple[str, ...] = ()
    memtable_capacity = 0
    base_docs = 0

    def __init__(self, seed: int, seconds: float, scale: float = 1.0) -> None:
        self.seed = seed
        self.seconds = seconds
        self.scale = scale
        self.rng = random.Random(f"{self.name}:{seed}")
        self.factory = inputs.DocumentFactory(self.rng)
        self.base = self.factory.documents(0, self.size(self.base_docs))
        self.live = {doc["id"]: doc for doc in self.base}
        self.absent: list[int] = []
        # Time the machine-speed kernel (calibration.Calibration.sample
        # and .tick); set by runs that report end-to-end timings.
        self.calibrate: Callable[[], None] = lambda: None
        self.calibrate_tick: Callable[[], None] = lambda: None

    def size(self, nominal: float) -> int:
        """A size setting, scaled down for the self-test's tiny runs."""
        return max(1, int(nominal * self.scale))

    def timed_size(self, per_second: float) -> int:
        return max(1, int(per_second * self.seconds * self.scale))

    def sweep_queries(self) -> dict[str, list[tuple[int, int]]]:
        """Accuracy/recovery sweep over the final live data's ranges."""
        sweep_rng = random.Random(f"sweep:{self.seed}")
        queries = {}
        for name in self.fields:
            values = [doc[name] for doc in self.live.values()]
            queries[name] = inputs.range_queries(
                sweep_rng, min(values), max(values), SWEEP_QUERIES
            )
        return queries

    def setup(self) -> LSMCluster:
        cluster = build_cluster(self.fields, self.size(self.memtable_capacity))
        cluster.bulkload(DATASET, self.base)
        return cluster

    def run(self, cluster: LSMCluster, recorder: Any, registry: Any) -> Outcome:
        raise NotImplementedError

    @contextlib.contextmanager
    def timed_phase(self, recorder: Any):
        """The measured block: calibrated on both sides, collector off,
        spans recorded in a traced run."""
        self.calibrate()
        with quiet_heap(), recorder.recording():
            yield
        self.calibrate()

    def timed_writes(self) -> tuple[int, int]:
        """Write operations the timed phase issues, and their user bytes."""
        return 0, 0

    def trace_guards(self, summary: Any, tallies: dict[str, float]) -> list[str]:
        """Vacuity guards that need the traced run's spans."""
        return []

    # -- shared end of run ----------------------------------------------

    def _estimate(self, cluster: LSMCluster, recorder: Any, field_name: str,
                  lo: int, hi: int, samples: list[float]) -> float:
        with recorder.span("bench", "estimate"):
            started = clock()
            cluster.estimate(DATASET, index_name(field_name), lo, hi)
            finished = clock()
        samples.append(finished - started)
        return finished

    def _ndv(self, cluster: LSMCluster, recorder: Any, samples: list[float]) -> float:
        with recorder.span("bench", "ndv"):
            started = clock()
            ndv = cluster.estimate_ndv(DATASET)
            finished = clock()
        samples.append(finished - started)
        return ndv

    def _sweep(self, cluster: LSMCluster, queries: dict) -> dict[str, Any]:
        sweep: dict[str, Any] = {
            name: [
                cluster.estimate(DATASET, index_name(name), lo, hi)
                for lo, hi in ranges
            ]
            for name, ranges in queries.items()
        }
        ndv = cluster.estimate_ndv_detailed(DATASET)
        sweep["#ndv"] = (ndv.ndv, ndv.lower, ndv.upper)
        return sweep

    def _check_outputs(self, cluster: LSMCluster, oracle: Oracle,
                       problems: list[str]) -> None:
        check_rng = random.Random(f"check:{self.seed}")
        if cluster.count_records(DATASET) != oracle.count():
            problems.append(
                f"count_records {cluster.count_records(DATASET)} != {oracle.count()}"
            )
        keys = sorted(oracle.live)
        probes = check_rng.sample(keys, min(CHECKED_GETS, len(keys)))
        probes += self.absent[:CHECKED_GETS // 4]
        probes.append(max(keys) + 1)
        wrong = [pk for pk in probes if cluster.get(DATASET, pk) != oracle.get(pk)]
        if wrong:
            problems.append(f"get returned a stale or missing record for {wrong[:5]}")
        for name in self.fields:
            values = sorted(doc[name] for doc in oracle.live.values())
            for lo, hi in inputs.range_queries(
                check_rng, values[0], values[-1], CHECKED_RANGES
            ):
                got = cluster.count_secondary_range(DATASET, index_name(name), lo, hi)
                expected = oracle.range_count(name, lo, hi)
                if got != expected:
                    problems.append(
                        f"count_secondary_range {name} [{lo}, {hi}] = {got}, "
                        f"expected {expected}"
                    )

    def _check_recovered(self, cluster: LSMCluster, before: dict, sweep: dict,
                         queries: dict, oracle: Oracle, outcome: Outcome,
                         contents: bool) -> None:
        problems = outcome.problems
        if contents and _contents_image(cluster, self.fields) != before["contents"]:
            problems.append("contents after restart differ from before the crash")
        if _catalog_image(cluster) != before["catalog"]:
            problems.append("catalogued statistics after restart differ from before")
        recovered = self._sweep(cluster, queries)
        if recovered["#ndv"] != sweep["#ndv"]:
            problems.append("NDV estimate after restart differs from before the crash")
        # Recovery republishes the (identical) per-component statistics in
        # a different catalog order, and the lazily merged wavelet depends
        # on merge order, so range estimates may move.  Measured, not
        # failed: see "Finding" in perfbench/README.md.
        changed = [
            abs(a - b)
            for name in self.fields
            for a, b in zip(sweep[name], recovered[name])
            if a != b
        ]
        outcome.counts["range_estimates_changed"] = len(changed)
        outcome.findings = []
        if changed:
            outcome.findings.append(
                f"{len(changed)} of {SWEEP_QUERIES * len(self.fields)} range "
                f"estimates changed across the restart (largest change "
                f"{max(changed) / oracle.count():.2e} of the record count)"
            )

    def finish(self, cluster: LSMCluster, recorder: Any, registry: Any,
               outcome: Outcome) -> None:
        """Output checks, accuracy, space, then crash-restarts after which
        the contents and statistics must equal those before them."""
        oracle = Oracle(self.live)
        problems = outcome.problems
        self._check_outputs(cluster, oracle, problems)
        queries = self.sweep_queries()
        before = {
            "contents": _contents_image(cluster, self.fields),
            "catalog": _catalog_image(cluster),
        }
        sweep = self._sweep(cluster, queries)
        outcome.space_amp = _stored_bytes(cluster) / oracle.user_bytes()
        outcome.counts["catalog_entries"] = sum(map(len, before["catalog"].values()))
        outcome.counts["catalog_anti_entries"] = sum(
            anti["total_count"] > 0
            for entries in before["catalog"].values()
            for _, anti in entries
        )
        outcome.nae = statistics.fmean(
            normalized_absolute_error(oracle, name, queries[name], sweep[name])
            for name in self.fields
        )
        if not outcome.ndv_errors:  # no NDV checks inside the run: use the end state
            outcome.ndv_errors.append(abs(sweep["#ndv"][0] - oracle.count()) / oracle.count())
        outcome.ndv_rel_err = statistics.fmean(outcome.ndv_errors)

        replayed_before = registry.counter("recovery.replayed.ops").value
        self.calibrate()
        recovery_times = []
        # Each restart's statistics are checked before the next, which
        # also spreads the timed restarts over a longer stretch of the
        # run; the (costlier) contents check follows the last one.
        for restart in range(1, RESTARTS + 1):
            with quiet_heap(), recorder.recording(), recorder.span("bench", "restart"):
                started = clock()
                cluster.restart_nodes()
                cluster.recover_statistics()
                recovery_times.append(clock() - started)
            self._check_recovered(
                cluster, before, sweep, queries, oracle, outcome,
                contents=restart == RESTARTS,
            )
        self.calibrate()
        outcome.recovery_seconds = statistics.median(recovery_times)
        outcome.counts["replayed_ops"] = (
            registry.counter("recovery.replayed.ops").value - replayed_before
        )
        outcome.counts.update(
            {
                "estimate_nae": outcome.nae,
                "ndv_rel_err": outcome.ndv_rel_err,
                "merges": registry.counter("lsm.merge.count").value,
                "flushes": registry.counter("lsm.flush.count").value,
                "wire_bytes": registry.counter("network.bytes").value,
                **_io_totals(cluster),
            }
        )


class BulkIngest(Workload):
    """Write-only ingest; a few probe estimates follow each batch."""

    name = "bulk_ingest"
    fields = ("value",)
    memtable_capacity = 256
    base_docs = 4000
    batch_docs = 200
    docs_per_second = 4800
    probes_per_batch = 4
    ndv_every_batches = 4

    def __init__(self, seed: int, seconds: float, scale: float = 1.0) -> None:
        super().__init__(seed, seconds, scale)
        docs = self.factory.documents(len(self.base), self.timed_size(self.docs_per_second))
        batch = self.size(self.batch_docs)
        self.batches = [docs[i : i + batch] for i in range(0, len(docs), batch)]
        self.live.update((doc["id"], doc) for doc in docs)
        self.absent = [len(self.live) + i for i in range(1, 20)]
        low, high = inputs.VALUE_DOMAIN
        self.probes = inputs.range_queries(
            self.rng, low, high, len(self.batches) * self.probes_per_batch
        )

    def timed_writes(self) -> tuple[int, int]:
        docs = [doc for batch in self.batches for doc in batch]
        return len(docs), user_bytes(docs)

    def run(self, cluster: LSMCluster, recorder: Any, registry: Any) -> Outcome:
        outcome = Outcome(Samples())
        samples = outcome.samples
        tracker = FreshnessTracker(cluster)
        merges_before = registry.counter("lsm.merge.count").value
        wire_before = registry.counter("network.bytes").value
        with self.timed_phase(recorder):
            started = clock()
            for i, batch in enumerate(self.batches):
                with recorder.span("bench", "write_batch"):
                    begun = clock()
                    inserted = cluster.insert_many(DATASET, batch)
                    acked = clock()
                samples.add_write(acked - begun, inserted)
                outcome.failed += len(batch) - inserted
                tracker.acked(acked)
                for k in range(self.probes_per_batch):
                    lo, hi = self.probes[i * self.probes_per_batch + k]
                    returned = self._estimate(
                        cluster, recorder, "value", lo, hi, samples.estimate
                    )
                    if k == 0:
                        tracker.estimated(returned, samples.fresh)
                if i % self.ndv_every_batches == 0:
                    self._ndv(cluster, recorder, samples.ndv)
                self.calibrate_tick()
            with recorder.span("bench", "final_flush"):
                begun = clock()
                cluster.flush_all(DATASET)
                cluster.drain_maintenance()
                samples.write_seconds += clock() - begun
            outcome.timed_seconds = clock() - started
        outcome.attempted = sum(map(len, self.batches)) + len(samples.estimate) + len(samples.ndv)
        self.finish(cluster, recorder, registry, outcome)
        merges = registry.counter("lsm.merge.count").value - merges_before
        wire = registry.counter("network.bytes").value - wire_before
        if merges <= 0:
            outcome.problems.append("vacuity: bulk_ingest ran no merges")
        if wire <= 0:
            outcome.problems.append("vacuity: bulk_ingest shipped no statistics bytes")
        return outcome


class EstimateMix(Workload):
    """Read-only estimates over a loaded multi-component dataset."""

    name = "estimate_mix"
    fields = ("value", "uni", "ts")
    memtable_capacity = 4096
    base_docs = 20000
    rounds = 3
    round_batches = 10
    batch_docs = 200
    estimates_per_second = 25000
    ndv_every_estimates = 64

    def __init__(self, seed: int, seconds: float, scale: float = 1.0) -> None:
        super().__init__(seed, seconds, scale)
        first = len(self.base)
        batch = self.size(self.batch_docs)
        self.round_docs = []
        for _ in range(self.rounds):
            docs = self.factory.documents(first, batch * self.round_batches)
            first += len(docs)
            self.round_docs.append([docs[i : i + batch] for i in range(0, len(docs), batch)])
            self.live.update((doc["id"], doc) for doc in docs)
        self.absent = [first + i for i in range(1, 20)]
        total = self.timed_size(self.estimates_per_second)
        per_field = {
            name: inputs.range_queries(self.rng, *self._span(name), 1024)
            for name in self.fields
        }
        count = len(self.fields)
        self.queries = [
            (self.fields[i % count], per_field[self.fields[i % count]][(i // count) % 1024])
            for i in range(total)
        ]
        self.setup_writes = Samples()

    def _span(self, field_name: str) -> tuple[int, int]:
        values = [doc[field_name] for doc in self.live.values()]
        return min(values), max(values)

    def setup(self) -> LSMCluster:
        """Bulkload, then insert rounds that each end with a flush, so
        every index has several components per partition.  The rounds'
        batches give this workload's write and freshness samples."""
        cluster = super().setup()
        samples = self.setup_writes
        tracker = FreshnessTracker(cluster)
        low, high = inputs.VALUE_DOMAIN
        for batches in self.round_docs:
            for batch in batches:
                begun = clock()
                inserted = cluster.insert_many(DATASET, batch)
                acked = clock()
                samples.add_write(acked - begun, inserted)
                tracker.acked(acked)
                tracker.estimated(self._estimate(
                    cluster, NULL_RECORDER, "value", low, high, []), samples.fresh)
            begun = clock()
            cluster.flush_all(DATASET)
            samples.write_seconds += clock() - begun
            tracker.estimated(
                self._estimate(cluster, NULL_RECORDER, "value", low, high, []),
                samples.fresh,
            )
        return cluster

    def run(self, cluster: LSMCluster, recorder: Any, registry: Any) -> Outcome:
        outcome = Outcome(self.setup_writes)
        samples = outcome.samples
        for name in self.fields:  # warm the merged-synopsis cache, untimed
            cluster.estimate(DATASET, index_name(name), *self._span(name))
        cluster.estimate_ndv(DATASET)
        writes_before = _write_path_counts(registry)
        with self.timed_phase(recorder):
            started = clock()
            for i, (name, (lo, hi)) in enumerate(self.queries):
                self._estimate(cluster, recorder, name, lo, hi, samples.estimate)
                if i % self.ndv_every_estimates == 0:
                    self._ndv(cluster, recorder, samples.ndv)
                    self.calibrate_tick()
            outcome.timed_seconds = clock() - started
        recorder.mark()
        if _write_path_counts(registry) != writes_before:
            outcome.problems.append("vacuity: estimate_mix timed phase touched the write path")
        outcome.attempted = len(samples.estimate) + len(samples.ndv)
        self.finish(cluster, recorder, registry, outcome)
        return outcome

    def trace_guards(self, summary: Any, tallies: dict[str, float]) -> list[str]:
        calls = summary.calls_before_mark_of(*WRITE_PATH_FUNCTIONS)
        if calls:
            return [f"vacuity: estimate_mix timed phase made {calls:g} write-path calls"]
        return []


WRITE_PATH_FUNCTIONS = (
    "MemTable.write", "WriteAheadLog.log_op", "LSMTree.flush_one_immutable",
    "LSMTree.merge", "Dataset.insert", "Dataset.update", "Dataset.delete",
    "build_btree", "build_btree_chunks",
)


def _write_path_counts(registry: Any) -> tuple:
    snapshot = registry.snapshot()
    counters = snapshot["counters"]
    ingest = snapshot["histograms"].get("ingest.op.seconds", {}).get("count", 0)
    return (
        ingest,
        counters.get("wal.appends", 0),
        counters.get("lsm.flush.count", 0),
        counters.get("lsm.merge.count", 0),
    )


class AckingTarget:
    """The feed's ingest target: applies operations to the cluster and
    timestamps each acknowledgment."""

    def __init__(self, cluster: LSMCluster, recorder: Any) -> None:
        self._cluster = cluster
        self._span = recorder.span
        self.last_ack = 0.0

    def insert(self, document: dict[str, Any]) -> None:
        with self._span("bench", "target.insert"):
            self._cluster.insert(DATASET, document)
        self.last_ack = clock()

    def update(self, document: dict[str, Any]) -> bool:
        with self._span("bench", "target.update"):
            applied = self._cluster.update(DATASET, document)
        self.last_ack = clock()
        return applied

    def delete(self, pk: Any) -> bool:
        with self._span("bench", "target.delete"):
            applied = self._cluster.delete(DATASET, pk)
        self.last_ack = clock()
        return applied

    def flush(self) -> None:
        with self._span("bench", "target.flush"):
            self._cluster.flush_all(DATASET)


_FEED_OPERATIONS = {
    "insert": FeedOperation.INSERT,
    "update": FeedOperation.UPDATE,
    "delete": FeedOperation.DELETE,
}


class Churn(Workload):
    """Inserts, updates and deletes through a resumable feed, with
    estimates served by an ``EstimateService`` worker between slices."""

    name = "churn"
    fields = ("value",)
    memtable_capacity = 1024
    base_docs = 20000
    slice_ops = 128
    slices_per_second = 7
    mix = (77, 26, 25)
    """Inserts, updates and deletes in every slice (60/20/20 of 128)."""
    service_estimates = 3
    crash_tail_ops = 96

    def __init__(self, seed: int, seconds: float, scale: float = 1.0) -> None:
        super().__init__(seed, seconds, scale)
        slices = self.timed_size(self.slices_per_second)
        ops, _ = inputs.churn_ops(
            self.factory, self.rng, self.live, len(self.base),
            slices * self.slice_ops + self.crash_tail_ops, self.mix,
        )
        self.slices = [
            ops[i * self.slice_ops : (i + 1) * self.slice_ops] for i in range(slices)
        ]
        # Live records after each slice: what its NDV estimate should see.
        self.live_after = []
        live = len(self.base)
        for ops_of_slice in self.slices:
            live += sum((op.kind == "insert") - (op.kind == "delete") for op in ops_of_slice)
            self.live_after.append(live)
        self.tail = ops[slices * self.slice_ops :]
        self.absent = [op.document["id"] for op in ops if op.kind == "delete"]
        low, high = inputs.VALUE_DOMAIN
        self.probes = inputs.range_queries(
            self.rng, low, high, slices * self.service_estimates
        )

    def timed_writes(self) -> tuple[int, int]:
        ops = [op for ops in self.slices for op in ops] + self.tail
        return len(ops), user_bytes(op.document for op in ops if op.kind != "delete")

    def run(self, cluster: LSMCluster, recorder: Any, registry: Any) -> Outcome:
        outcome = Outcome(Samples())
        samples = outcome.samples
        feed = ChangestreamFeed("churn", batch_size=32)
        target = AckingTarget(cluster, recorder)
        consumer = ResumableFeedConsumer(
            feed, target, FeedCursorStore(cluster.nodes[0].disk), checkpoint_every=64
        )
        tracker = FreshnessTracker(cluster)
        hits_before = registry.counter("cache.merged.hit").value
        misses_before = registry.counter("cache.merged.miss").value
        service = EstimateService(cluster, workers=1, default_timeout=SERVICE_TIMEOUT_S)
        try:
            with self.timed_phase(recorder):
                started = clock()
                for i, ops in enumerate(self.slices):
                    for op in ops:
                        feed.append(FeedRecord(_FEED_OPERATIONS[op.kind], op.document))
                    with recorder.span("bench", "slice"):
                        begun = clock()
                        stats = consumer.run()
                        finished = clock()
                    samples.add_write(finished - begun, stats.applied)
                    outcome.failed += stats.failed + len(ops) - stats.applied
                    tracker.acked(target.last_ack)
                    for k in range(self.service_estimates):
                        lo, hi = self.probes[i * self.service_estimates + k]
                        with recorder.span("bench", "estimate"):
                            begun = clock()
                            try:
                                service.estimate("bench", DATASET, index_name("value"), lo, hi)
                            except OverloadedError:
                                outcome.failed += 1
                            returned = clock()
                        samples.estimate.append(returned - begun)
                        tracker.estimated(returned, samples.fresh)
                    ndv = self._ndv(cluster, recorder, samples.ndv)
                    outcome.ndv_errors.append(abs(ndv - self.live_after[i]) / self.live_after[i])
                    self.calibrate_tick()
                outcome.timed_seconds = clock() - started
        finally:
            service.shutdown()
        hits = registry.counter("cache.merged.hit").value - hits_before
        misses = registry.counter("cache.merged.miss").value - misses_before
        # The crash tail: applied and acknowledged but never flushed, so
        # the restart must replay it from the write-ahead log.
        for op in self.tail:
            feed.append(FeedRecord(_FEED_OPERATIONS[op.kind], op.document))
        with recorder.recording(), recorder.span("bench", "crash_tail"):
            stats = consumer.run(stop_after=len(self.tail))
        outcome.failed += stats.failed + len(self.tail) - stats.applied
        outcome.attempted = (
            sum(map(len, self.slices)) + len(self.tail)
            + len(samples.estimate) + len(samples.ndv)
        )
        self.finish(cluster, recorder, registry, outcome)
        if outcome.counts["catalog_anti_entries"] <= 0:
            outcome.problems.append("vacuity: churn left no anti-matter in the catalog")
        if not 0 < hits < hits + misses:
            outcome.problems.append(
                f"vacuity: churn cache hit ratio is {hits}/{hits + misses}, "
                "expected strictly between 0 and 1"
            )
        if outcome.counts["replayed_ops"] <= 0:
            outcome.problems.append("vacuity: churn restart replayed no WAL operations")
        return outcome

    def trace_guards(self, summary: Any, tallies: dict[str, float]) -> list[str]:
        if tallies.get("bloom.probes", 0) <= 0:
            return ["vacuity: churn updates and deletes probed no bloom filter"]
        return []


WORKLOADS: dict[str, Callable[..., Workload]] = {
    "bulk_ingest": BulkIngest,
    "estimate_mix": EstimateMix,
    "churn": Churn,
}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
