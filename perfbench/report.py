"""Metric definitions and their derivation from one run's outcome.

``END_TO_END`` and ``PER_LAYER`` are the metric lists of
``BENCHMARK.json`` (the self-test checks that they agree).
"""

from __future__ import annotations

import math
from typing import Any

from tracer import TraceSummary

TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
MIN_BEYOND = 10
MAX_SAMPLES = 9999
"""Latency series longer than this are thinned to evenly spaced samples
before percentiles are taken, which keeps the ladder at p99: with
hundreds of thousands of samples it picks p99.9, which on a shared
2-core machine moved by a third between identical runs."""

_TIME_UNITS = ("s", "ms", "us")

END_TO_END = {
    "setup_s": "s",
    "write.ops_per_s": "1/s",
    "write.batch_p50_ms": "ms",
    "write.batch_tail_ms": "ms",
    "estimate.p50_us": "us",
    "estimate.tail_us": "us",
    "ndv.p50_us": "us",
    "fresh.p50_ms": "ms",
    "fresh.tail_ms": "ms",
    "estimate.nae": "ratio",
    "ndv.rel_err": "ratio",
    "space_amp": "ratio",
    "recovery_s": "s",
    "peak_rss_mb": "MB",
}

LAYERS = (
    "cluster.cluster", "cluster.node", "cluster.network", "cluster.master",
    "cluster.serving", "cluster.feeds", "core.catalog", "core.cache",
    "core.estimator", "core.collector", "synopses", "lsm.dataset", "lsm.tree",
    "lsm.btree", "lsm.columnar", "lsm.memtable", "lsm.wal", "lsm.manifest",
    "lsm.bloom",
)

# Statistics work riding on the write path (the paper's Fig. 2 claim):
# building, encoding, shipping and cataloguing synopses.
_STATISTICS_FUNCTIONS = (
    ("core.collector", None),
    ("synopses", ("SynopsisBuilder.add_many", "SynopsisBuilder.build",
                  "WaveletSynopsis.to_payload", "HyperLogLogSynopsis.to_payload",
                  "HBSCodec.encode", "HBSCodec.decode", "synopsis_from_payload")),
    ("cluster.node", ("NetworkStatisticsSink.publish", "NetworkStatisticsSink.retract",
                      "NetworkStatisticsSink.reset", "NetworkStatisticsSink.flush_outbox")),
    ("cluster.network", None),
    ("cluster.master", ("ClusterController._on_message",)),
    ("core.catalog", ("StatisticsCatalog.put", "StatisticsCatalog.retract",
                      "StatisticsCatalog.reset_partition")),
    ("core.cache", ("MergedSynopsisCache.invalidate",)),
)
WRITE_ROOTS = ("write_batch", "final_flush", "slice")
PER_LAYER = {
    "trace.root_s": "s",
    "trace.unattributed_s": "s",
    "trace.balance_err": "ratio",
    "trace.overhead_s": "s",
    "trace.overhead_frac": "ratio",
    "trace.spans": "count",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "lsm.memtable.write.calls": "count",
    "lsm.memtable.write.busy_s": "s",
    "lsm.memtable.drain.busy_s": "s",
    "lsm.wal.log_op.calls": "count",
    "lsm.wal.log_op.busy_s": "s",
    "lsm.wal.sync.calls": "count",
    "lsm.wal.replay.busy_s": "s",
    "lsm.manifest.commit.calls": "count",
    "lsm.manifest.commit.busy_s": "s",
    "lsm.manifest.replay.busy_s": "s",
    "lsm.tree.flush.calls": "count",
    "lsm.tree.flush.busy_s": "s",
    "lsm.tree.flush.self_s": "s",
    "lsm.tree.merge.calls": "count",
    "lsm.tree.merge.busy_s": "s",
    "lsm.tree.merge.self_s": "s",
    "lsm.tree.merge.records_rewritten": "count",
    "lsm.tree.bulkload.calls": "count",
    "lsm.tree.bulkload.busy_s": "s",
    "lsm.btree.build.busy_s": "s",
    "lsm.bloom.add_all.busy_s": "s",
    "lsm.bloom.probes": "count",
    "lsm.bloom.negative_ratio": "ratio",
    "lsm.storage.pages_written": "count",
    "lsm.storage.pages_read": "count",
    "lsm.storage.write_amp": "ratio",
    "synopses.add_many.busy_s": "s",
    "synopses.build.busy_s": "s",
    "synopses.merge.calls": "count",
    "synopses.merge.busy_s": "s",
    "synopses.estimate.busy_s": "s",
    "synopses.hbs.busy_s": "s",
    "core.collector.components": "count",
    "stats.share": "ratio",
    "cluster.node.publish.calls": "count",
    "cluster.node.publish.busy_s": "s",
    "cluster.network.send.calls": "count",
    "cluster.network.send.busy_s": "s",
    "cluster.network.bytes_per_record": "bytes",
    "core.catalog.put.calls": "count",
    "core.catalog.retract.calls": "count",
    "core.catalog.entries": "count",
    "core.catalog.anti_entries": "count",
    "core.cache.gets": "count",
    "core.cache.hit_ratio": "ratio",
    "core.cache.invalidations": "count",
    "core.estimator.lazy_merges": "count",
    "cluster.serving.requests": "count",
    "cluster.serving.queue_wait_s": "s",
    "cluster.feeds.consumer_self_s": "s",
    "cluster.feeds.checkpoints": "count",
    "recovery.replayed_ops": "count",
    "recovery.range_estimates_changed": "count",
}


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100.0 * len(ordered)) - 1)]


def tail(values: list[float]) -> tuple[float, float]:
    """``(p, value)``: the highest ladder percentile with at least
    ``MIN_BEYOND`` samples above its rank (the median when the sample is
    too small for any)."""
    n = len(values)
    for p in TAIL_LADDER:
        rank = max(0, math.ceil(p / 100.0 * n) - 1)
        if n - 1 - rank >= MIN_BEYOND:
            return p, percentile(values, p)
    return 50.0, percentile(values, 50.0)


def end_to_end(
    outcome: Any, setup_seconds: float, rss_mb: float, factor: float
) -> tuple[dict, list[str]]:
    """Every end-to-end metric as ``name -> value``, timings in reference
    seconds (measured times multiplied by ``factor``, see
    ``calibration.py``), plus report lines naming each percentile with
    its sample count and giving the raw timings."""
    samples = outcome.samples
    values: dict[str, float] = {}
    notes: list[str] = []

    def timing(name: str, series: list[float], scale: float, with_tail: str | None) -> None:
        stride = math.ceil(len(series) / MAX_SAMPLES)
        counted = f"{len(series[::stride])} samples" + (
            f" (every {stride}th of {len(series)})" if stride > 1 else ""
        )
        series = series[::stride]
        values[name] = percentile(series, 50.0) * scale
        notes.append(f"{name}: p50 of {counted}")
        if with_tail is not None:
            p, value = tail(series)
            values[with_tail] = value * scale
            notes.append(f"{with_tail}: p{p:g} of {counted}")

    notes.append(f"timed phase: {outcome.timed_seconds:.3f} s")
    values["setup_s"] = setup_seconds
    values["write.ops_per_s"] = samples.write_ops / samples.write_seconds
    timing("write.batch_p50_ms", samples.write_batch, 1e3, "write.batch_tail_ms")
    timing("estimate.p50_us", samples.estimate, 1e6, "estimate.tail_us")
    timing("ndv.p50_us", samples.ndv, 1e6, None)
    timing("fresh.p50_ms", samples.fresh, 1e3, "fresh.tail_ms")
    values["estimate.nae"] = outcome.nae
    values["ndv.rel_err"] = outcome.ndv_rel_err
    values["space_amp"] = outcome.space_amp
    values["recovery_s"] = outcome.recovery_seconds
    values["peak_rss_mb"] = rss_mb
    notes.append(f"calibration: reference seconds per measured second = {factor:.4f}")
    for name, unit in END_TO_END.items():
        if unit in _TIME_UNITS:
            notes.append(f"raw {name} = {values[name]:.6g} {unit}")
            values[name] *= factor
        elif unit == "1/s":
            notes.append(f"raw {name} = {values[name]:.6g} {unit}")
            values[name] /= factor
    return {name: values[name] for name in END_TO_END}, notes


def per_layer(summary: TraceSummary, window: dict[str, float],
              overhead_seconds: float, untraced_seconds: float) -> dict[str, float]:
    """Every per-layer metric from the traced run's spans, tallies and
    the program's own counters over the traced window."""
    s = summary
    tallies = window["tallies"]
    probes = tallies.get("bloom.probes", 0)
    hits, misses = window["cache.hit"], window["cache.miss"]
    write_roots = sum(sum(s.root_durations.get(name, [])) for name in WRITE_ROOTS)
    stats_seconds = sum(
        s.self_under(layer, names, WRITE_ROOTS) for layer, names in _STATISTICS_FUNCTIONS
    )
    serving = s.durations_of("cluster.serving", "EstimateService.estimate")
    worker = s.root_durations.get("LSMCluster.estimate_detailed", [])
    values = {
        "trace.root_s": s.root_seconds,
        "trace.unattributed_s": s.unattributed,
        "trace.balance_err": s.balance_error,
        "trace.overhead_s": overhead_seconds,
        "trace.overhead_frac": overhead_seconds / untraced_seconds,
        "trace.spans": s.spans,
        **{f"{layer}.self_s": s.layer_self.get(layer, 0.0) for layer in LAYERS},
        "lsm.memtable.write.calls": s.calls_of("lsm.memtable", "MemTable.write"),
        "lsm.memtable.write.busy_s": s.busy_of("lsm.memtable", "MemTable.write"),
        "lsm.memtable.drain.busy_s": s.busy_of("lsm.memtable", "MemTable.sorted_columnar_chunks"),
        "lsm.wal.log_op.calls": s.calls_of("lsm.wal", "WriteAheadLog.log_op"),
        "lsm.wal.log_op.busy_s": s.busy_of("lsm.wal", "WriteAheadLog.log_op"),
        "lsm.wal.sync.calls": s.calls_of("lsm.wal", "WriteAheadLog.sync"),
        "lsm.wal.replay.busy_s": s.busy_of("lsm.wal", "WriteAheadLog.replay"),
        "lsm.manifest.commit.calls": s.calls_of("lsm.manifest", "Manifest.commit", "Manifest.commit_txn"),
        "lsm.manifest.commit.busy_s": s.busy_of("lsm.manifest", "Manifest.commit", "Manifest.commit_txn"),
        "lsm.manifest.replay.busy_s": s.busy_of("lsm.manifest", "Manifest.replay"),
        "lsm.tree.flush.calls": s.calls_of("lsm.tree", "LSMTree.flush_one_immutable"),
        "lsm.tree.flush.busy_s": s.busy_of("lsm.tree", "LSMTree.flush_one_immutable"),
        "lsm.tree.flush.self_s": s.self_of("lsm.tree", "LSMTree.flush_one_immutable"),
        "lsm.tree.merge.calls": s.calls_of("lsm.tree", "LSMTree.merge"),
        "lsm.tree.merge.busy_s": s.busy_of("lsm.tree", "LSMTree.merge"),
        "lsm.tree.merge.self_s": s.self_of("lsm.tree", "LSMTree.merge"),
        "lsm.tree.merge.records_rewritten": tallies.get("merge.records_rewritten", 0),
        "lsm.tree.bulkload.calls": s.calls_of("lsm.tree", "LSMTree.bulkload"),
        "lsm.tree.bulkload.busy_s": s.busy_of("lsm.tree", "LSMTree.bulkload"),
        "lsm.btree.build.busy_s": s.busy_of("lsm.btree", "build_btree", "build_btree_chunks"),
        "lsm.bloom.add_all.busy_s": s.busy_of("lsm.bloom", "BloomFilter.add_all"),
        "lsm.bloom.probes": probes,
        "lsm.bloom.negative_ratio": tallies.get("bloom.negatives", 0) / probes if probes else 0.0,
        "lsm.storage.pages_written": window["pages_written"],
        "lsm.storage.pages_read": window["pages_read"],
        "lsm.storage.write_amp": (
            window["bytes_written"] / window["user_bytes"] if window["user_bytes"] else 0.0
        ),
        "synopses.add_many.busy_s": s.busy_of("synopses", "SynopsisBuilder.add_many"),
        "synopses.build.busy_s": s.busy_of("synopses", "SynopsisBuilder.build"),
        "synopses.merge.calls": s.calls_of("synopses", "Synopsis.merge_with"),
        "synopses.merge.busy_s": s.busy_of("synopses", "Synopsis.merge_with"),
        "synopses.estimate.busy_s": s.busy_of(
            "synopses", "WaveletSynopsis.estimate", "HyperLogLogSynopsis.cardinality"
        ),
        "synopses.hbs.busy_s": s.busy_of("synopses", "HBSCodec.encode", "HBSCodec.decode"),
        "core.collector.components": s.calls_of("core.collector", "StatisticsCollector.begin_component_write"),
        "stats.share": stats_seconds / write_roots if write_roots else 0.0,
        "cluster.node.publish.calls": s.calls_of("cluster.node", "NetworkStatisticsSink.publish"),
        "cluster.node.publish.busy_s": s.busy_of("cluster.node", "NetworkStatisticsSink.publish"),
        "cluster.network.send.calls": s.calls_of("cluster.network", "Network.send"),
        "cluster.network.send.busy_s": s.busy_of("cluster.network", "Network.send"),
        "cluster.network.bytes_per_record": (
            window["wire_bytes"] / window["write_ops"] if window["write_ops"] else 0.0
        ),
        "core.catalog.put.calls": s.calls_of("core.catalog", "StatisticsCatalog.put"),
        "core.catalog.retract.calls": s.calls_of("core.catalog", "StatisticsCatalog.retract"),
        "core.catalog.entries": window["catalog_entries"],
        "core.catalog.anti_entries": window["catalog_anti_entries"],
        "core.cache.gets": hits + misses,
        "core.cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "core.cache.invalidations": window["cache.invalidation"],
        "core.estimator.lazy_merges": window["lazy_merges"],
        "cluster.serving.requests": len(serving),
        "cluster.serving.queue_wait_s": sum(a - b for a, b in zip(serving, worker)),
        "cluster.feeds.consumer_self_s": s.self_of("cluster.feeds", "ResumableFeedConsumer.run"),
        "cluster.feeds.checkpoints": window["checkpoints"],
        "recovery.replayed_ops": window["replayed_ops"],
        "recovery.range_estimates_changed": window["range_estimates_changed"],
    }
    return {name: float(values[name]) for name in PER_LAYER}
