"""Cluster-level crash restart: epoch fencing and statistics recovery."""

import pytest

from repro.cluster.cluster import LSMCluster
from repro.cluster.check import format_report
from repro.cluster.crashcheck import run_crashcheck
from repro.cluster.faults import FaultPlan, LinkFaults
from repro.cluster.node import RetryPolicy
from repro.core.config import StatisticsConfig
from repro.errors import ClusterError
from repro.lsm.dataset import IndexSpec
from repro.lsm.merge_policy import ConstantMergePolicy
from repro.synopses.base import SynopsisType
from repro.types import Domain


def _build_cluster(
    durable=True, wal_enabled=True, fault_plan=None, synopsis=SynopsisType.EQUI_WIDTH
):
    cluster = LSMCluster(
        num_nodes=2,
        partitions_per_node=2,
        stats_config=StatisticsConfig(synopsis, budget=32),
        fault_plan=fault_plan,
        retry_policy=RetryPolicy.immediate(max_attempts=3),
        durable=durable,
        wal_enabled=wal_enabled,
    )
    cluster.create_dataset(
        "ds",
        primary_key="id",
        primary_domain=Domain(0, 2**20 - 1),
        indexes=[IndexSpec("value_idx", "value", Domain(0, 1023))],
        memtable_capacity=16,
        merge_policy_factory=lambda: ConstantMergePolicy(max_components=3),
    )
    return cluster


def _ingest(cluster, records=100):
    for pk in range(records):
        cluster.insert("ds", {"id": pk, "value": (pk * 13) % 1024})
    for pk in range(0, records, 9):
        cluster.delete("ds", pk)


def test_durable_restart_preserves_contents_and_estimates():
    cluster = _build_cluster()
    _ingest(cluster)
    cluster.flush_all("ds")
    cluster.recover_statistics()
    before_count = cluster.count_records("ds")
    before_estimates = [
        cluster.estimate("ds", "value_idx", lo, lo + 63)
        for lo in range(0, 1024, 128)
    ]
    cluster.restart_nodes()
    cluster.recover_statistics()
    assert cluster.count_records("ds") == before_count
    assert [
        cluster.estimate("ds", "value_idx", lo, lo + 63)
        for lo in range(0, 1024, 128)
    ] == before_estimates


def test_wavelet_estimates_survive_restart():
    # Wavelet merges keep the top B coefficients after each pairwise
    # merge, so the estimator's fold order changes its answer.  Recovery
    # republishes every component in a new order; the catalog must
    # still hand the estimator the same fold order as before the crash.
    cluster = _build_cluster(synopsis=SynopsisType.WAVELET)
    _ingest(cluster, records=256)
    cluster.flush_all("ds")
    cluster.recover_statistics()

    def sweep():
        return [
            cluster.estimate("ds", "value_idx", lo, lo + width)
            for lo in range(0, 1024, 64)
            for width in (0, 15, 255)
        ]

    before = sweep()
    cluster.restart_nodes()
    cluster.recover_statistics()
    assert sweep() == before


def test_restart_preserves_unflushed_acked_writes():
    cluster = _build_cluster()
    _ingest(cluster, records=20)  # nothing flushed (capacity 16/partition)
    before = cluster.count_records("ds")
    cluster.restart_nodes()
    cluster.recover_statistics()
    assert cluster.count_records("ds") == before
    assert cluster.get("ds", 1) is not None


def test_non_durable_restart_loses_everything():
    cluster = _build_cluster(durable=False)
    _ingest(cluster)
    cluster.flush_all("ds")
    cluster.restart_nodes()
    cluster.recover_statistics()
    assert cluster.count_records("ds") == 0
    # The epoch reset also cleared the now-meaningless catalog entries.
    assert cluster.master.catalog.entry_count() == 0


def test_restart_bumps_epoch_and_resets_catalog_generation():
    cluster = _build_cluster()
    _ingest(cluster)
    cluster.flush_all("ds")
    cluster.recover_statistics()
    epochs_before = [node.epoch for node in cluster.nodes]
    cluster.restart_nodes()
    cluster.recover_statistics()
    assert [node.epoch for node in cluster.nodes] == [
        epoch + 1 for epoch in epochs_before
    ]
    # Every surviving catalog entry was published under the new epoch.
    catalog = cluster.master.catalog
    for index_name in catalog.index_names():
        for entry in catalog.entries_for(index_name):
            assert entry.epoch == 1


def test_stale_epoch_messages_are_fenced_out():
    cluster = _build_cluster()
    _ingest(cluster)
    cluster.flush_all("ds")
    cluster.recover_statistics()
    cluster.restart_nodes()
    cluster.recover_statistics()
    master = cluster.master
    entries_before = master.catalog.entry_count()
    # A straggler publish from the crashed incarnation (epoch 0).
    master._on_message(
        cluster.nodes[0].node_id,
        {
            "kind": "stats.publish",
            "index": "ds:primary",
            "partition": 0,
            "seq": 10**6,
            "epoch": 0,
            "component_uid": 10**6,
            "synopsis": {"type": "equi_width", "lo": 0, "hi": 1, "heights": [1]},
            "anti_synopsis": {
                "type": "equi_width",
                "lo": 0,
                "hi": 1,
                "heights": [0],
            },
        },
    )
    assert master.catalog.entry_count() == entries_before


def test_unknown_message_kind_still_rejected():
    cluster = _build_cluster()
    with pytest.raises(ClusterError):
        cluster.master._on_message("nc1", {"kind": "stats.gossip"})


def test_recover_statistics_reports_per_node_backlog():
    # A wire that drops everything: recovery cannot converge and the
    # error must name each node's parked backlog.
    hostile = FaultPlan(seed=0, default=LinkFaults(drop=1.0))
    cluster = _build_cluster(fault_plan=hostile)
    _ingest(cluster)
    cluster.flush_all("ds")
    with pytest.raises(ClusterError, match=r"nc1=\d+, nc2=\d+"):
        cluster.recover_statistics(max_rounds=5)


def test_crashcheck_converges():
    # 512 records is the smallest workload whose per-partition share
    # produces enough flushes to reach the merge crash points.
    report = run_crashcheck(seed=1, records=512)
    assert report.converged, format_report(report)
    assert report.counts["crashes_fired"] == report.counts["points_checked"]
    assert report.counts["control_records_lost"] > 0
    # The concurrent sweep (virtual scheduler) must actually crash
    # inside background maintenance tasks, not degrade to a no-op.
    assert report.counts["concurrent_points_checked"]
    assert (
        report.counts["concurrent_crashes_fired"]
        == report.counts["concurrent_points_checked"]
    )
