"""The consistency-check core behind ``faultcheck``, ``crashcheck``,
``racecheck`` and ``servecheck``.

Every checker asks one question: after a perturbation (wire faults,
feed faults, a crash, concurrent maintenance, a killed consumer), does
the cluster end in the *exact* state of an unperturbed baseline?  They
share everything except the perturbation:

* :func:`build_cluster` -- 2 nodes x 2 partitions, equi-width synopses
  (budget 32), one dataset with a ``value_idx`` secondary index, a
  32-record memtable and ``ConstantMergePolicy(3)``; checkers pass only
  the LSMCluster options they perturb.
* :func:`images` / :func:`compare` -- the oracle.  Three images must
  match bit for bit: reconciled partition contents plus each index's
  component structure, the uid-rank catalog (entries and synopsis
  payloads), and a sweep of range estimates.
* :func:`run_leg` -- one run: fresh metrics registry, build, drive,
  settle (drain maintenance and recover statistics), compare against a
  baseline, require an empty statistics backlog, collect counters.
* :class:`CheckReport` / :func:`format_report` -- one report shape.

Component uids come from a process-global counter, so two runs in the
same process assign different absolute uids to corresponding
components.  The catalog image therefore ranks uids within each
``(index, node, partition)`` group (uid order is creation order, which
is what statistics correctness depends on).
"""

from __future__ import annotations

import textwrap
from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable

from repro.cluster.cluster import LSMCluster
from repro.cluster.node import RetryPolicy
from repro.core.config import StatisticsConfig
from repro.lsm.dataset import IndexSpec
from repro.lsm.merge_policy import ConstantMergePolicy
from repro.obs.registry import MetricsRegistry, use_registry
from repro.synopses.base import SynopsisType
from repro.types import Domain

__all__ = [
    "DATASET",
    "INDEX",
    "CheckReport",
    "Leg",
    "build_cluster",
    "compare",
    "doc",
    "format_report",
    "images",
    "run_leg",
    "settle",
    "tally",
]

DATASET = "check"
INDEX = "value_idx"


def doc(pk: int) -> dict[str, Any]:
    """The scripted document for primary key ``pk``."""
    return {"id": pk, "value": (pk * 13) % 1024}


def build_cluster(**options: Any) -> LSMCluster:
    """The shared 2x2 cluster with the check dataset created;
    ``options`` are passed through to :class:`LSMCluster`."""
    cluster = LSMCluster(
        num_nodes=2,
        partitions_per_node=2,
        stats_config=StatisticsConfig(SynopsisType.EQUI_WIDTH, budget=32),
        retry_policy=RetryPolicy.immediate(max_attempts=3),
        **options,
    )
    cluster.create_dataset(
        DATASET,
        primary_key="id",
        primary_domain=Domain(0, 2**20 - 1),
        indexes=[IndexSpec(INDEX, "value", Domain(0, 1023))],
        memtable_capacity=32,
        merge_policy_factory=lambda: ConstantMergePolicy(max_components=3),
    )
    return cluster


def settle(cluster: LSMCluster) -> int:
    """Drain background maintenance and redeliver parked statistics;
    returns the recovery rounds it took."""
    cluster.drain_maintenance()
    return cluster.recover_statistics()


def images(cluster: LSMCluster) -> dict[str, dict]:
    """The oracle's three images, each a dict so one diff covers all."""
    contents: dict = {}
    for node in cluster.nodes:
        for partition_id in node.partition_ids:
            dataset = node.dataset(DATASET, partition_id)
            key = (node.node_id, partition_id)
            contents[key + ("primary",)] = tuple(
                (record.key, record.value["value"])
                for record in dataset.primary.scan()
            )
            contents[key + (INDEX,)] = tuple(
                record.key for record in dataset.scan_secondary(INDEX)
            )
            contents[key + ("structure",)] = tuple(
                tuple(component.record_count for component in tree.components)
                for tree in (dataset.primary, dataset.secondary_tree(INDEX))
            )
    catalog: dict = {}
    ranks: Counter = Counter()
    for index_name in cluster.master.catalog.index_names():
        # entries_for sorts by (node, partition, uid): ranks are uid order.
        for entry in cluster.master.catalog.entries_for(index_name):
            group = (index_name, entry.node_id, entry.partition_id)
            catalog[group + (ranks[group],)] = (
                entry.synopsis.to_payload(),
                entry.anti_synopsis.to_payload(),
            )
            ranks[group] += 1
    estimates = {
        (lo, lo + width): cluster.estimate(DATASET, INDEX, lo, lo + width)
        for lo in range(0, 1024, 64)
        for width in (0, 15, 255)
    }
    return {"contents": contents, "catalog": catalog, "estimates": estimates}


def compare(label: str, baseline: dict, other: dict) -> list[str]:
    """Every key missing from, extra in, or changed in ``other``'s
    images relative to ``baseline``'s, as problem strings."""
    problems: list[str] = []
    for part, expected in baseline.items():
        actual = other[part]
        shared = expected.keys() & actual.keys()
        for kind, keys in (
            ("missing", expected.keys() - actual.keys()),
            ("extra", actual.keys() - expected.keys()),
            ("changed", {key for key in shared if expected[key] != actual[key]}),
        ):
            if keys:
                problems.append(f"{label}: {part} {kind} {sorted(keys)[:3]}")
    return problems


@dataclass(frozen=True)
class Leg:
    """One settled run: the cluster, its images, whatever the drive
    returned, the recovery rounds and the leg's metric counters."""

    cluster: LSMCluster
    images: dict[str, dict]
    result: Any
    recovery_rounds: int
    counters: dict[str, int]


def run_leg(
    label: str,
    drive: Callable[[LSMCluster], Any],
    problems: list[str],
    baseline: dict | None = None,
    **options: Any,
) -> Leg:
    """Build a cluster with ``options`` under a fresh registry, run
    ``drive`` on it, settle, and append to ``problems`` every divergence
    from ``baseline`` (when given) and any parked statistics.

    Each leg gets its own registry so one run's counters are not
    polluted by another's traffic (instruments bind at construction).
    """
    registry = MetricsRegistry()
    with use_registry(registry):
        cluster = build_cluster(**options)
        result = drive(cluster)
        rounds = settle(cluster)
        leg_images = images(cluster)
        cluster.shutdown()
    if baseline is not None:
        problems.extend(compare(label, baseline, leg_images))
    if cluster.statistics_backlog():
        problems.append(
            f"{label}: {cluster.statistics_backlog()} statistics messages "
            "still parked after recovery"
        )
    return Leg(
        cluster, leg_images, result, rounds, registry.snapshot()["counters"]
    )


def tally(
    counts: dict[str, int], counters: dict[str, int], names: dict[str, str]
) -> None:
    """Add each named metric counter into ``counts`` under its key."""
    for key, counter in names.items():
        counts[key] = counts.get(key, 0) + counters.get(counter, 0)


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one checker run.

    ``check`` names the checker and its parameters; ``counts`` holds
    the injected/absorbed tallies and vacuity evidence it reports.
    """

    check: str
    converged: bool
    problems: tuple[str, ...]
    counts: dict[str, int]


def format_report(report: CheckReport) -> str:
    lines = [report.check]
    lines += textwrap.wrap(
        " ".join(f"{key}={value}" for key, value in report.counts.items()),
        width=76,
        initial_indent="  ",
        subsequent_indent="  ",
    )
    if report.converged:
        lines.append(
            "  converged: contents (with component structure), catalog and\n"
            "  estimates are bit-identical to the baseline; every guard held"
        )
    else:
        lines.append("  DIVERGED:")
        lines.extend(f"    - {problem}" for problem in report.problems)
    return "\n".join(lines)
