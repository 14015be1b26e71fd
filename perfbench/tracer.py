"""Span recorder for the traced run.

The traced run wraps the public functions of each layer module of the
program from here, without touching the program's sources.  A wrapper is
patched where its caller looks the name up: methods on their class,
module functions in the namespace of the module that calls them (for
example ``build_btree`` as bound in ``repro.lsm.tree``, together with
that module's chunk-builder table).  Wrappers must be installed before
the cluster is built, because some callables are bound at construction
(the master's network handler, each tree's index builder); while the
recorder is inactive they only forward the call.

Each span records its function, start, end, parent span and the id of
the benchmark operation it belongs to.  Spans live in per-thread arrays
in memory and are written out when the run ends.  A span's self time is
its duration minus the part of its interval its child spans cover.
Benchmark operations are the root spans; their self time is the
benchmark's own code between program calls and is reported as
"unattributed".
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import threading
import time
from array import array
from typing import Any, Callable, Iterator

import numpy as np

clock = time.perf_counter

BALANCE_TOLERANCE = 0.01
"""Largest allowed ``|sum(self) + unattributed - sum(roots)| / sum(roots)``."""

ROOT_LAYER = "bench"


def _tally_bloom_probe(recorder: "Recorder", args: tuple, result: Any) -> None:
    recorder.tally("bloom.probes")
    if not result:
        recorder.tally("bloom.negatives")


def _tally_merge_input(recorder: "Recorder", args: tuple, result: Any) -> None:
    recorder.tally("merge.records_rewritten", sum(c.record_count for c in args[1]))


# (module where the caller looks the name up, attribute, layer, hook).
# Generator functions are detected and get one span per ``next()``.
TARGETS: tuple[tuple[str, str, str, Callable | None], ...] = (
    *(
        ("repro.cluster.cluster", f"LSMCluster.{name}", "cluster.cluster", None)
        for name in (
            "insert", "insert_many", "update", "delete", "get", "bulkload",
            "flush_all", "drain_maintenance", "estimate_detailed",
            "estimate_ndv_detailed", "restart_nodes", "recover_statistics",
            "count_records", "count_secondary_range",
        )
    ),
    *(
        ("repro.cluster.node", f"StorageNode.{name}", "cluster.node", None)
        for name in (
            "insert", "insert_many", "update", "delete", "bulkload", "flush",
            "restart", "count_records", "count_secondary_range",
        )
    ),
    *(
        ("repro.cluster.node", f"NetworkStatisticsSink.{name}", "cluster.node", None)
        for name in ("publish", "retract", "reset", "flush_outbox")
    ),
    ("repro.cluster.network", "Network.send", "cluster.network", None),
    ("repro.cluster.master", "ClusterController._on_message", "cluster.master", None),
    ("repro.cluster.master", "ClusterController.estimate_detailed", "cluster.master", None),
    ("repro.cluster.master", "ClusterController.estimate_ndv_detailed", "cluster.master", None),
    ("repro.cluster.master", "synopsis_from_payload", "synopses", None),
    ("repro.cluster.serving", "EstimateService.estimate", "cluster.serving", None),
    ("repro.cluster.feeds", "ResumableFeedConsumer.run", "cluster.feeds", None),
    ("repro.cluster.feeds", "FeedCursorStore.checkpoint", "cluster.feeds", None),
    ("repro.cluster.feeds", "FeedCursorStore.mark_applied", "cluster.feeds", None),
    *(
        ("repro.core.catalog", f"StatisticsCatalog.{name}", "core.catalog", None)
        for name in ("put", "retract", "reset_partition", "entries_for")
    ),
    *(
        ("repro.core.cache", f"MergedSynopsisCache.{name}", "core.cache", None)
        for name in ("get", "put", "invalidate")
    ),
    ("repro.core.estimator", "CardinalityEstimator.estimate_detailed", "core.estimator", None),
    ("repro.core.estimator", "CardinalityEstimator.estimate_ndv_detailed", "core.estimator", None),
    *(
        ("repro.core.collector", f"StatisticsCollector.{name}", "core.collector", None)
        for name in (
            "begin_component_write", "component_replaced", "components_recovered",
        )
    ),
    *(
        ("repro.core.collector", f"_RegistrationSink.{name}", "core.collector", None)
        for name in ("accept", "accept_many", "finish")
    ),
    ("repro.synopses.base", "SynopsisBuilder.add_many", "synopses", None),
    ("repro.synopses.base", "SynopsisBuilder.build", "synopses", None),
    ("repro.synopses.base", "Synopsis.merge_with", "synopses", None),
    ("repro.synopses.wavelet.synopsis", "WaveletSynopsis.estimate", "synopses", None),
    ("repro.synopses.wavelet.synopsis", "WaveletSynopsis.to_payload", "synopses", None),
    ("repro.synopses.hll", "HyperLogLogSynopsis.cardinality", "synopses", None),
    ("repro.synopses.hll", "HyperLogLogSynopsis.to_payload", "synopses", None),
    ("repro.synopses.hll", "HBSCodec.encode", "synopses", None),
    ("repro.synopses.hll", "HBSCodec.decode", "synopses", None),
    *(
        ("repro.lsm.dataset", f"Dataset.{name}", "lsm.dataset", None)
        for name in (
            "insert", "insert_many", "update", "delete", "bulkload", "flush",
            "get", "count_secondary_range", "count_records", "complete_recovery",
        )
    ),
    *(
        ("repro.lsm.tree", f"LSMTree.{name}", "lsm.tree", None)
        for name in (
            "write_record", "rotate", "flush", "flush_one_immutable",
            "bulkload", "get", "install_recovered",
        )
    ),
    ("repro.lsm.tree", "LSMTree.merge", "lsm.tree", _tally_merge_input),
    ("repro.lsm.tree", "build_btree", "lsm.btree", None),
    ("repro.lsm.tree", "build_btree_chunks", "lsm.btree", None),
    ("repro.lsm.tree", "btree_from_descriptor", "lsm.btree", None),
    ("repro.lsm.tree", "columnar_chunk_stream", "lsm.columnar", None),
    ("repro.lsm.btree", "DiskBTree.lookup", "lsm.btree", None),
    ("repro.lsm.memtable", "MemTable.write", "lsm.memtable", None),
    ("repro.lsm.memtable", "MemTable.get", "lsm.memtable", None),
    ("repro.lsm.memtable", "MemTable.sorted_columnar_chunks", "lsm.memtable", None),
    *(
        ("repro.lsm.wal", f"WriteAheadLog.{name}", "lsm.wal", None)
        for name in ("log_op", "sync", "truncate", "replay")
    ),
    *(
        ("repro.lsm.manifest", f"Manifest.{name}", "lsm.manifest", None)
        for name in ("begin", "commit", "begin_txn", "commit_txn", "replay")
    ),
    ("repro.lsm.bloom", "BloomFilter.add", "lsm.bloom", None),
    ("repro.lsm.bloom", "BloomFilter.add_all", "lsm.bloom", None),
    ("repro.lsm.bloom", "BloomFilter.might_contain", "lsm.bloom", _tally_bloom_probe),
)


class _ThreadSpans:
    """One thread's spans, as parallel arrays indexed by span id."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.fn = array("q")
        self.parent = array("q")
        self.op = array("q")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.mark = 0  # spans recorded before Recorder.mark()

    def enter(self, fn_id: int, op_id: int) -> int:
        index = len(self.fn)
        self.fn.append(fn_id)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.op.append(op_id)
        self.end.append(0.0)
        self.stack.append(index)
        self.start.append(clock())
        return index

    def exit(self, index: int) -> None:
        self.end[index] = clock()
        if self.stack.pop() != index:
            raise RuntimeError("span stack out of order")


class NullRecorder:
    """Stand-in for untraced runs and set-up: every span is one shared
    no-op context."""

    _null = contextlib.nullcontext()

    def span(self, layer: str, name: str) -> contextlib.nullcontext:
        return self._null

    def recording(self) -> contextlib.nullcontext:
        return self._null

    def mark(self) -> None:
        return None


NULL_RECORDER = NullRecorder()


class Recorder:
    """Collects spans from every thread while ``active``."""

    def __init__(self) -> None:
        self.active = False
        self.functions: list[tuple[str, str]] = []
        self._function_ids: dict[tuple[str, str], int] = {}
        self._threads: list[_ThreadSpans] = []
        self._threads_lock = threading.Lock()
        self._local = threading.local()
        self._op_id = 0
        self.tallies: dict[str, float] = {}
        # Counter deltas accumulated over the recording blocks, read
        # from ``probe`` (a callable returning ``name -> value``).
        self.probe: Callable[[], dict[str, float]] | None = None
        self.window: dict[str, float] = {}

    def function_id(self, layer: str, name: str) -> int:
        key = (layer, name)
        if key not in self._function_ids:
            self._function_ids[key] = len(self.functions)
            self.functions.append(key)
        return self._function_ids[key]

    def spans(self) -> _ThreadSpans:
        spans = getattr(self._local, "spans", None)
        if spans is None:
            spans = _ThreadSpans(threading.current_thread().name)
            self._local.spans = spans
            with self._threads_lock:
                self._threads.append(spans)
        return spans

    def tally(self, key: str, amount: float = 1) -> None:
        self.tallies[key] = self.tallies.get(key, 0) + amount

    @contextlib.contextmanager
    def span(self, layer: str, name: str) -> Iterator[None]:
        """A benchmark-side span; at the top of the main thread's stack
        it is a root and starts a new operation id."""
        if not self.active:
            yield
            return
        spans = self.spans()
        if not spans.stack:
            self._op_id += 1
        index = spans.enter(self.function_id(layer, name), self._op_id)
        try:
            yield
        finally:
            spans.exit(index)

    @contextlib.contextmanager
    def recording(self) -> Iterator[None]:
        """Record spans for the duration of the block."""
        before = self.probe() if self.probe is not None else {}
        self.active = True
        try:
            yield
        finally:
            self.active = False
            if self.probe is not None:
                for key, value in self.probe().items():
                    self.window[key] = self.window.get(key, 0) + value - before[key]

    def mark(self) -> None:
        """Remember how many spans each thread has recorded so far."""
        for spans in self._threads:
            spans.mark = len(spans.fn)

    # -- wrapping --------------------------------------------------------

    def _wrap(self, fn: Callable, fn_id: int, hook: Callable | None) -> Callable:
        recorder = self
        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def generator_wrapper(*args: Any, **kwargs: Any) -> Any:
                iterator = fn(*args, **kwargs)
                if not recorder.active:
                    return iterator
                return recorder._traced_iteration(iterator, fn_id)

            return generator_wrapper

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not recorder.active:
                return fn(*args, **kwargs)
            spans = recorder.spans()
            index = spans.enter(fn_id, recorder._op_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans.exit(index)
            if hook is not None:
                hook(recorder, args, result)
            return result

        return wrapper

    def _traced_iteration(self, iterator: Iterator, fn_id: int) -> Iterator:
        try:
            while True:
                spans = self.spans()
                index = spans.enter(fn_id, self._op_id)
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    spans.exit(index)
                yield item
        finally:
            iterator.close()

    @contextlib.contextmanager
    def installed(self) -> Iterator["Recorder"]:
        """Patch every target for the duration of the block."""
        restore: list[tuple[Any, str, Any]] = []
        wrapped: dict[Any, Any] = {}
        try:
            for module_name, attribute, layer, hook in TARGETS:
                module = importlib.import_module(module_name)
                owner: Any = module
                name = attribute
                if "." in attribute:
                    class_name, name = attribute.split(".")
                    owner = getattr(module, class_name)
                original = owner.__dict__[name]
                fn_id = self.function_id(layer, attribute)
                if isinstance(original, classmethod):
                    replacement: Any = classmethod(
                        self._wrap(original.__func__, fn_id, hook)
                    )
                else:
                    replacement = self._wrap(original, fn_id, hook)
                    wrapped[original] = replacement
                restore.append((owner, name, original))
                setattr(owner, name, replacement)
            # The tree module picks a chunk-consuming twin for its index
            # builder from this table, keyed by the builder it bound.
            tree = importlib.import_module("repro.lsm.tree")
            table = tree._CHUNK_INDEX_BUILDERS
            restore.append((tree, "_CHUNK_INDEX_BUILDERS", table))
            tree._CHUNK_INDEX_BUILDERS = {
                wrapped.get(key, key): wrapped.get(value, value)
                for key, value in table.items()
            }
            yield self
        finally:
            for owner, name, original in reversed(restore):
                setattr(owner, name, original)

    # -- analysis --------------------------------------------------------

    def analyse(self) -> "TraceSummary":
        return TraceSummary(self)

    def write(self, path: str) -> None:
        """Write every span to a compressed ``.npz`` file: the function
        table (``functions``, JSON) and, per thread ``t``, the arrays
        ``t<i>.fn``, ``.parent``, ``.op``, ``.start`` and ``.end``."""
        arrays: dict[str, Any] = {
            "functions": np.array(json.dumps(self.functions)),
            "threads": np.array(json.dumps([spans.name for spans in self._threads])),
        }
        for i, spans in enumerate(self._threads):
            for field in ("fn", "parent", "op", "start", "end"):
                arrays[f"t{i}.{field}"] = np.frombuffer(
                    getattr(spans, field), dtype=np.float64 if field in ("start", "end") else np.int64
                )
        np.savez_compressed(path, **arrays)


class TraceSummary:
    """Per-function and per-layer totals derived from the spans."""

    def __init__(self, recorder: Recorder) -> None:
        self.functions = list(recorder.functions)
        count = len(self.functions)
        self.problems: list[str] = []
        threads = [self._arrays(spans) for spans in recorder._threads if len(spans.fn)]
        # Operation id -> name of the benchmark root span that started it;
        # spans on other threads inherit the id of the operation in flight.
        root_name: dict[int, str] = {}
        for t in threads:
            for index in np.nonzero(t["parent"] < 0)[0]:
                layer, name = self.functions[t["fn"][index]]
                if layer == ROOT_LAYER:
                    root_name[int(t["op"][index])] = name
        self.calls = np.zeros(count)
        self.busy = np.zeros(count)
        self.self_time = np.zeros(count)
        self.calls_before_mark = np.zeros(count)
        roots_seen = sorted(set(root_name.values()))
        self._root_index = {name: i + 1 for i, name in enumerate(roots_seen)}
        self._self_by_root = np.zeros((len(roots_seen) + 1, count))
        self.root_durations: dict[str, list[float]] = {}
        self.root_seconds = 0.0
        self.spans = 0
        self._threads = threads
        for t in threads:
            fn, duration, self_time = t["fn"], t["duration"], t["self"]
            self.calls += np.bincount(fn, minlength=count)
            self.busy += np.bincount(fn, weights=duration, minlength=count)
            self.self_time += np.bincount(fn, weights=self_time, minlength=count)
            self.calls_before_mark += np.bincount(fn[: t["mark"]], minlength=count)
            roots = t["parent"] < 0
            self.root_seconds += float(duration[roots].sum())
            for fn_id in np.unique(fn[roots]):
                name = self.functions[fn_id][1]
                self.root_durations.setdefault(name, []).extend(
                    duration[roots & (fn == fn_id)].tolist()
                )
            # Row of the root each span's operation started from (row 0:
            # operations with no benchmark root).
            op_root = np.zeros(int(t["op"].max()) + 1, dtype=np.int64)
            for op, name in root_name.items():
                if op < len(op_root):
                    op_root[op] = self._root_index[name]
            key = op_root[t["op"]] * count + fn
            self._self_by_root += np.bincount(
                key, weights=self_time, minlength=self._self_by_root.size
            ).reshape(self._self_by_root.shape)
            self.spans += len(fn)
        layers = sorted({layer for layer, _ in self.functions})
        self.layer_self = {
            layer: float(self.self_time[self._select(layer, None)].sum()) for layer in layers
        }
        self.unattributed = self.layer_self.get(ROOT_LAYER, 0.0)
        attributed = sum(
            seconds for layer, seconds in self.layer_self.items() if layer != ROOT_LAYER
        )
        self.balance_error = (
            abs(attributed + self.unattributed - self.root_seconds) / self.root_seconds
            if self.root_seconds
            else 0.0
        )
        if self.balance_error > BALANCE_TOLERANCE:
            self.problems.append(
                f"layer self times + unattributed differ from root time by "
                f"{self.balance_error:.2%} (tolerance {BALANCE_TOLERANCE:.0%})"
            )

    def _arrays(self, spans: _ThreadSpans) -> dict[str, Any]:
        if spans.stack:
            self.problems.append(f"thread {spans.name}: {len(spans.stack)} spans left open")
        fn = np.array(spans.fn, dtype=np.int64)
        parent = np.array(spans.parent, dtype=np.int64)
        start = np.array(spans.start, dtype=np.float64)
        end = np.array(spans.end, dtype=np.float64)
        if np.any(end < start):
            self.problems.append(f"thread {spans.name}: a span ends before it starts")
        child = np.nonzero(parent >= 0)[0]
        owner = parent[child]
        # The part of the parent's interval each child covers.  A child
        # leaking out of its parent, or siblings overlapping, makes the
        # layer totals miss the root total (the balance check).
        covered = np.clip(
            np.minimum(end[child], end[owner]) - np.maximum(start[child], start[owner]),
            0.0,
            None,
        )
        duration = end - start
        return {
            "fn": fn,
            "parent": parent,
            "op": np.array(spans.op, dtype=np.int64),
            "duration": duration,
            "self": duration - np.bincount(owner, weights=covered, minlength=len(fn)),
            "mark": spans.mark,
        }

    def _select(self, layer: str | None, names: tuple[str, ...] | None) -> list[int]:
        return [
            i
            for i, (fn_layer, name) in enumerate(self.functions)
            if (layer is None or fn_layer == layer) and (names is None or name in names)
        ]

    def calls_of(self, layer: str, *names: str) -> float:
        return float(self.calls[self._select(layer, names)].sum())

    def busy_of(self, layer: str, *names: str) -> float:
        return float(self.busy[self._select(layer, names)].sum())

    def self_of(self, layer: str, *names: str) -> float:
        return float(self.self_time[self._select(layer, names)].sum())

    def calls_before_mark_of(self, *names: str) -> float:
        """Calls, in any layer, recorded before ``Recorder.mark()``."""
        return float(self.calls_before_mark[self._select(None, names)].sum())

    def self_under(self, layer: str, names: tuple[str, ...] | None,
                   roots: tuple[str, ...]) -> float:
        """Self time of the selected functions inside operations whose
        root span is one of ``roots``."""
        rows = [self._root_index[root] for root in roots if root in self._root_index]
        return float(self._self_by_root[np.ix_(rows, self._select(layer, names))].sum())

    def per_function(self) -> list[dict[str, Any]]:
        """``calls``, ``busy_s`` and ``self_s`` of every wrapped function."""
        return [
            {
                "layer": layer,
                "function": name,
                "calls": int(self.calls[i]),
                "busy_s": float(self.busy[i]),
                "self_s": float(self.self_time[i]),
            }
            for i, (layer, name) in enumerate(self.functions)
        ]

    def durations_of(self, layer: str, name: str) -> list[float]:
        """Durations of every span of the selected function, in order."""
        selected = self._select(layer, (name,))
        return [
            seconds
            for t in self._threads
            for seconds in t["duration"][np.isin(t["fn"], selected)].tolist()
        ]
