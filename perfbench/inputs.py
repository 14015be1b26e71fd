"""Seeded input generation for the front-door benchmark.

Everything the program under test receives -- documents, feed
operations, estimate queries -- is made here from the run's seed, with
no dependency on ``repro.workloads``, so a change to the program's own
generators cannot change the load.  The same seed always yields the
same inputs.

Primary keys are sequential (like tweet ids); the seed decides every
field value, the order of updates and deletes, and the queries.  The
value distributions are fixed by constants, so runs with different
seeds sample the same distributions.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Any

VALUE_DOMAIN = (0, 4095)
"""Zipf-skewed ``value`` field (the paper's synthetic indexed field)."""

UNI_DOMAIN = (0, 65535)
"""Uniform ``uni`` field."""

TS_DOMAIN = (0, 2**21 - 1)
"""Monotone timestamp-like ``ts`` field: ``pk * TS_STEP + jitter``."""

PK_DOMAIN = (0, 2**20 - 1)

TS_STEP = 8
ZIPF_SKEW = 1.0
_RANK_STRIDE = 1237
"""Odd stride: rank ``r`` of the Zipf law maps to value
``r * stride mod 4096``, a fixed permutation that scatters the frequent
values over the domain independently of the seed."""

_WORDS = (
    "signal", "plan", "network", "voice", "speed", "iphone", "samsung",
    "coverage", "outage", "upgrade", "roaming", "battery", "support",
    "billing", "fiber", "tower", "data", "unlimited", "contract", "store",
)


def _zipf_table() -> tuple[list[int], list[float]]:
    size = VALUE_DOMAIN[1] - VALUE_DOMAIN[0] + 1
    values = [(rank * _RANK_STRIDE) % size for rank in range(size)]
    cumulative = list(
        itertools.accumulate(1.0 / (rank + 1) ** ZIPF_SKEW for rank in range(size))
    )
    return values, cumulative


_ZIPF_VALUES, _ZIPF_CUMULATIVE = _zipf_table()


class DocumentFactory:
    """Tweet-like documents with three indexable integer fields."""

    def __init__(self, rng: random.Random) -> None:
        self._rng = rng

    def zipf_value(self) -> int:
        return self._rng.choices(_ZIPF_VALUES, cum_weights=_ZIPF_CUMULATIVE)[0]

    def document(self, pk: int) -> dict[str, Any]:
        rng = self._rng
        return {
            "id": pk,
            "value": self.zipf_value(),
            "uni": rng.randint(*UNI_DOMAIN),
            "ts": pk * TS_STEP + rng.randrange(TS_STEP),
            "user": f"user{rng.randrange(5000):04d}",
            "text": " ".join(rng.choice(_WORDS) for _ in range(10)),
        }

    def documents(self, first_pk: int, count: int) -> list[dict[str, Any]]:
        return [self.document(pk) for pk in range(first_pk, first_pk + count)]


@dataclass(frozen=True)
class Op:
    """One feed operation: ``kind`` is insert, update or delete."""

    kind: str
    document: dict[str, Any]


def churn_ops(
    factory: DocumentFactory,
    rng: random.Random,
    live: dict[int, dict[str, Any]],
    next_pk: int,
    count: int,
    mix: tuple[int, int, int],
) -> tuple[list[Op], int]:
    """``count`` operations against the live set ``live`` (mutated in
    place to the state after them): inserts of fresh keys, updates of
    random live keys, and deletes that expire the oldest live key (a
    retention window).  ``mix`` gives the exact number of inserts,
    updates and deletes in every ``sum(mix)`` operations, in a seeded
    order.  The live keys must be the contiguous range below
    ``next_pk``.  Returns the operations and the next unused key."""
    keys = list(live)
    position = {pk: i for i, pk in enumerate(keys)}
    oldest = min(live)
    ops: list[Op] = []
    kinds: list[str] = []
    for _ in range(count):
        if not kinds:
            kinds = ["insert"] * mix[0] + ["update"] * mix[1] + ["delete"] * mix[2]
            rng.shuffle(kinds)
        kind = kinds.pop()
        if kind == "insert":
            document = factory.document(next_pk)
            next_pk += 1
            live[document["id"]] = document
            position[document["id"]] = len(keys)
            keys.append(document["id"])
            ops.append(Op("insert", document))
            continue
        if kind == "update":
            pk = keys[rng.randrange(len(keys))]
            document = dict(live[pk])
            document["value"] = factory.zipf_value()
            document["uni"] = rng.randint(*UNI_DOMAIN)
            live[pk] = document
            ops.append(Op("update", document))
        else:
            # Keys only leave by expiry, so the live keys stay the range
            # [oldest, next_pk).  Swap-remove keeps the key list dense.
            pk = oldest
            oldest += 1
            index = position.pop(pk)
            last = keys.pop()
            if last != pk:
                keys[index] = last
                position[last] = index
            del live[pk]
            ops.append(Op("delete", {"id": pk}))
    return ops, next_pk


def range_queries(
    rng: random.Random, lo: int, hi: int, count: int
) -> list[tuple[int, int]]:
    """A round-robin mix of point, short (1% of the span), long (25%)
    and half-open ranges over ``[lo, hi]``."""
    span = hi - lo + 1
    queries: list[tuple[int, int]] = []
    for i in range(count):
        kind = i % 4
        if kind == 0:
            point = rng.randint(lo, hi)
            queries.append((point, point))
        elif kind in (1, 2):
            width = max(1, span // (100 if kind == 1 else 4))
            start = rng.randint(lo, max(lo, hi - width + 1))
            queries.append((start, min(hi, start + width - 1)))
        else:
            cut = rng.randint(lo, hi)
            queries.append((lo, cut) if rng.random() < 0.5 else (cut, hi))
    return queries
