"""The benchmark's own model of the live data.

The model is the dictionary of live documents the input generator
maintains while it makes the operations; the program never sees it.
Output checks and the accuracy metrics compare the program's answers
with the counts derived here.
"""

from __future__ import annotations

import json
from bisect import bisect_left, bisect_right
from typing import Any, Iterable


class Oracle:
    """Exact answers over a ``pk -> document`` map of live records."""

    def __init__(self, live: dict[int, dict[str, Any]]) -> None:
        self.live = live
        self._sorted: dict[str, list[int]] = {}

    def count(self) -> int:
        return len(self.live)

    def get(self, pk: int) -> dict[str, Any] | None:
        return self.live.get(pk)

    def range_count(self, field: str, lo: int, hi: int) -> int:
        """Live records with ``lo <= document[field] <= hi``."""
        values = self._sorted.get(field)
        if values is None:
            if field == "id":
                values = sorted(self.live)
            else:
                values = sorted(doc[field] for doc in self.live.values())
            self._sorted[field] = values
        return bisect_right(values, hi) - bisect_left(values, lo)

    def user_bytes(self) -> int:
        return user_bytes(self.live.values())


def user_bytes(documents: Iterable[dict[str, Any]]) -> int:
    """Serialised size of the documents (compact JSON)."""
    return sum(len(json.dumps(doc, separators=(",", ":"))) for doc in documents)


def normalized_absolute_error(
    oracle: Oracle, field: str, queries: list[tuple[int, int]], estimates: list[float]
) -> float:
    """The paper's accuracy metric: mean ``|C - C_hat| / N`` over the
    queries, ``N`` being the live record count."""
    total = oracle.count()
    errors = [
        abs(oracle.range_count(field, lo, hi) - estimate) / total
        for (lo, hi), estimate in zip(queries, estimates)
    ]
    return sum(errors) / len(errors)
