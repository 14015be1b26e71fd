"""Test-side reference: the tuple-stack streaming Haar transform.

This is the original per-position implementation of Algorithm 1 (a
stack of ``(level, key, average)`` tuples driven by ``add`` ->
``_fill_gap`` -> ``_push`` -> ``_emit``), kept verbatim as the oracle
for the batched :class:`repro.synopses.wavelet.streaming.StreamingWaveletTransform`.
The production transform must emit the same coefficients, with the
same heap insertions, in the same order
(``tests/synopses/test_streaming_oracle.py``).
"""

from __future__ import annotations

from repro.errors import SynopsisError
from repro.synopses.wavelet.coefficient import (
    WaveletCoefficient,
    normalized_weight,
)
from repro.util.bounded_heap import BoundedMinHeap


class StreamingWaveletTransform:
    """One-pass Haar transform of a sparse, sorted frequency stream.

    Args:
        levels: ``log2`` of the (padded) domain length.
        budget: Retain only the ``budget`` heaviest coefficients, or
            ``None`` to keep every non-zero coefficient (used by the
            equivalence tests and by ground-truth tooling).
        encode_prefix_sum: ``True`` (the paper's default) transforms the
            running prefix sum of the frequencies -- the "dense
            datacube" optimisation; ``False`` transforms the raw sparse
            frequency signal itself (the ablation baseline the paper
            argues against in Section 3.2).
    """

    def __init__(
        self,
        levels: int,
        budget: int | None = None,
        encode_prefix_sum: bool = True,
    ) -> None:
        if levels < 0:
            raise SynopsisError(f"levels must be >= 0, got {levels}")
        self.levels = levels
        self.length = 1 << levels
        self.encode_prefix_sum = encode_prefix_sum
        self._heap = BoundedMinHeap(budget) if budget is not None else None
        self._kept: list[WaveletCoefficient] = []  # used when budget is None
        # Stack entries are (level, key, average): the average over the
        # dyadic positions [key * 2^level, (key+1) * 2^level - 1].
        self._stack: list[tuple[int, int, float]] = []
        self._covered = 0  # positions transformed so far
        self._prefix = 0.0  # running sum of frequencies
        self._finished = False

    def add(self, position: int, frequency: float) -> None:
        """Feed the next distinct position (strictly increasing)."""
        if self._finished:
            raise SynopsisError("transform already finished")
        position = int(position)  # normalise numpy integer scalars
        if not 0 <= position < self.length:
            raise SynopsisError(
                f"position {position} outside signal of length {self.length}"
            )
        if position < self._covered:
            raise SynopsisError(
                f"positions must be strictly increasing: {position} after "
                f"{self._covered - 1}"
            )
        # The gap before this tuple carries the unchanged prefix sum
        # (or zeros, in raw-frequency mode).
        self._fill_gap(position)
        self._prefix += frequency
        leaf_value = self._prefix if self.encode_prefix_sum else frequency
        self._push(0, position, leaf_value)
        self._covered += 1

    def finish(self) -> list[WaveletCoefficient]:
        """Close the transform and return the retained coefficients.

        Mirrors lines 7-9 of Algorithm 1: the tail of the domain is
        filled with the final prefix value, and the overall average --
        itself a valid coefficient -- joins the priority queue.
        """
        if self._finished:
            raise SynopsisError("transform already finished")
        self._finished = True
        self._fill_gap(self.length)
        assert len(self._stack) == 1 and self._stack[0][0] == self.levels
        overall_average = self._stack[0][2]
        self._emit(0, overall_average)
        if self._heap is not None:
            return list(self._heap.items())
        return self._kept

    # -- internals ---------------------------------------------------------

    def _fill_gap(self, end: int) -> None:
        """Cover positions ``[covered, end)`` -- all holding the current
        prefix value (zero in raw-frequency mode) -- with maximal
        aligned dyadic intervals."""
        fill_value = self._prefix if self.encode_prefix_sum else 0.0
        while self._covered < end:
            gap = end - self._covered
            if self._covered == 0:
                alignment = self.levels
            else:
                # Largest power of two dividing ``covered``.
                alignment = (self._covered & -self._covered).bit_length() - 1
            level = min(alignment, gap.bit_length() - 1)
            self._push(level, self._covered >> level, fill_value)
            self._covered += 1 << level

    def _push(self, level: int, key: int, average: float) -> None:
        """Push a completed dyadic interval; cascade sibling averaging.

        The stack invariant -- strictly decreasing levels from the
        bottom -- may be violated by the push; restoring it averages
        equal-level siblings, emitting their detail coefficient (the
        paper's "domino effect", Figure 1b).
        """
        self._stack.append((level, key, average))
        while len(self._stack) >= 2 and self._stack[-1][0] == self._stack[-2][0]:
            same_level, right_key, right_value = self._stack.pop()
            _level, left_key, left_value = self._stack.pop()
            assert left_key + 1 == right_key and left_key % 2 == 0
            parent_level = same_level + 1
            detail = (right_value - left_value) / 2.0
            index = (1 << (self.levels - parent_level)) + (right_key >> 1)
            self._emit(index, detail)
            self._stack.append(
                (parent_level, right_key >> 1, (left_value + right_value) / 2.0)
            )

    def _emit(self, index: int, value: float) -> None:
        if value == 0.0:
            return  # zero coefficients never survive thresholding
        coefficient = WaveletCoefficient(index, value)
        if self._heap is not None:
            self._heap.add(normalized_weight(index, value, self.levels), coefficient)
        else:
            self._kept.append(coefficient)
