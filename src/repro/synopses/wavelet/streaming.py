"""Streaming prefix-sum Haar decomposition (the paper's Algorithm 1).

The classic decomposition allocates arrays as long as the value domain
-- hopeless for 64-bit domains.  Algorithm 1 instead streams the sorted
``(position, frequency)`` tuples and maintains:

* the *partial averages* of the completed dyadic intervals on the
  current root-to-leaf path of the error tree, one per resolution
  level.  Those intervals tile ``[0, covered)`` with strictly
  decreasing sizes, so they are exactly the binary decomposition of
  ``covered``: level ``l`` holds an average iff bit ``l`` of
  ``covered`` is set, and its key is ``(covered >> l) - 1``.  The paper's
  stack is therefore a flat per-level list indexed by the set bits of
  ``covered`` (depth at most ``logM``), and pushing a completed
  interval is a binary carry: while the bit at the pushed level is
  set, average with that left sibling, emit the detail coefficient
  (the "domino effect" of Figure 1b) and move up a level;
* a *bounded priority queue* retaining only the ``B`` most significant
  coefficients by normalized weight.

Because the transform encodes the *prefix sum* of the frequency signal
(the "dense datacube" trick of Section 3.2), the gaps between sparse
input positions carry the constant current prefix.  Each gap is covered
greedily by maximal aligned dyadic intervals -- the paper's
``calcDyadicIntervals`` -- each pushed as one interval whose subtree is
internally constant (all its interior detail coefficients are zero and
need never be materialised).  The total work is ``O(n logM)`` for ``n``
distinct positions, independent of the domain length.

:meth:`StreamingWaveletTransform.add_runs` steps a whole chunk of runs
in one loop over local variables; :meth:`~StreamingWaveletTransform.add`
is a one-run call.  Coefficients enter the queue as ``(index, value)``
pairs and become :class:`WaveletCoefficient` objects only in
:meth:`~StreamingWaveletTransform.finish`.

The output is bit-for-bit the same coefficient set as
:func:`repro.synopses.wavelet.classic.classic_decompose` applied to the
full prefix-sum signal -- a property the test suite checks exhaustively.
"""

from __future__ import annotations

from typing import Callable, Sequence

from repro.errors import SynopsisError
from repro.synopses.wavelet.coefficient import WaveletCoefficient
from repro.util.bounded_heap import BoundedMinHeap

__all__ = ["StreamingWaveletTransform"]


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
        # (index, value) pairs, used when budget is None.
        self._kept: list[tuple[int, float]] = []
        # _averages[level] is the average of the completed level-``level``
        # interval, meaningful only while bit ``level`` of ``covered`` is
        # set.
        self._averages = [0.0] * (levels + 1)
        # Normalized-weight factor of a coefficient at each level (the
        # expression of coefficient.normalized_weight).
        self._scale = [2.0 ** (level / 2.0) for level in range(levels + 1)]
        self._covered = 0  # positions transformed so far
        self._prefix = 0.0  # running sum of frequencies
        self._finished = False

    def add(self, position: int, frequency: float) -> None:
        """Feed the next distinct position (strictly increasing)."""
        self.add_runs((int(position),), (frequency,))

    def add_runs(self, positions: Sequence[int], frequencies: Sequence[float]) -> None:
        """Feed a chunk of runs: strictly increasing ``positions`` (plain
        ints), each with its frequency.  Equivalent to one :meth:`add`
        per run."""
        if self._finished:
            raise SynopsisError("transform already finished")
        self._advance(positions, frequencies, self.length)

    def finish(self) -> list[WaveletCoefficient]:
        """Close the transform and return the retained coefficients.

        Mirrors lines 7-9 of Algorithm 1: the tail of the domain is
        filled with the final prefix value, and the overall average --
        itself a valid coefficient -- joins the priority queue.
        """
        if self._finished:
            raise SynopsisError("transform already finished")
        # A sentinel run at ``length`` covers the tail and has no leaf.
        self._advance((self.length,), (0.0,), self.length + 1)
        self._finished = True
        assert self._covered == self.length
        overall_average = self._averages[self.levels]
        if overall_average != 0.0:
            weight = abs(overall_average) * self._scale[self.levels]
            self._emitter()(weight, (0, overall_average))
        if self._heap is not None:
            pairs = list(self._heap.items())
        else:
            pairs = self._kept
        return [WaveletCoefficient(index, value) for index, value in pairs]

    # -- internals ---------------------------------------------------------

    def _advance(
        self,
        positions: Sequence[int],
        frequencies: Sequence[float],
        limit: int,
    ) -> None:
        """Transform the runs; each position must lie in
        ``[covered, limit)``.

        For each run, the gap ``[covered, position)`` -- all holding the
        current prefix value (zero in raw-frequency mode) -- is covered
        by maximal aligned dyadic intervals, then the run's own leaf is
        pushed.  Each push carries up through the set bits of
        ``covered``, emitting one detail coefficient per sibling
        average.
        """
        levels = self.levels
        length = self.length
        averages = self._averages
        scale = self._scale
        prefix_mode = self.encode_prefix_sum
        emit = self._emitter()
        covered = self._covered
        prefix = self._prefix
        for position, frequency in zip(positions, frequencies):
            if not covered <= position < limit:
                self._covered = covered
                self._prefix = prefix
                raise self._position_error(position)
            fill = prefix if prefix_mode else 0.0
            prefix += frequency
            leaf = prefix if prefix_mode else frequency
            while covered <= position:
                if covered < position:
                    # Largest aligned interval at ``covered`` that fits
                    # in the gap.
                    if covered:
                        step = (covered & -covered).bit_length() - 1
                    else:
                        step = levels
                    fit = (position - covered).bit_length() - 1
                    if fit < step:
                        step = fit
                    value = fill
                elif covered == length:
                    break  # the closing sentinel has no leaf
                else:
                    step = 0
                    value = leaf
                level = step
                while covered >> level & 1:
                    left = averages[level]
                    detail = (value - left) / 2.0
                    value = (left + value) / 2.0
                    level += 1
                    if detail != 0.0:
                        # Zero details never survive thresholding.
                        emit(
                            abs(detail) * scale[level],
                            ((1 << (levels - level)) + (covered >> level), detail),
                        )
                averages[level] = value
                covered += 1 << step
        self._covered = covered
        self._prefix = prefix

    def _emitter(self) -> Callable[[float, tuple[int, float]], object]:
        """``emit(weight, (index, value))`` for a non-zero coefficient."""
        if self._heap is not None:
            return self._heap.add
        kept = self._kept
        return lambda _weight, pair: kept.append(pair)

    def _position_error(self, position: int) -> SynopsisError:
        if not 0 <= position < self.length:
            return SynopsisError(
                f"position {position} outside signal of length {self.length}"
            )
        return SynopsisError(
            f"positions must be strictly increasing: {position} after "
            f"{self._covered - 1}"
        )
