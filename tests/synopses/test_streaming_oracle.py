"""The batched streaming transform against its tuple-stack reference.

``StreamingWaveletTransform`` steps whole chunks of runs through one
loop (``add_runs``) with its stack kept as per-level averages indexed by
the bits of ``covered``.  That is purely an optimisation: it must make
the same heap insertions as the original per-position implementation
(``tests/synopses/reference_streaming.py``) -- same coefficients, same
weights, same tie counters -- so ``finish()`` returns the same
``(index, value)`` list in the same order, and a ``WaveletBuilder``
yields the same ``coefficients`` dict (iteration order included) and
the same payload.

The benchmark-density rung (a 2^20-domain stream of ~10^5 positions)
runs in the nightly lane via ``REPRO_HLL_FULL=1``.
"""

import os
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.synopses.wavelet.streaming import StreamingWaveletTransform
from repro.synopses.wavelet.synopsis import WaveletBuilder
from repro.types import Domain
from tests.synopses.reference_streaming import (
    StreamingWaveletTransform as ReferenceTransform,
)

FULL_SCALE = os.environ.get("REPRO_HLL_FULL") == "1"

BUDGETS = [1, 2, 4, 16, 256, None]


@st.composite
def sparse_streams(draw):
    """``(levels, positions, frequencies)``: a sorted sparse stream.

    Positions are either scattered or evenly strided (equal gaps make
    equal detail magnitudes); frequencies are small integers so that
    tied coefficient weights are common.
    """
    levels = draw(st.integers(0, 20))
    length = 1 << levels
    if draw(st.booleans()):
        positions = sorted(draw(st.sets(st.integers(0, length - 1), max_size=60)))
    else:
        start = draw(st.integers(0, length - 1))
        stride = draw(st.integers(1, max(1, length // 8)))
        count = draw(st.integers(0, 60))
        positions = list(range(start, length, stride))[:count]
    frequencies = draw(
        st.lists(
            st.sampled_from([1, 1, 1, 2, 2, 3, 7]),
            min_size=len(positions),
            max_size=len(positions),
        )
    )
    return levels, positions, frequencies


def _reference(levels, budget, prefix_mode, positions, frequencies):
    transform = ReferenceTransform(levels, budget, prefix_mode)
    for position, frequency in zip(positions, frequencies):
        transform.add(position, float(frequency))
    return [(c.index, c.value) for c in transform.finish()]


def _batched(levels, budget, prefix_mode, positions, frequencies, chunks):
    """Feed the stream as ``chunks`` sizes, cycling; a size of 1 is a
    single ``add`` call, anything else one ``add_runs`` call."""
    transform = StreamingWaveletTransform(levels, budget, prefix_mode)
    start = 0
    turn = 0
    while start < len(positions):
        size = chunks[turn % len(chunks)]
        turn += 1
        stop = start + size
        if size == 1:
            transform.add(positions[start], float(frequencies[start]))
        else:
            transform.add_runs(
                positions[start:stop], [float(f) for f in frequencies[start:stop]]
            )
        start = stop
    return [(c.index, c.value) for c in transform.finish()]


def _reference_build(domain, budget, values):
    """The original builder path: per-record ``add`` into the reference
    transform (the original ``_add_many`` made the same ``add`` calls)."""
    builder = WaveletBuilder(domain, budget)
    builder._transform = ReferenceTransform(domain.levels, budget)
    for value in values:
        builder.add(value)
    return builder.build()


def _batched_build(domain, budget, values, chunks):
    builder = WaveletBuilder(domain, budget)
    start = 0
    turn = 0
    while start < len(values):
        size = chunks[turn % len(chunks)]
        turn += 1
        if size == 1:
            builder.add(values[start])
        else:
            builder.add_many(values[start : start + size])
        start += size
    return builder.build()


@settings(max_examples=200, deadline=None)
@given(
    stream=sparse_streams(),
    budget=st.sampled_from(BUDGETS),
    prefix_mode=st.booleans(),
    chunks=st.lists(st.integers(1, 9), min_size=1, max_size=6),
)
def test_transform_matches_reference(stream, budget, prefix_mode, chunks):
    levels, positions, frequencies = stream
    expected = _reference(levels, budget, prefix_mode, positions, frequencies)
    got = _batched(levels, budget, prefix_mode, positions, frequencies, chunks)
    assert got == expected


@settings(max_examples=100, deadline=None)
@given(
    stream=sparse_streams(),
    budget=st.sampled_from([b for b in BUDGETS if b is not None]),
    lo=st.integers(-1000, 1000),
    chunks=st.lists(st.integers(1, 40), min_size=1, max_size=6),
)
def test_builder_matches_reference(stream, budget, lo, chunks):
    levels, positions, frequencies = stream
    domain = Domain(lo, lo + (1 << levels) - 1)
    values = [
        lo + position
        for position, frequency in zip(positions, frequencies)
        for _ in range(frequency)
    ]
    expected = _reference_build(domain, budget, values)
    got = _batched_build(domain, budget, values, chunks)
    assert list(got.coefficients.items()) == list(expected.coefficients.items())
    assert got.to_payload() == expected.to_payload()


@pytest.mark.skipif(not FULL_SCALE, reason="nightly rung (REPRO_HLL_FULL=1)")
@pytest.mark.parametrize("prefix_mode", [True, False])
@pytest.mark.parametrize("seed", [0, 1])
def test_benchmark_density_matches_reference(seed, prefix_mode):
    """~10^5 positions at mean spacing 8 over 2^20, budget 256."""
    rng = random.Random(seed)
    levels = 20
    positions = []
    position = rng.randrange(8)
    while position < 1 << levels and len(positions) < 100_000:
        positions.append(position)
        position += rng.randint(1, 15)
    frequencies = [rng.choice([1, 1, 1, 2, 3]) for _ in positions]
    chunks = [rng.choice([1, 64, 500, 4096]) for _ in range(8)]
    expected = _reference(levels, 256, prefix_mode, positions, frequencies)
    got = _batched(levels, 256, prefix_mode, positions, frequencies, chunks)
    assert got == expected
    if prefix_mode:
        domain = Domain(0, (1 << levels) - 1)
        values = [p for p, f in zip(positions, frequencies) for _ in range(f)]
        reference = _reference_build(domain, 256, values)
        batched = _batched_build(domain, 256, values, chunks)
        assert list(batched.coefficients.items()) == list(
            reference.coefficients.items()
        )
        assert batched.to_payload() == reference.to_payload()
