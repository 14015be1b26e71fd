"""The string-level HBS codec against its bit-loop reference.

``HBSCodec`` encodes with one codeword-string translation and one
big-int conversion, and decodes with one ``re.findall`` over the
codewords.  It must stay wire-identical to the original bit-loop codec
(``tests/synopses/reference_hbs.py``): the same bytes for every register
array, the original registers back from ``decode``, and a
:class:`SynopsisError` -- with the same message -- wherever the
reference rejects a malformed frame.

The 2^14-register rung over real sketches up to 10^6 keys runs in the
nightly lane via ``REPRO_HLL_FULL=1``.
"""

import os
import random
import struct
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SynopsisError
from repro.synopses.hll import HBSCodec, HyperLogLogBuilder
from repro.types import Domain
from tests.synopses.reference_hbs import HBSCodec as ReferenceCodec

FULL_SCALE = os.environ.get("REPRO_HLL_FULL") == "1"

DOMAIN = Domain(0, 2**40)
SHAPES = ["random", "geometric", "two_symbol", "all_zero", "uniform", "sketch"]


def _registers(shape: str, precision: int, seed: int) -> array:
    rng = random.Random(seed)
    m = 1 << precision
    if shape == "random":
        return array("B", [rng.randint(0, 64) for _ in range(m)])
    if shape == "geometric":
        return array("B", [min(64, int(rng.expovariate(0.7))) for _ in range(m)])
    if shape == "two_symbol":
        pair = rng.sample(range(65), 2)
        return array("B", [rng.choice(pair) for _ in range(m)])
    if shape == "all_zero":
        return array("B", bytes(m))
    if shape == "uniform":
        return array("B", [rng.randint(0, 64)] * m)
    builder = HyperLogLogBuilder(DOMAIN, m)
    builder.add_many(rng.randrange(DOMAIN.hi) for _ in range(rng.randint(1, 4 * m)))
    return builder.build().registers


def _outcome(codec, data: bytes):
    try:
        return "ok", codec.decode(data)
    except SynopsisError as exc:
        return "error", str(exc)


def _huffman_frame(registers: array) -> tuple[bytes, int]:
    """A Huffman frame and the offset its codeword payload starts at."""
    encoded = HBSCodec.encode(registers)
    assert encoded[0] == 1
    return encoded, 6 + 2 * encoded[5]


@settings(max_examples=120, deadline=None)
@given(
    shape=st.sampled_from(SHAPES),
    precision=st.integers(4, 14),
    seed=st.integers(0, 2**32),
)
def test_codec_matches_reference(shape, precision, seed):
    registers = _registers(shape, precision, seed)
    encoded = HBSCodec.encode(registers)
    assert encoded == ReferenceCodec.encode(registers)
    assert HBSCodec.decode(encoded) == registers


@settings(max_examples=40, deadline=None)
@given(precision=st.integers(4, 10), seed=st.integers(0, 2**32))
def test_truncated_header_rejected(precision, seed):
    encoded = HBSCodec.encode(_registers("geometric", precision, seed))
    for cut in range(6):
        for codec in (HBSCodec, ReferenceCodec):
            with pytest.raises(SynopsisError, match="truncated HBS frame"):
                codec.decode(encoded[:cut])


@pytest.mark.parametrize("frame_type", [2, 7, 255])
def test_unknown_frame_type_rejected(frame_type):
    encoded = HBSCodec.encode(_registers("geometric", 6, 0))
    data = bytes([frame_type]) + encoded[1:]
    for codec in (HBSCodec, ReferenceCodec):
        with pytest.raises(SynopsisError, match="unknown HBS frame type"):
            codec.decode(data)


@settings(max_examples=60, deadline=None)
@given(
    shape=st.sampled_from(["random", "geometric", "two_symbol", "sketch"]),
    precision=st.integers(4, 10),
    seed=st.integers(0, 2**32),
    data=st.data(),
)
def test_payload_cut_short_rejected(shape, precision, seed, data):
    encoded, payload_start = _huffman_frame(_registers(shape, precision, seed))
    cut = data.draw(st.integers(payload_start, len(encoded) - 1))
    truncated = encoded[:cut]
    expected = _outcome(ReferenceCodec, truncated)
    assert expected[0] == "error"
    assert _outcome(HBSCodec, truncated) == expected


def test_incomplete_code_rejected():
    # Lengths {5: 1, 9: 2} give codewords "0" and "10"; "11" is unused.
    table = struct.pack(">BBBB", 5, 1, 9, 2)
    data = struct.pack(">BIB", 1, 4, 2) + table + bytes([0b01011000])
    expected = _outcome(ReferenceCodec, data)
    assert expected[0] == "error"
    assert _outcome(HBSCodec, data) == expected
    # The same table decodes a payload that avoids the unused word.
    data = struct.pack(">BIB", 1, 4, 2) + table + bytes([0b01010000])
    assert _outcome(HBSCodec, data) == ("ok", array("B", [5, 9, 9, 5]))
    assert _outcome(ReferenceCodec, data) == ("ok", array("B", [5, 9, 9, 5]))


def test_empty_huffman_frame_rejected():
    data = struct.pack(">BIB", 1, 0, 2) + struct.pack(">BBBB", 1, 1, 2, 1)
    for codec in (HBSCodec, ReferenceCodec):
        with pytest.raises(SynopsisError, match="exhausted after 0/0"):
            codec.decode(data)


@settings(max_examples=400, deadline=None)
@given(
    lengths=st.lists(st.tuples(st.integers(0, 9), st.integers(0, 5)), max_size=6),
    count=st.integers(1, 24),
    payload=st.binary(max_size=8),
)
def test_arbitrary_symbol_tables_match_reference(lengths, count, payload):
    """Any table -- incomplete, over-full, zero-length or duplicated
    codes -- decodes to the reference's registers or its exact error."""
    table = b"".join(struct.pack(">BB", s, n) for s, n in lengths)
    data = struct.pack(">BIB", 1, count, len(lengths)) + table + payload
    assert _outcome(HBSCodec, data) == _outcome(ReferenceCodec, data)


@pytest.mark.skipif(not FULL_SCALE, reason="nightly rung (REPRO_HLL_FULL=1)")
@pytest.mark.parametrize("cardinality", [10**3, 10**4, 10**5, 10**6])
def test_full_precision_sketches_match_reference(cardinality):
    """2^14-register sketches of real streams, sparse to saturated."""
    rng = random.Random(cardinality)
    builder = HyperLogLogBuilder(DOMAIN, 2**14)
    builder.add_many(rng.sample(range(DOMAIN.hi), cardinality))
    registers = builder.build().registers
    encoded = HBSCodec.encode(registers)
    assert encoded == ReferenceCodec.encode(registers)
    assert HBSCodec.decode(encoded) == registers
    assert ReferenceCodec.decode(encoded) == registers
