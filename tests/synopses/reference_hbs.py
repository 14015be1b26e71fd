"""Test-side reference: the bit-loop HBS codec.

This is the original implementation of
:class:`repro.synopses.hll.HBSCodec` (a per-register bit buffer on
encode, a bit-by-bit ``(length, code)`` table walk on decode), kept
verbatim as the oracle for the string-level production codec: the
production ``encode`` must emit the same bytes, and ``decode`` must
recover the same registers or fail with the same typed error
(``tests/synopses/test_hbs_oracle.py``).
"""

from __future__ import annotations

import heapq
import struct
from array import array

from repro.errors import SynopsisError


class HBSCodec:
    """Lossless Huffman-Bucket coding of an HLL register array.

    Register values follow a sharply peaked (geometric-tailed)
    distribution, so a Huffman code built from the *actual* register
    histogram gets close to the empirical entropy -- typically 3-4x
    smaller than the dense byte array -- while staying trivially
    decodable.  The code is *canonical* (codewords assigned in
    (length, symbol) order), so encoding is a pure function of the
    register contents: identical registers always produce identical
    bytes, which the catalog's payload-equality dedup relies on.

    Wire format (big-endian):

    * uniform frame (0 or 1 distinct register values):
      ``B:0  I:register_count  B:value``
    * Huffman frame:
      ``B:1  I:register_count  B:symbol_count``
      then ``symbol_count`` pairs of ``B:value  B:code_length``,
      then the concatenated codewords, zero-padded to a byte boundary.
    """

    _HEADER = struct.Struct(">BIB")
    _UNIFORM = 0
    _HUFFMAN = 1

    @classmethod
    def encode(cls, registers: "array[int]") -> bytes:
        frequencies: dict[int, int] = {}
        for value in registers:
            frequencies[value] = frequencies.get(value, 0) + 1
        if len(frequencies) <= 1:
            value = registers[0] if len(registers) else 0
            return cls._HEADER.pack(cls._UNIFORM, len(registers), value)
        lengths = cls._code_lengths(frequencies)
        codes = cls._canonical_codes(lengths)
        out = bytearray(
            cls._HEADER.pack(cls._HUFFMAN, len(registers), len(lengths))
        )
        for symbol in sorted(lengths):
            out += struct.pack(">BB", symbol, lengths[symbol])
        buffer = 0
        pending = 0
        for value in registers:
            code, length = codes[value]
            buffer = (buffer << length) | code
            pending += length
            while pending >= 8:
                pending -= 8
                out.append((buffer >> pending) & 0xFF)
        if pending:
            out.append((buffer << (8 - pending)) & 0xFF)
        return bytes(out)

    @classmethod
    def decode(cls, data: bytes) -> "array[int]":
        try:
            frame, count, arg = cls._HEADER.unpack_from(data, 0)
        except struct.error as exc:
            raise SynopsisError(f"truncated HBS frame: {exc}") from exc
        offset = cls._HEADER.size
        if frame == cls._UNIFORM:
            return array("B", bytes([arg]) * count)
        if frame != cls._HUFFMAN:
            raise SynopsisError(f"unknown HBS frame type {frame}")
        lengths: dict[int, int] = {}
        for _ in range(arg):
            symbol, length = struct.unpack_from(">BB", data, offset)
            offset += 2
            lengths[symbol] = length
        codes = cls._canonical_codes(lengths)
        # (length, code) -> symbol, walked bit by bit below.
        table = {
            (length, code): symbol
            for symbol, (code, length) in codes.items()
        }
        registers = array("B", bytes(count))
        position = 0
        code = 0
        length = 0
        payload = memoryview(data)[offset:]
        for byte in payload:
            for shift in range(7, -1, -1):
                code = (code << 1) | ((byte >> shift) & 1)
                length += 1
                symbol = table.get((length, code))
                if symbol is not None:
                    registers[position] = symbol
                    position += 1
                    code = 0
                    length = 0
                    if position == count:
                        return registers
        raise SynopsisError(
            f"HBS frame exhausted after {position}/{count} registers"
        )

    @staticmethod
    def _code_lengths(frequencies: dict[int, int]) -> dict[int, int]:
        """Huffman code lengths with deterministic tie-breaking.

        The heap orders by (frequency, smallest contained symbol); the
        resulting *lengths* feed the canonical assignment, so any
        residual tree ambiguity cannot reach the wire.
        """
        heap: list[tuple[int, int, list[int]]] = [
            (frequency, symbol, [symbol])
            for symbol, frequency in frequencies.items()
        ]
        heapq.heapify(heap)
        lengths = dict.fromkeys(frequencies, 0)
        while len(heap) > 1:
            freq_a, tie_a, symbols_a = heapq.heappop(heap)
            freq_b, tie_b, symbols_b = heapq.heappop(heap)
            for symbol in symbols_a + symbols_b:
                lengths[symbol] += 1
            heapq.heappush(
                heap,
                (freq_a + freq_b, min(tie_a, tie_b), symbols_a + symbols_b),
            )
        return lengths

    @staticmethod
    def _canonical_codes(lengths: dict[int, int]) -> dict[int, tuple[int, int]]:
        """Canonical codewords: assigned in (length, symbol) order."""
        code = 0
        previous_length = 0
        codes: dict[int, tuple[int, int]] = {}
        for symbol in sorted(lengths, key=lambda s: (lengths[s], s)):
            length = lengths[symbol]
            code <<= length - previous_length
            codes[symbol] = (code, length)
            code += 1
            previous_length = length
        return codes
