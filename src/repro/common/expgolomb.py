"""Exp-Golomb codes, as used by the H.264 syntax layer.

``ue`` is the unsigned code (code number ``k`` is written as
``zeros(len) 1 suffix``), ``se`` the signed mapping where positive values
come first: 0, 1, -1, 2, -2, ...
"""

from __future__ import annotations

from repro.common.bitstream import BitReader, BitWriter
from repro.errors import BitstreamError


def write_ue(writer: BitWriter, value: int) -> None:
    """Write an unsigned Exp-Golomb code."""
    if value < 0:
        raise BitstreamError(f"ue(v) requires v >= 0, got {value}")
    code = value + 1
    nbits = code.bit_length()
    writer.write_bits(0, nbits - 1)
    writer.write_bits(code, nbits)


def read_ue(reader: BitReader) -> int:
    """Read an unsigned Exp-Golomb code."""
    zeros = reader.read_unary()
    value = 1 << zeros
    if zeros:
        value |= reader.read_bits(zeros)
    return value - 1


def write_se(writer: BitWriter, value: int) -> None:
    """Write a signed Exp-Golomb code (0, 1, -1, 2, -2, ...)."""
    if value > 0:
        write_ue(writer, 2 * value - 1)
    else:
        write_ue(writer, -2 * value)


def read_se(reader: BitReader) -> int:
    """Read a signed Exp-Golomb code."""
    k = read_ue(reader)
    magnitude = (k + 1) >> 1
    return magnitude if k & 1 else -magnitude


def ue_bit_length(value: int) -> int:
    """Number of bits ue(v) occupies; useful for rate estimation."""
    return 2 * (value + 1).bit_length() - 1


def se_bit_length(value: int) -> int:
    """Number of bits se(v) occupies."""
    k = 2 * value - 1 if value > 0 else -2 * value
    return ue_bit_length(k)
