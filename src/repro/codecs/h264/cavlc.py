"""CAVLC-structured residual coding.

Context-Adaptive Variable Length Coding is H.264's baseline entropy coder
and a real part of why the format outperforms the MPEG-4 3-D VLC: the code
used for each block's coefficient count adapts to the neighbourhood (the
``nC`` context), trailing +-1 coefficients are coded as bare sign bits, and
level codes adapt their suffix length as magnitudes grow.

This implementation keeps the full CAVLC *structure* — coeff_token with
nC-adaptive tables, trailing-one signs, reverse-order levels with adaptive
suffix length, total_zeros, run_before — with self-consistent code tables
(Rice/truncated-binary families parameterised by the same contexts the
spec's lookup tables encode); see the bitstream note in DESIGN.md.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.common.bitstream import BitReader, BitWriter
from repro.errors import BitstreamError

#: Maximum trailing ones signalled separately, as in the spec.
MAX_TRAILING_ONES = 3


def _rice_param_from_nc(nc: int) -> int:
    """Adaptive parameter for the coeff_token code, mirroring the spec's
    four nC-selected tables (nC < 2, < 4, < 8, >= 8)."""
    if nc < 2:
        return 0
    if nc < 4:
        return 1
    if nc < 8:
        return 2
    return 3


#: Unary prefixes of this length escape to a fixed-width suffix, mirroring
#: the level_prefix >= 15 escape of the spec.
_ESCAPE_PREFIX = 15
_ESCAPE_BITS = 16


def _write_rice(writer: BitWriter, value: int, k: int) -> None:
    """Golomb-Rice code (unary quotient + k-bit remainder) with escape."""
    quotient = value >> k
    if quotient >= _ESCAPE_PREFIX:
        writer.write_bits(0, _ESCAPE_PREFIX)
        writer.write_bit(1)
        writer.write_bits(value - (_ESCAPE_PREFIX << k), _ESCAPE_BITS)
        return
    writer.write_bits(0, quotient)
    writer.write_bit(1)
    if k:
        writer.write_bits(value & ((1 << k) - 1), k)


def _read_rice(reader: BitReader, k: int) -> int:
    quotient = reader.read_unary(_ESCAPE_PREFIX + 1)
    if quotient > _ESCAPE_PREFIX:
        raise BitstreamError("runaway Rice prefix")
    if quotient == _ESCAPE_PREFIX:
        return (_ESCAPE_PREFIX << k) + reader.read_bits(_ESCAPE_BITS)
    remainder = reader.read_bits(k) if k else 0
    return (quotient << k) | remainder


def _truncated_binary_bits(maximum: int) -> Tuple[int, int]:
    """(short_len, threshold) for truncated binary over 0..maximum."""
    n = maximum + 1
    length = (n - 1).bit_length()
    unused = (1 << length) - n
    return length, unused


def _write_truncated(writer: BitWriter, value: int, maximum: int) -> None:
    """Truncated binary code of ``value`` in 0..maximum."""
    if maximum == 0:
        return
    length, unused = _truncated_binary_bits(maximum)
    if value < unused:
        writer.write_bits(value, length - 1)
    else:
        writer.write_bits(value + unused, length)


def _read_truncated(reader: BitReader, maximum: int) -> int:
    if maximum == 0:
        return 0
    length, unused = _truncated_binary_bits(maximum)
    value = reader.read_bits(length - 1)
    if value < unused:
        return value
    value = (value << 1) | reader.read_bit()
    return value - unused


class CavlcCoder:
    """Encodes/decodes one scanned coefficient block."""

    def encode_block(self, writer: BitWriter, scanned: Sequence[int], nc: int) -> int:
        """Code ``scanned`` (zigzag order); returns TotalCoeff for context."""
        n = len(scanned)
        nonzero = [(index, value) for index, value in enumerate(scanned) if value]
        total_coeff = len(nonzero)

        # Trailing ones: up to three +-1s at the end of the scan.
        trailing = 0
        for _, value in reversed(nonzero):
            if abs(value) == 1 and trailing < MAX_TRAILING_ONES:
                trailing += 1
            else:
                break

        # coeff_token: joint (TotalCoeff, TrailingOnes) with nC-adaptive code.
        k = _rice_param_from_nc(nc)
        _write_rice(writer, total_coeff, k)
        if total_coeff == 0:
            return 0
        writer.write_bits(trailing, 2)

        # Trailing one signs, reverse scan order (1 = negative).
        for _, value in nonzero[-1 : -trailing - 1 : -1]:
            writer.write_bit(1 if value < 0 else 0)

        # Remaining levels, reverse order, adaptive suffix length.
        suffix_length = 1 if total_coeff > 10 and trailing < 3 else 0
        remaining = nonzero[: total_coeff - trailing]
        for position, (_, value) in enumerate(reversed(remaining)):
            level_code = 2 * (abs(value) - 1) + (1 if value < 0 else 0)
            if position == 0 and trailing < MAX_TRAILING_ONES:
                # The first non-T1 level is known to exceed 1 in magnitude.
                level_code -= 2
            _write_rice(writer, level_code, suffix_length)
            if suffix_length == 0:
                suffix_length = 1
            if abs(value) > (3 << (suffix_length - 1)) and suffix_length < 6:
                suffix_length += 1

        # total_zeros: zeros before the last coefficient.
        last_index = nonzero[-1][0]
        total_zeros = last_index + 1 - total_coeff
        if total_coeff < n:
            _write_truncated(writer, total_zeros, n - total_coeff)

        # run_before for each coefficient (reverse order, except the first).
        zeros_left = total_zeros
        previous_index = None
        for index, _ in reversed(nonzero):
            if previous_index is None:
                previous_index = index
                continue
            run_before = previous_index - index - 1
            _write_truncated(writer, run_before, zeros_left)
            zeros_left -= run_before
            previous_index = index
            if zeros_left == 0:
                break
        return total_coeff

    def decode_block(self, reader: BitReader, n: int, nc: int) -> Tuple[List[int], int]:
        """Decode a block of ``n`` scan positions; returns (scanned, TC)."""
        k = _rice_param_from_nc(nc)
        total_coeff = _read_rice(reader, k)
        if total_coeff > n:
            raise BitstreamError(f"TotalCoeff {total_coeff} exceeds block size {n}")
        scanned = [0] * n
        if total_coeff == 0:
            return scanned, 0
        trailing = reader.read_bits(2)
        if trailing > total_coeff:
            raise BitstreamError("TrailingOnes exceeds TotalCoeff")

        # Levels in reverse scan order: trailing ones first.
        levels_reverse: List[int] = []
        for _ in range(trailing):
            levels_reverse.append(-1 if reader.read_bit() else 1)
        suffix_length = 1 if total_coeff > 10 and trailing < 3 else 0
        for position in range(total_coeff - trailing):
            level_code = _read_rice(reader, suffix_length)
            if position == 0 and trailing < MAX_TRAILING_ONES:
                level_code += 2
            magnitude = (level_code >> 1) + 1
            value = -magnitude if level_code & 1 else magnitude
            levels_reverse.append(value)
            if suffix_length == 0:
                suffix_length = 1
            if abs(value) > (3 << (suffix_length - 1)) and suffix_length < 6:
                suffix_length += 1

        if total_coeff < n:
            total_zeros = _read_truncated(reader, n - total_coeff)
        else:
            total_zeros = 0

        # Place coefficients: walk backwards from the last position.
        index = total_coeff + total_zeros - 1
        zeros_left = total_zeros
        for position, value in enumerate(levels_reverse):
            if index < 0:
                raise BitstreamError("coefficient placement underflow")
            scanned[index] = value
            if position == total_coeff - 1:
                break
            if zeros_left > 0:
                run_before = _read_truncated(reader, zeros_left)
            else:
                run_before = 0
            zeros_left -= run_before
            index -= run_before + 1
        return scanned, total_coeff


def nc_context(left_tc, top_tc) -> int:
    """The nC context from neighbour TotalCoeff values (None = unavailable)."""
    if left_tc is not None and top_tc is not None:
        return (left_tc + top_tc + 1) >> 1
    if left_tc is not None:
        return left_tc
    if top_tc is not None:
        return top_tc
    return 0
