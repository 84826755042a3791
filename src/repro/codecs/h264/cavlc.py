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
    """(length, unused) of the truncated binary code over 0..maximum: a value
    below ``unused`` takes ``length - 1`` bits, any other ``length``."""
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


#: ``_truncated_binary_bits`` by maximum, for every maximum a block codes (0..16).
_TRUNCATED: Tuple[Tuple[int, int], ...] = tuple(
    _truncated_binary_bits(maximum) for maximum in range(17)
)


def _read_truncated(reader: BitReader, maximum: int) -> int:
    if maximum == 0:
        return 0
    length, unused = _truncated_binary_bits(maximum)
    value = reader.read_bits(length - 1)
    if value < unused:
        return value
    value = (value << 1) | reader.read_bit()
    return value - unused


#: Bits of the window a field may need: the longest, a Rice code with its
#: escape, is 15 zeros, a 1 and 16 bits.
_WINDOW_AHEAD = _ESCAPE_PREFIX + 1 + _ESCAPE_BITS

#: Trailing ones by count and sign bits: +-1 each, in the order read (a set
#: bit is negative).
_TRAILING_ONES: Tuple[Tuple[Tuple[int, ...], ...], ...] = tuple(
    tuple(tuple(-1 if (signs >> shift) & 1 else 1 for shift in range(count - 1, -1, -1))
          for signs in range(1 << count))
    for count in range(MAX_TRAILING_ONES + 1)
)


def _window(data: bytes, pos: int) -> Tuple[int, int]:
    """The 64-bit window over the 8 bytes from byte ``pos >> 3``, zero-filled
    past the end of ``data``, and the bit position just past it."""
    first = pos >> 3
    chunk = data[first:first + 8]
    return int.from_bytes(chunk, "big") << ((8 - len(chunk)) << 3), (first << 3) + 64


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

    def decode_block(self, reader: BitReader, raster: Sequence[int], nc: int,
                     start: int = 0) -> Tuple[List[int], int]:
        """Read one block coded from scan position ``start``; return its levels
        in raster order and its TotalCoeff.

        ``raster[i]`` is the raster index of scan position ``i`` and
        ``len(raster)`` the block's size, so ``len(raster) - start`` positions
        are coded; the identity order ``range(n)`` returns scan order.  The
        reader's data, its position and a 64-bit window over the data are
        held in local variables, and the position is written back before
        every return and raise.  A field the window cannot decide (a Rice
        prefix of 15 or more zeros, or a field that may cross the end of the
        data) goes to that field's reader, so a failed read stops where
        reading field by field stops (docs/BITSTREAM.md, "CAVLC blocks").
        """
        levels = [0] * len(raster)
        n = len(raster) - start
        data = reader._data
        pos = reader._pos
        end = reader._end
        window, top = _window(data, pos)
        escape = _ESCAPE_PREFIX
        truncated = _TRUNCATED

        # coeff_token: a Rice prefix is the window's leading-zero count.
        k = _rice_param_from_nc(nc)
        avail = top - pos
        zeros = avail - (window & ((1 << avail) - 1)).bit_length()
        if zeros < escape and pos + zeros + 1 + k <= end:
            pos += zeros + 1 + k
            total_coeff = (zeros << k) | ((window >> (top - pos)) & ((1 << k) - 1))
        else:
            reader._pos = pos
            total_coeff = _read_rice(reader, k)
            pos = reader._pos
        if total_coeff > n:
            reader._pos = pos
            raise BitstreamError(f"TotalCoeff {total_coeff} exceeds block size {n}")
        if total_coeff == 0:
            reader._pos = pos
            return levels, 0

        # TrailingOnes, then one sign bit per trailing one.
        if top - pos < _WINDOW_AHEAD:
            window, top = _window(data, pos)
        if pos + 2 <= end:
            pos += 2
            trailing = (window >> (top - pos)) & 3
        else:
            reader._pos = pos
            trailing = reader.read_bits(2)
            pos = reader._pos
        if trailing > total_coeff:
            reader._pos = pos
            raise BitstreamError("TrailingOnes exceeds TotalCoeff")
        if pos + trailing <= end:
            pos += trailing
            signs = (window >> (top - pos)) & ((1 << trailing) - 1)
        else:
            reader._pos = pos
            signs = 0
            for _ in range(trailing):
                signs = (signs << 1) | reader.read_bit()
            pos = reader._pos
        levels_reverse = list(_TRAILING_ONES[trailing][signs])

        # Remaining levels, reverse scan order, adaptive suffix length.
        suffix_length = 1 if total_coeff > 10 and trailing < 3 else 0
        bump = 2 if trailing < MAX_TRAILING_ONES else 0
        for _ in range(total_coeff - trailing):
            if top - pos < _WINDOW_AHEAD:
                window, top = _window(data, pos)
            avail = top - pos
            zeros = avail - (window & ((1 << avail) - 1)).bit_length()
            if zeros < escape and pos + zeros + 1 + suffix_length <= end:
                pos += zeros + 1 + suffix_length
                level_code = (zeros << suffix_length) | (
                    (window >> (top - pos)) & ((1 << suffix_length) - 1))
            else:
                reader._pos = pos
                level_code = _read_rice(reader, suffix_length)
                pos = reader._pos
            # The first non-T1 level is known to exceed 1 in magnitude.
            level_code += bump
            bump = 0
            magnitude = (level_code >> 1) + 1
            levels_reverse.append(-magnitude if level_code & 1 else magnitude)
            if suffix_length == 0:
                suffix_length = 1
            if magnitude > (3 << (suffix_length - 1)) and suffix_length < 6:
                suffix_length += 1

        # total_zeros, then run_before between the levels: truncated binary
        # codes, each level placed as its run is read.
        total_zeros = 0
        if total_coeff < n:
            if top - pos < _WINDOW_AHEAD:
                window, top = _window(data, pos)
            length, unused = truncated[n - total_coeff]
            if pos + length <= end:
                code = (window >> (top - pos - length)) & ((1 << length) - 1)
                if code >> 1 < unused:
                    total_zeros = code >> 1
                    pos += length - 1
                else:
                    total_zeros = code - unused
                    pos += length
            else:
                reader._pos = pos
                total_zeros = _read_truncated(reader, n - total_coeff)
                pos = reader._pos
        index = start + total_coeff + total_zeros - 1
        zeros_left = total_zeros
        for value in levels_reverse[:-1]:
            levels[raster[index]] = value
            if zeros_left:
                if top - pos < _WINDOW_AHEAD:
                    window, top = _window(data, pos)
                length, unused = truncated[zeros_left]
                if pos + length <= end:
                    code = (window >> (top - pos - length)) & ((1 << length) - 1)
                    if code >> 1 < unused:
                        run_before = code >> 1
                        pos += length - 1
                    else:
                        run_before = code - unused
                        pos += length
                else:
                    reader._pos = pos
                    run_before = _read_truncated(reader, zeros_left)
                    pos = reader._pos
                zeros_left -= run_before
                index -= run_before + 1
            else:
                index -= 1
        levels[raster[index]] = levels_reverse[-1]
        reader._pos = pos
        return levels, total_coeff


def nc_context(left_tc, top_tc) -> int:
    """The nC context from neighbour TotalCoeff values (None = unavailable)."""
    if left_tc is not None and top_tc is not None:
        return (left_tc + top_tc + 1) >> 1
    if left_tc is not None:
        return left_tc
    if top_tc is not None:
        return top_tc
    return 0
