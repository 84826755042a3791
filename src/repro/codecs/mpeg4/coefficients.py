"""Three-dimensional (last, run, level) coefficient coding (MPEG-4 class)."""

from __future__ import annotations

from typing import Sequence

from repro.codecs.mpeg4 import tables
from repro.common.bitstream import BitWriter


def encode_3d(writer: BitWriter, scanned: Sequence[int], start: int = 0) -> bool:
    """Code ``scanned[start:]`` as (last, run, level) events.

    Returns ``False`` (and writes nothing) when there are no non-zero
    coefficients — the caller signals that through the coded block pattern.
    """
    events = []
    run = 0
    for value in scanned[start:]:
        if value == 0:
            run += 1
        else:
            events.append((run, value))
            run = 0
    if not events:
        return False
    for index, (run, value) in enumerate(events):
        last = 1 if index == len(events) - 1 else 0
        magnitude = abs(value)
        if run <= tables.MAX_RUN and magnitude <= tables.MAX_LEVEL:
            tables.COEFF3D_TABLE.write(writer, (last, run, magnitude))
            writer.write_bit(1 if value < 0 else 0)
        else:
            tables.COEFF3D_TABLE.write(writer, tables.ESCAPE)
            writer.write_bit(last)
            writer.write_bits(run, tables.ESCAPE_RUN_BITS)
            writer.write_signed(value, tables.ESCAPE_LEVEL_BITS)
    return True


def estimate_3d_bits(scanned: Sequence[int], start: int = 0) -> int:
    """Bit cost of coding ``scanned[start:]`` (for AC-prediction decisions)."""
    events = []
    run = 0
    for value in scanned[start:]:
        if value == 0:
            run += 1
        else:
            events.append((run, value))
            run = 0
    if not events:
        return 0
    bits = 0
    for index, (run, value) in enumerate(events):
        last = 1 if index == len(events) - 1 else 0
        magnitude = abs(value)
        if run <= tables.MAX_RUN and magnitude <= tables.MAX_LEVEL:
            bits += tables.COEFF3D_TABLE.bits((last, run, magnitude)) + 1
        else:
            bits += (
                tables.COEFF3D_TABLE.bits(tables.ESCAPE)
                + 1
                + tables.ESCAPE_RUN_BITS
                + tables.ESCAPE_LEVEL_BITS
            )
    return bits
