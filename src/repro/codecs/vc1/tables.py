"""Static tables of the VC-1 class codec.

VC-1 (SMPTE 421M) is the other codec the paper's conclusions plan to add
(Section VII).  This codec family reproduces its distinguishing tool —
per-block **adaptive transform size** (a coded 8x8 residual block may be
transformed as one 8x8 or as four 4x4 blocks) — on top of the shared
substrate: quarter-pel bilinear motion compensation, median MV prediction
and MPEG-4-style intra DC/AC prediction.  Entropy tables follow the same
deterministic-Huffman construction as the other codecs.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.codecs.huffman import RunLevelCode, VlcTable, geometric

EOB = "EOB"
ESCAPE = "ESC"

MAX_RUN = 14
MAX_LEVEL = 14

ESCAPE_RUN_BITS = 6
ESCAPE_LEVEL_BITS = 12


def _coefficient_frequencies() -> Dict[object, float]:
    freqs: Dict[object, float] = {EOB: 0.30, ESCAPE: 1e-7}
    for run in range(MAX_RUN + 1):
        for level in range(1, MAX_LEVEL + 1):
            freqs[(run, level)] = (
                0.70 * geometric(0.44, run) * geometric(0.54, level - 1)
            )
    return freqs


COEFF_TABLE = VlcTable.from_frequencies(_coefficient_frequencies(), name="vc1-coeff")
COEFF_CODE = RunLevelCode(COEFF_TABLE, ESCAPE, ESCAPE_RUN_BITS, ESCAPE_LEVEL_BITS,
                          MAX_RUN, MAX_LEVEL, eob=EOB)


def _cbp_frequencies() -> Dict[int, float]:
    freqs = {}
    for pattern in range(64):
        set_bits = bin(pattern).count("1")
        freqs[pattern] = 0.60 ** set_bits * 0.40 ** (6 - set_bits) + 1e-9
    freqs[0b111111] *= 6.0
    return freqs


CBP_TABLE = VlcTable.from_frequencies(_cbp_frequencies(), name="vc1-cbp")

MB_P_TABLE = VlcTable.from_frequencies(
    {"inter": 0.60, "skip": 0.30, "intra": 0.10}, name="vc1-mb-p"
)

MB_B_TABLE = VlcTable.from_frequencies(
    {"bi": 0.34, "fwd": 0.26, "skip": 0.22, "bwd": 0.14, "intra": 0.04},
    name="vc1-mb-b",
)

#: Offsets of the four 4x4 sub-blocks inside an 8x8 block.
SUBBLOCK_OFFSETS: Tuple[Tuple[int, int], ...] = ((0, 0), (4, 0), (0, 4), (4, 4))

#: Transform-size signal values (1 bit per coded inter block).
TRANSFORM_8X8 = 0
TRANSFORM_4X4 = 1
