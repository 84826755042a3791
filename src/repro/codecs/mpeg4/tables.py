"""Static VLC tables of the MPEG-4 ASP class codec.

MPEG-4 improves on MPEG-2's entropy layer with three-dimensional
(last, run, level) coefficient events — the ``last`` flag replaces the
separate end-of-block symbol, which is one of the reasons the format
compresses better.  Tables are built from priors as in the MPEG-2 codec.
"""

from __future__ import annotations

from typing import Dict

from repro.codecs.huffman import VlcTable, geometric

ESCAPE = "ESC"

MAX_RUN = 14
MAX_LEVEL = 12

ESCAPE_RUN_BITS = 6
ESCAPE_LEVEL_BITS = 12


def _coefficient_frequencies() -> Dict[object, float]:
    freqs: Dict[object, float] = {ESCAPE: 1e-7}
    for last in (0, 1):
        last_prob = 0.74 if last == 0 else 0.26
        for run in range(MAX_RUN + 1):
            for level in range(1, MAX_LEVEL + 1):
                freqs[(last, run, level)] = (
                    last_prob * geometric(0.45, run) * geometric(0.55, level - 1)
                )
    return freqs


COEFF3D_TABLE = VlcTable.from_frequencies(_coefficient_frequencies(), name="mpeg4-coeff")


def _cbp_frequencies() -> Dict[int, float]:
    freqs = {}
    for pattern in range(64):
        set_bits = bin(pattern).count("1")
        freqs[pattern] = 0.58 ** set_bits * 0.42 ** (6 - set_bits) + 1e-9
    freqs[0b111111] *= 8.0
    freqs[0b111100] *= 4.0
    return freqs


CBP_TABLE = VlcTable.from_frequencies(_cbp_frequencies(), name="mpeg4-cbp")

#: P-VOP macroblock modes; ``inter4v`` is the four-motion-vector ASP mode.
MB_P_TABLE = VlcTable.from_frequencies(
    {"inter": 0.44, "skip": 0.26, "inter4v": 0.20, "intra": 0.10},
    name="mpeg4-mb-p",
)

#: B-VOP macroblock modes.
MB_B_TABLE = VlcTable.from_frequencies(
    {"bi": 0.34, "fwd": 0.26, "skip": 0.22, "bwd": 0.14, "intra": 0.04},
    name="mpeg4-mb-b",
)


#: Default intra DC level when a prediction neighbour is missing
#: (the level of a flat mid-grey block with dc_scaler = 8).
DC_DEFAULT = 128
