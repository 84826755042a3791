"""Static VLC tables of the MPEG-2 class codec.

Code tables are built from explicit priors via deterministic Huffman
construction (see :mod:`repro.codecs.huffman` and the bitstream note in
DESIGN.md): two-dimensional (run, level) coefficient events with an escape,
a coded-block-pattern table and macroblock mode tables — the table
*structure* of ISO 13818-2 with self-consistent codes.
"""

from __future__ import annotations

from typing import Dict

from repro.codecs.huffman import VlcTable, geometric

#: Sentinel symbols.
EOB = "EOB"
ESCAPE = "ESC"

#: Limits of the non-escape (run, level) alphabet.
MAX_RUN = 14
MAX_LEVEL = 15

#: Escape payload field widths.
ESCAPE_RUN_BITS = 6
ESCAPE_LEVEL_BITS = 12


def _coefficient_frequencies() -> Dict[object, float]:
    freqs: Dict[object, float] = {EOB: 0.28, ESCAPE: 1e-7}
    for run in range(MAX_RUN + 1):
        for level in range(1, MAX_LEVEL + 1):
            freqs[(run, level)] = (
                0.72 * geometric(0.45, run) * geometric(0.55, level - 1)
            )
    return freqs


COEFF_TABLE = VlcTable.from_frequencies(_coefficient_frequencies(), name="mpeg2-coeff")


def _cbp_frequencies() -> Dict[int, float]:
    """Coded block pattern prior: sparse patterns are likelier."""
    freqs = {}
    for pattern in range(64):
        set_bits = bin(pattern).count("1")
        freqs[pattern] = 0.62 ** set_bits * 0.38 ** (6 - set_bits) + 1e-9
    # Full and luma-only patterns are disproportionately common.
    freqs[0b111111] *= 8.0
    freqs[0b111100] *= 4.0
    return freqs


CBP_TABLE = VlcTable.from_frequencies(_cbp_frequencies(), name="mpeg2-cbp")

#: Macroblock modes in P pictures.
MB_P_TABLE = VlcTable.from_frequencies(
    {"inter": 0.62, "skip": 0.28, "intra": 0.10}, name="mpeg2-mb-p"
)

#: Macroblock modes in B pictures.
MB_B_TABLE = VlcTable.from_frequencies(
    {"bi": 0.34, "fwd": 0.26, "skip": 0.22, "bwd": 0.14, "intra": 0.04},
    name="mpeg2-mb-b",
)

#: Initial intra DC predictor (the level of a flat mid-grey block).
DC_PREDICTOR_RESET = 128
