"""Static tables of the Motion-JPEG class codec.

The paper's conclusions list Motion-JPEG-2000 among the planned benchmark
extensions (Section VII); this codec family provides the intra-only
baseline that extension calls for, built on JPEG's structure: the standard
luminance/chrominance quantisation matrices with libjpeg quality scaling,
and (run, size)+amplitude entropy coding with EOB/ZRL control symbols.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from repro.codecs.huffman import VlcTable, geometric
from repro.errors import ConfigError

#: ITU-T T.81 Annex K luminance quantisation matrix.
LUMA_MATRIX = np.array(
    [
        [16, 11, 10, 16, 24, 40, 51, 61],
        [12, 12, 14, 19, 26, 58, 60, 55],
        [14, 13, 16, 24, 40, 57, 69, 56],
        [14, 17, 22, 29, 51, 87, 80, 62],
        [18, 22, 37, 56, 68, 109, 103, 77],
        [24, 35, 55, 64, 81, 104, 113, 92],
        [49, 64, 78, 87, 103, 121, 120, 101],
        [72, 92, 95, 98, 112, 100, 103, 99],
    ],
    dtype=np.int64,
)

#: ITU-T T.81 Annex K chrominance quantisation matrix.
CHROMA_MATRIX = np.array(
    [
        [17, 18, 24, 47, 99, 99, 99, 99],
        [18, 21, 26, 66, 99, 99, 99, 99],
        [24, 26, 56, 99, 99, 99, 99, 99],
        [47, 66, 99, 99, 99, 99, 99, 99],
        [99, 99, 99, 99, 99, 99, 99, 99],
        [99, 99, 99, 99, 99, 99, 99, 99],
        [99, 99, 99, 99, 99, 99, 99, 99],
        [99, 99, 99, 99, 99, 99, 99, 99],
    ],
    dtype=np.int64,
)


def scaled_matrix(base: np.ndarray, quality: int) -> np.ndarray:
    """libjpeg quality scaling: 50 = the Annex K tables, 100 ~ lossless."""
    if not 1 <= quality <= 100:
        raise ConfigError(f"JPEG quality must be in [1, 100], got {quality}")
    if quality < 50:
        factor = 5000 // quality
    else:
        factor = 200 - 2 * quality
    scaled = (base * factor + 50) // 100
    return np.clip(scaled, 1, 255).astype(np.int64)


# ---------------------------------------------------------------------------
# Entropy coding: JPEG-structured (run, size) symbols.
# ---------------------------------------------------------------------------

EOB = (0, 0)
ZRL = (15, 0)  # run of 16 zeros
MAX_RUN = 15
MAX_SIZE = 11
DC_MAX_SIZE = 12


def amplitude_size(value: int) -> int:
    """JPEG category: the number of amplitude bits for ``value``."""
    return abs(value).bit_length()


def _ac_frequencies() -> Dict[Tuple[int, int], float]:
    freqs: Dict[Tuple[int, int], float] = {EOB: 0.22, ZRL: 0.002}
    for run in range(MAX_RUN + 1):
        for size in range(1, MAX_SIZE + 1):
            freqs[(run, size)] = (
                0.78 * geometric(0.42, run) * geometric(0.5, size - 1)
            )
    return freqs


AC_TABLE = VlcTable.from_frequencies(_ac_frequencies(), name="mjpeg-ac")

DC_TABLE = VlcTable.from_frequencies(
    {size: geometric(0.35, size) + 1e-9 for size in range(DC_MAX_SIZE + 1)},
    name="mjpeg-dc",
)
