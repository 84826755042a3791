"""Four-MV macroblock prediction shared by the MPEG-4 encoder/decoder."""

from __future__ import annotations

from typing import Dict, Sequence

import numpy as np

from repro.codecs.frames import WorkingFrame
from repro.me.types import MotionVector, div_to_zero
from repro.robustness.guard import check_motion_vector


def predict_mb_4mv(
    kernels,
    reference: WorkingFrame,
    mbx: int,
    mby: int,
    mvs: Sequence[MotionVector],
    search_range: int,
) -> Dict[str, np.ndarray]:
    """Four-MV prediction: one quarter-pel vector per 8x8 luma block.

    The chroma vector is the rounded average of the four luma vectors, as
    in MPEG-4 ASP.
    """
    for mv in mvs:
        check_motion_vector(mv, search_range, 4)
    luma = reference.padded("y", search_range)
    assembled = np.zeros((16, 16), dtype=np.int64)
    for index, mv in enumerate(mvs):
        off_x = 8 * (index & 1)
        off_y = 8 * (index >> 1)
        px, py = luma.offset(mbx * 16 + off_x, mby * 16 + off_y)
        assembled[off_y : off_y + 8, off_x : off_x + 8] = kernels.mc_qpel_bilinear(
            luma.plane, px, py, 8, 8, mv.x, mv.y
        )
    prediction = {"y": assembled}
    total_x = sum(mv.x for mv in mvs)
    total_y = sum(mv.y for mv in mvs)
    cmv = MotionVector(div_to_zero(total_x, 16), div_to_zero(total_y, 16))
    for plane in ("u", "v"):
        padded = reference.padded(plane, search_range)
        cx, cy = padded.offset(mbx * 8, mby * 8)
        prediction[plane] = kernels.mc_halfpel(padded.plane, cx, cy, 8, 8, cmv.x, cmv.y)
    return prediction
