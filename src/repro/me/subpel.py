"""Sub-pel motion vector refinement.

After the integer-pel search, the encoders refine to half-pel (MPEG-2) or
quarter-pel (MPEG-4 with ``qpel``, VC-1, H.264) precision around the best
integer vector — the two-stage refinement of x264's ``--subme`` levels.
As in x264, a candidate is not interpolated on its own: it is a slice of
its reference's phase plane (:meth:`repro.mc.pad.PaddedPlane.subpel_block`,
built by the per-block kernel, so bit-identical to it).  A stage's eight
neighbours are stacked and scored with one ``sad`` call.

Motion vectors returned here are in *fractional units*: half-pel units for
MPEG-2 (interp = ``"mc_halfpel"``), quarter-pel for MPEG-4/VC-1/H.264
(interp = ``"mc_qpel_bilinear"`` / ``"mc_qpel_h264"``).
"""

from __future__ import annotations

import numpy as np

from repro.mc.pad import PaddedPlane
from repro.me.cost import mv_rate_bits
from repro.me.types import MotionVector, SearchResult

_NEIGHBOURS = (
    (-1, -1), (0, -1), (1, -1),
    (-1, 0), (1, 0),
    (-1, 1), (0, 1), (1, 1),
)


def refine_subpel(
    kernels,
    current: np.ndarray,
    reference: PaddedPlane,
    x: int,
    y: int,
    width: int,
    height: int,
    integer_result: SearchResult,
    predictor: MotionVector,
    lagrangian: int,
    unit: int,
    interp: str,
) -> SearchResult:
    """Refine ``integer_result`` to fractional precision.

    ``unit`` is the number of fractional positions per pel (2 = half-pel,
    4 = quarter-pel); ``predictor`` must already be in fractional units;
    ``interp`` names the kernel of ``kernels`` that interpolates in ``unit``.
    Performs log2(unit) halving stages (half-pel, then quarter-pel).
    """
    px, py = reference.offset(x, y)

    def costs(mvs):
        blocks = np.stack([
            reference.subpel_block(kernels, interp, unit, px, py, width, height, mv.x, mv.y)
            for mv in mvs
        ])
        sads = kernels.sad(current, blocks)
        return [sad + lagrangian * mv_rate_bits(mv, predictor) for mv, sad in zip(mvs, sads)]

    best_mv = integer_result.mv.scaled(unit)
    best = SearchResult(best_mv, costs([best_mv])[0])

    step = unit >> 1
    while step >= 1:
        neighbours = [
            MotionVector(best.mv.x + dx * step, best.mv.y + dy * step)
            for dx, dy in _NEIGHBOURS
        ]
        improved = best
        for mv, cost in zip(neighbours, costs(neighbours)):
            if cost < improved.cost:
                improved = SearchResult(mv, cost)
        best = improved
        step >>= 1
    return best
