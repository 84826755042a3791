"""Chroma motion vector derivation for 4:2:0.

The chroma planes are half the luma resolution, so a luma displacement of
``d`` pixels is ``d/2`` chroma pixels.  Each codec family expresses this in
its own units:

* MPEG-2/MPEG-4 half-pel luma MVs map to half-pel chroma MVs by dividing
  by two (truncating toward zero, the MPEG convention).
* MPEG-4 quarter-pel luma MVs map to half-pel chroma MVs by dividing by
  four (truncating toward zero).
* H.264 quarter-pel luma MVs map to *eighth-pel* chroma MVs with the same
  numeric value (quarter-luma-pel == eighth-chroma-pel in 4:2:0), so no
  conversion is needed there.
"""

from __future__ import annotations

from repro.me.types import MotionVector, div_to_zero


def chroma_mv_from_halfpel(mv: MotionVector) -> MotionVector:
    """Half-pel luma MV -> half-pel chroma MV (MPEG-2 class)."""
    return MotionVector(div_to_zero(mv.x, 2), div_to_zero(mv.y, 2))


def chroma_mv_from_qpel(mv: MotionVector) -> MotionVector:
    """Quarter-pel luma MV -> half-pel chroma MV (MPEG-4 ASP class)."""
    return MotionVector(div_to_zero(mv.x, 4), div_to_zero(mv.y, 4))
