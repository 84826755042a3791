"""Edge-padded reference planes and their sub-pel phase planes.

Motion vectors may point (partially) outside the picture; all standards
define the out-of-bounds samples by edge replication.  Rather than clamping
coordinates per pixel in the hot interpolation loops, reference planes are
padded once per frame with a margin that covers the motion search range
plus the widest interpolation support (the H.264 six-tap filter needs
samples from -2 to +3 around the block).

Motion search scores many overlapping candidates against one reference,
so a padded plane also caches two kinds of whole-plane views: per block
size, a window view from which a set of integer-pel candidates is gathered
as one stack (:meth:`PaddedPlane.integer_blocks`); per sub-pel phase, a
*phase plane*, the whole plane interpolated once, of which every candidate
block is a slice (:meth:`PaddedPlane.subpel_block`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Sequence, Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.errors import CodecError, ConfigError

#: Extra margin beyond the search range for sub-pel filter support.
INTERP_MARGIN = 8

#: Samples left out on every side of a phase plane: the widest filter
#: support, H.264's six-tap, reads 2 samples before and 3 after.
PHASE_MARGIN = 3


@dataclass
class PaddedPlane:
    """A reference plane with replicated borders.

    ``plane`` holds the padded samples as ``int64``; frame coordinate
    (x, y) lives at ``plane[y + pad, x + pad]``.  The window views of
    :meth:`integer_blocks` and the phase planes of :meth:`subpel_block`
    live as long as this object.
    """

    plane: np.ndarray
    pad: int
    width: int
    height: int
    _windows: Dict[Tuple[int, int], np.ndarray] = field(
        default_factory=dict, repr=False, init=False)
    _phases: Dict[Tuple[str, int, int], np.ndarray] = field(
        default_factory=dict, repr=False)

    def offset(self, x: int, y: int) -> tuple:
        """Translate frame coordinates into padded-plane coordinates."""
        return (x + self.pad, y + self.pad)

    def integer_blocks(self, x: int, y: int, width: int, height: int,
                       mvs: Sequence) -> np.ndarray:
        """The ``width`` x ``height`` blocks at (x + mv.x, y + mv.y), one per
        vector of ``mvs``, as one ``(len(mvs), height, width)`` ``int64`` stack.

        (x, y) are padded-plane coordinates.  Block ``i`` equals
        ``get_block(self.plane, x + mvs[i].x, y + mvs[i].y, width, height)``:
        the stack is gathered from a window view of the plane, cached per
        block size.
        """
        windows = self._windows.get((width, height))
        if windows is None:
            windows = self._windows[(width, height)] = sliding_window_view(
                self.plane, (height, width))
        # Index arrays, not lists: NumPy gathers from arrays faster.
        rows = np.array([y + mv.y for mv in mvs])
        cols = np.array([x + mv.x for mv in mvs])
        return windows[rows, cols]

    def subpel_block(self, kernels, kernel: str, unit: int, x: int, y: int,
                     width: int, height: int, mvx: int, mvy: int) -> np.ndarray:
        """``kernels.<kernel>(self.plane, x, y, width, height, mvx, mvy)``, as a slice.

        ``unit`` is the kernel's fractional positions per pel.  The block is
        a read-only ``uint8`` view of the phase plane of (mvx, mvy)'s sub-pel
        phase: the plane less :data:`PHASE_MARGIN` on every side,
        interpolated by one call of the same kernel on first use, so the
        samples are equal bit for bit.  Phase planes are cached per kernel
        *name* (wrapping backends may give every kernel one function name).
        """
        (ix, fx), (iy, fy) = divmod(mvx, unit), divmod(mvy, unit)
        key = (kernel, fx, fy)
        phase = self._phases.get(key)
        if phase is None:
            rows, cols = self.plane.shape
            margin = PHASE_MARGIN
            values = getattr(kernels, kernel)(
                self.plane, margin, margin, cols - 2 * margin, rows - 2 * margin, fx, fy)
            if values.min() < 0 or values.max() > 255:
                raise CodecError(
                    f"{kernel} phase ({fx},{fy}) leaves the 0..255 sample range")
            phase = self._phases[key] = values.astype(np.uint8)
            phase.flags.writeable = False
        left, top = x + ix - PHASE_MARGIN, y + iy - PHASE_MARGIN
        return phase[top : top + height, left : left + width]


def pad_plane(plane: np.ndarray, search_range: int) -> PaddedPlane:
    """Edge-replicate ``plane`` for motion searches up to ``search_range``.

    The samples are checked once to lie in 0..255.  Every interpolation
    kernel averages or clips, so a prediction read from a checked plane is
    in range too, and a decoder can store it unclipped where a block has no
    residual.
    """
    if search_range < 0:
        raise ConfigError(f"search_range must be >= 0, got {search_range}")
    if plane.min() < 0 or plane.max() > 255:
        raise CodecError("reference plane leaves the 0..255 sample range")
    pad = search_range + INTERP_MARGIN
    height, width = plane.shape
    padded = np.pad(plane.astype(np.int64), pad, mode="edge")
    return PaddedPlane(plane=padded, pad=pad, width=width, height=height)
