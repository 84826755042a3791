"""Motion search cost model: distortion plus motion-vector rate.

All searches minimise ``SAD + lambda * R(mv - predictor)`` where the rate
term counts the bits of the signed Exp-Golomb codes the codecs use for MV
differences.  This is the standard cost model of the encoders the paper
benchmarks (x264's ``--me`` searches, Xvid's EPZS).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

import numpy as np

from repro.common.expgolomb import se_bit_length
from repro.mc.pad import PaddedPlane
from repro.me.types import MotionVector


def mv_rate_bits(mv: MotionVector, predictor: MotionVector) -> int:
    """Bits to code ``mv`` differentially against ``predictor``."""
    return se_bit_length(mv.x - predictor.x) + se_bit_length(mv.y - predictor.y)


def lambda_from_qp(qp: int) -> int:
    """Integer Lagrange multiplier, roughly 0.85 * 2^((qp-12)/3) as in JM/x264.

    ``qp`` is on the H.264 0..51 scale; MPEG-class callers convert their
    quantiser scale through Equation 1 first.
    """
    value = int(round(0.85 * 2.0 ** ((qp - 12) / 3.0)))
    return max(1, value)


@dataclass
class MotionCost:
    """Evaluates integer-pel motion candidates for one block.

    Caches per-vector costs so that overlapping search patterns (EPZS
    refinement, hexagon iterations) never evaluate a candidate twice —
    the same trick real estimators use.  The candidates of one pattern
    are scored together, with one ``sad`` call on their stacked blocks,
    as x264 scores a pattern with ``sad_x3``/``sad_x4``.
    """

    kernels: object
    current: np.ndarray
    reference: PaddedPlane
    x: int
    y: int
    width: int
    height: int
    predictor: MotionVector
    lagrangian: int
    search_range: int
    _cache: Dict[MotionVector, int] = field(default_factory=dict)

    def in_range(self, mv: MotionVector) -> bool:
        return abs(mv.x) <= self.search_range and abs(mv.y) <= self.search_range

    def evaluate(self, mvs: Sequence[MotionVector]) -> List[int]:
        """Costs of the integer-pel candidates ``mvs``, in order (cached).

        The candidates not cached yet are gathered as one stack and scored
        with one ``sad`` call; a vector listed twice is scored once, and an
        out-of-range vector costs :data:`_OUT_OF_RANGE` without a gather.
        """
        cache = self._cache
        fresh: List[MotionVector] = []
        for mv in dict.fromkeys(mvs):
            if mv in cache:
                continue
            if self.in_range(mv):
                fresh.append(mv)
            else:
                cache[mv] = _OUT_OF_RANGE
        if fresh:
            px, py = self.reference.offset(self.x, self.y)
            blocks = self.reference.integer_blocks(px, py, self.width, self.height, fresh)
            sads = self.kernels.sad(self.current, blocks)
            for mv, sad in zip(fresh, sads):
                cache[mv] = sad + self.lagrangian * mv_rate_bits(mv, self.predictor)
        return [cache[mv] for mv in mvs]

    @property
    def evaluations(self) -> int:
        """Number of distinct candidates evaluated (for benchmark stats)."""
        return len(self._cache)


_OUT_OF_RANGE = 1 << 60
