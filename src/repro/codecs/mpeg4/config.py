"""Configuration of the MPEG-4 ASP class codec."""

from __future__ import annotations

from dataclasses import dataclass

from repro.codecs.hybrid import HybridConfig


@dataclass(frozen=True)
class Mpeg4Config(HybridConfig):
    """MPEG-4 ASP encoder settings.

    Defaults follow the paper's Xvid command line (Table IV):
    ``fixed_quant=5`` -> ``qscale=5``, ``qpel`` -> quarter-pel on, EPZS
    motion estimation.  ``four_mv`` enables the ASP four-motion-vector
    inter mode.
    """

    qpel: bool = True
    four_mv: bool = True
