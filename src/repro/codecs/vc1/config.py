"""Configuration of the VC-1 class codec."""

from __future__ import annotations

from dataclasses import dataclass

from repro.codecs.hybrid import HybridConfig


@dataclass(frozen=True)
class Vc1Config(HybridConfig):
    """VC-1 class encoder settings.

    ``qscale`` is the constant quantiser scale on the MPEG 1..31 scale
    (the 4x4 transform path derives its H.264-scale QP through Equation
    1).  ``adaptive_transform`` disables the 4x4 path when False (the
    ablation baseline).
    """

    adaptive_transform: bool = True
