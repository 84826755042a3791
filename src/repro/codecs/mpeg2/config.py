"""Configuration of the MPEG-2 class codec."""

from __future__ import annotations

from dataclasses import dataclass

from repro.codecs.hybrid import HybridConfig


@dataclass(frozen=True)
class Mpeg2Config(HybridConfig):
    """MPEG-2 encoder settings.

    ``qscale`` is the constant quantiser scale; the paper encodes with
    ``vqscale=5`` (Table IV).  Motion estimation defaults to EPZS with
    half-pel refinement, per Section IV.
    """
