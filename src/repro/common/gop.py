"""GOP structure: frame types, display order and coding order.

HD-VideoBench fixes the frame pattern to I-P-B-B for all codecs (Section
IV): two B frames between anchors, adaptive B placement disabled, and the
only intra frame is the first one.  This module turns a frame count into
that schedule and provides the display/coding order permutation the
encoders and decoders share.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.errors import ConfigError


class FrameType(enum.Enum):
    I = "I"
    P = "P"
    B = "B"

    def __str__(self) -> str:
        return self.value

    @property
    def is_anchor(self) -> bool:
        return self is not FrameType.B


#: Wire code of each frame type: the 2-bit picture-type field of every
#: codec's picture header, the container's picture headers and the
#: transport packet headers all spell a picture type the same way.
FRAME_TYPE_CODE: Dict[FrameType, int] = {FrameType.I: 0, FrameType.P: 1, FrameType.B: 2}
FRAME_TYPE_FROM_CODE: Dict[int, FrameType] = {
    code: frame_type for frame_type, code in FRAME_TYPE_CODE.items()
}


@dataclass(frozen=True)
class CodedFrame:
    """One entry of a GOP schedule.

    ``forward_ref`` / ``backward_ref`` are *display* indices of the past and
    future anchor used for prediction (``None`` where not applicable).
    """

    display_index: int
    frame_type: FrameType
    forward_ref: Optional[int] = None
    backward_ref: Optional[int] = None

    def __post_init__(self) -> None:
        if self.frame_type is FrameType.I:
            if self.forward_ref is not None or self.backward_ref is not None:
                raise ConfigError("I frames take no references")
        elif self.frame_type is FrameType.P:
            if self.forward_ref is None or self.backward_ref is not None:
                raise ConfigError("P frames take exactly a forward reference")
        else:
            if self.forward_ref is None or self.backward_ref is None:
                raise ConfigError("B frames take both references")


@dataclass(frozen=True)
class GopStructure:
    """The HD-VideoBench GOP: ``bframes`` B pictures between anchors.

    ``intra_period`` of zero reproduces the paper's "only intra frame is the
    first one"; a positive value forces an I frame every that many anchors
    (an extension used by the ablation benchmarks).
    """

    bframes: int = 2
    intra_period: int = 0

    def __post_init__(self) -> None:
        if self.bframes < 0:
            raise ConfigError(f"bframes must be >= 0, got {self.bframes}")
        if self.intra_period < 0:
            raise ConfigError(f"intra_period must be >= 0, got {self.intra_period}")

    @property
    def pattern_name(self) -> str:
        """Human-readable pattern, e.g. ``"I-P-B-B"`` for the paper's GOP."""
        return "-".join(["I", "P"] + ["B"] * self.bframes)

    def anchor_positions(self, frame_count: int) -> List[int]:
        """Display indices of anchor (I/P) frames for ``frame_count`` frames."""
        if frame_count <= 0:
            raise ConfigError(f"frame_count must be positive, got {frame_count}")
        anchors = [0]
        while anchors[-1] < frame_count - 1:
            anchors.append(min(anchors[-1] + self.bframes + 1, frame_count - 1))
        return anchors

    def display_types(self, frame_count: int) -> List[FrameType]:
        """Frame type of every frame in display order."""
        anchors = set(self.anchor_positions(frame_count))
        types = []
        anchor_count = 0
        for index in range(frame_count):
            if index not in anchors:
                types.append(FrameType.B)
                continue
            is_intra = anchor_count == 0 or (
                self.intra_period and anchor_count % self.intra_period == 0
            )
            types.append(FrameType.I if is_intra else FrameType.P)
            anchor_count += 1
        return types

    def coding_order(self, frame_count: int) -> List[CodedFrame]:
        """The schedule in coding order.

        Each anchor is coded before the B frames that display before it,
        exactly as an I-P-B-B encoder emits them.
        """
        types = self.display_types(frame_count)
        anchors = self.anchor_positions(frame_count)
        order: List[CodedFrame] = []
        previous_anchor: Optional[int] = None
        for anchor in anchors:
            if types[anchor] is FrameType.I:
                order.append(CodedFrame(anchor, FrameType.I))
            else:
                order.append(CodedFrame(anchor, FrameType.P, forward_ref=previous_anchor))
            if previous_anchor is not None:
                for display in range(previous_anchor + 1, anchor):
                    order.append(
                        CodedFrame(
                            display,
                            FrameType.B,
                            forward_ref=previous_anchor,
                            backward_ref=anchor,
                        )
                    )
            previous_anchor = anchor
        return order

    def display_order(self, frame_count: int) -> List[int]:
        """Permutation mapping coding position -> display index."""
        return [entry.display_index for entry in self.coding_order(frame_count)]


# The configuration the paper uses for every codec.
PAPER_GOP = GopStructure(bframes=2, intra_period=0)
