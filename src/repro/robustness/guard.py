"""Decode guards: error normalisation and header/MV sanity checks.

Two kinds of protection live here:

* :func:`normalize_decode_error` turns *any* exception escaping a picture
  decode into a :class:`~repro.errors.ReproError` subclass carrying codec,
  picture index, frame type and bit position.  Raw ``IndexError`` /
  ``KeyError`` / ``ValueError`` / numpy errors never reach callers.

* ``read_frame_type`` / ``check_header`` / ``check_motion_vector`` detect
  corruption that happens to parse: out-of-range quantisers, impossible
  frame-type codes, motion vectors pointing outside the padded reference
  window.  Without these, damaged payloads decode into silent garbage or
  crash deep inside a kernel.

This module deliberately imports nothing from :mod:`repro.codecs`, so the
codec packages (and the shared prediction helpers) can use it freely.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.common.bitstream import BitReader
from repro.common.gop import FRAME_TYPE_FROM_CODE, FrameType
from repro.errors import BitstreamError, ReproError, TruncationError


def normalize_decode_error(
    error: BaseException,
    *,
    codec: str,
    picture_index: int,
    frame_type: Any = None,
    bit_position: Optional[int] = None,
    packet_seq: Optional[int] = None,
) -> ReproError:
    """Return ``error`` as a :class:`ReproError` with full decode context.

    An existing :class:`ReproError` keeps its class and message; missing
    context fields are filled in.  Anything else is wrapped in a
    :class:`BitstreamError` describing the original exception, so callers
    can treat every decode failure uniformly.  ``packet_seq`` (from the
    transport layer, :mod:`repro.transport`) names the first lost packet
    behind the damage, so bitstream faults and network losses share one
    error taxonomy.
    """
    if isinstance(error, ReproError):
        if error.codec is None:
            error.codec = codec
        if error.picture_index is None:
            error.picture_index = picture_index
        if error.frame_type is None:
            error.frame_type = frame_type
        if error.bit_position is None:
            error.bit_position = bit_position if bit_position is not None else 0
        if error.packet_seq is None:
            error.packet_seq = packet_seq
        return error
    wrapped = BitstreamError(
        f"decoder raised {type(error).__name__}: {error}",
        codec=codec,
        picture_index=picture_index,
        frame_type=frame_type,
        bit_position=bit_position if bit_position is not None else 0,
        packet_seq=packet_seq,
    )
    wrapped.__cause__ = error
    return wrapped


def read_frame_type(
    reader: BitReader, expected: Optional[FrameType] = None
) -> FrameType:
    """Read the 2-bit picture-type code, validating it.

    Code 3 is unassigned in every codec here; when ``expected`` (the
    container metadata) is given, a mismatch is rejected as corruption --
    the scheduling metadata and the payload header must agree.
    """
    code = reader.read_bits(2)
    frame_type = FRAME_TYPE_FROM_CODE.get(code)
    if frame_type is None:
        raise BitstreamError(f"invalid picture type code {code}")
    if expected is not None and frame_type is not expected:
        raise BitstreamError(
            f"picture type {frame_type} disagrees with container metadata "
            f"({expected})"
        )
    return frame_type


def check_header(name: str, value: int, low: int, high: int) -> int:
    """Validate a decoded header field against its legal range."""
    if not low <= value <= high:
        raise BitstreamError(
            f"header field {name}={value} outside legal range [{low}, {high}]"
        )
    return value


def check_motion_vector(mv, search_range: int, pel_scale: int) -> None:
    """Reject motion vectors outside the padded reference window.

    ``pel_scale`` is the fractional precision (2 = half-pel, 4 =
    quarter-pel).  Encoders clamp integer search to ``search_range`` and
    sub-pel refinement adds at most one more pel, so anything beyond
    ``pel_scale * (search_range + 1)`` can only come from corruption -- and
    would otherwise index outside the padded plane (wrapping silently via
    negative indices or crashing with a shape error).
    """
    limit = pel_scale * (search_range + 1)
    if abs(mv.x) > limit or abs(mv.y) > limit:
        raise BitstreamError(
            f"motion vector {mv} exceeds search range "
            f"(limit {limit} at 1/{pel_scale} pel)"
        )


def check_stream_geometry(width: int, height: int, fps: int) -> None:
    """Validate container-level stream dimensions before decoding.

    Streams normally come out of :mod:`repro.codecs.container`, whose
    header fields are attacker-controlled bytes; impossible geometry must
    fail here, not as a numpy shape error half-way through a picture.
    """
    if width <= 0 or height <= 0 or width % 16 or height % 16:
        raise BitstreamError(
            f"stream dimensions {width}x{height} are not macroblock aligned"
        )
    if width > 16384 or height > 16384:
        raise BitstreamError(f"stream dimensions {width}x{height} exceed 16384")
    if fps <= 0:
        raise BitstreamError(f"stream fps must be positive, got {fps}")


def check_payload_present(payload: bytes) -> None:
    """An empty payload is a lost packet: report it as truncation."""
    if not payload:
        raise TruncationError("picture payload is empty")
