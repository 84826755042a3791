"""The HDVB container: on-disk framing for encoded streams.

The paper wraps coded video in AVI (via MEncoder) or raw Annex-B files;
this library uses a single minimal container for all three codecs so the
player front end can probe the codec and feed the right decoder, the role
AVI plays for MPlayer.

Layout (big-endian):

    magic    4 bytes  b"HDVB"
    version  u8
    codec    u8 length + ASCII name
    width    u16
    height   u16
    fps      u8
    count    u32     number of pictures
    then per picture (coding order):
        display_index u32
        frame_type    u8   (I=0, P=1, B=2)
        length        u32
        payload       bytes
"""

from __future__ import annotations

import struct
from pathlib import Path
from typing import Union

from repro.codecs.base import EncodedPicture, EncodedVideo
from repro.common.gop import FRAME_TYPE_CODE, FRAME_TYPE_FROM_CODE
from repro.errors import BitstreamError

MAGIC = b"HDVB"
VERSION = 1

PathLike = Union[str, Path]


def pack(stream: EncodedVideo) -> bytes:
    """Serialise ``stream`` to container bytes."""
    codec = stream.codec.encode("ascii")
    if not codec or len(codec) > 255:
        raise BitstreamError(f"invalid codec name {stream.codec!r}")
    parts = [
        MAGIC,
        struct.pack(">B", VERSION),
        struct.pack(">B", len(codec)),
        codec,
        struct.pack(">HHB", stream.width, stream.height, stream.fps),
        struct.pack(">I", len(stream.pictures)),
    ]
    for picture in stream.pictures:
        parts.append(
            struct.pack(
                ">IBI",
                picture.display_index,
                FRAME_TYPE_CODE[picture.frame_type],
                len(picture.payload),
            )
        )
        parts.append(picture.payload)
    return b"".join(parts)


def unpack(data: bytes) -> EncodedVideo:
    """Parse container bytes back into an :class:`EncodedVideo`."""
    view = memoryview(data)
    offset = 0

    def take(count: int) -> memoryview:
        nonlocal offset
        if offset + count > len(view):
            raise BitstreamError("truncated HDVB container")
        chunk = view[offset : offset + count]
        offset += count
        return chunk

    if bytes(take(4)) != MAGIC:
        raise BitstreamError("not an HDVB container (bad magic)")
    (version,) = struct.unpack(">B", take(1))
    if version != VERSION:
        raise BitstreamError(f"unsupported container version {version}")
    (name_len,) = struct.unpack(">B", take(1))
    try:
        codec = bytes(take(name_len)).decode("ascii")
    except UnicodeDecodeError:
        raise BitstreamError("corrupt codec name in container header") from None
    width, height, fps = struct.unpack(">HHB", take(5))
    (count,) = struct.unpack(">I", take(4))
    stream = EncodedVideo(codec=codec, width=width, height=height, fps=fps)
    for _ in range(count):
        display_index, type_code, length = struct.unpack(">IBI", take(9))
        try:
            frame_type = FRAME_TYPE_FROM_CODE[type_code]
        except KeyError:
            raise BitstreamError(f"invalid frame type code {type_code}") from None
        payload = bytes(take(length))
        stream.pictures.append(EncodedPicture(payload, display_index, frame_type))
    if offset != len(view):
        raise BitstreamError(f"{len(view) - offset} trailing bytes after container")
    return stream


def write_file(path: PathLike, stream: EncodedVideo) -> int:
    """Write a container file; returns bytes written."""
    data = pack(stream)
    Path(path).write_bytes(data)
    return len(data)


def read_file(path: PathLike) -> EncodedVideo:
    """Read a container file."""
    return unpack(Path(path).read_bytes())


def probe_codec(path: PathLike) -> str:
    """Return the codec name stored in a container file without full parse."""
    with open(path, "rb") as handle:
        header = handle.read(6)
        if len(header) < 6 or header[:4] != MAGIC:
            raise BitstreamError(f"{path}: not an HDVB container")
        name_len = header[5]
        name = handle.read(name_len)
        if len(name) != name_len:
            raise BitstreamError(f"{path}: truncated codec name")
        return name.decode("ascii")
