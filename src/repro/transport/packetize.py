"""Picture → packet fragmentation, the wire format, and reassembly.

A coded picture rarely fits one network datagram: an HD I picture is tens
of kilobytes, a path MTU is ~1500 bytes.  :func:`packetize` fragments each
:class:`~repro.codecs.base.EncodedPicture` payload into MTU-sized packets
carrying a transport sequence number plus enough picture metadata
(coding/display index, frame type, fragment position) for the receiver to
rebuild the stream without any side channel beyond the
:class:`StreamSession` handshake — the role SDP/a manifest plays for RTP
and DASH.

Wire format (big-endian), media packets::

    magic       2 bytes  b"HP"
    version     u8
    kind        u8       0 = media, 1 = parity
    seq         u32      transport sequence number
    picture     u32      coding-order picture index
    display     u32      display index
    frame_type  u8       I=0, P=1, B=2 (the container's codes)
    frag_index  u16
    frag_count  u16
    length      u16      payload bytes
    payload     bytes

Parity packets (:mod:`repro.transport.fec`) replace the picture fields
with a protected-packet table: ``count u8`` then one 19-byte header
(``seq u32, picture u32, display u32, frame_type u8, frag_index u16,
frag_count u16, length u16``) per protected media packet, followed by
``length u16`` and the XOR payload.

:func:`reassemble` inverts :func:`packetize` under loss: every picture
slot of the session reappears in the output stream — intact when all
fragments arrived, truncated to the contiguous fragment prefix when the
tail was lost, payload-erased when nothing arrived — and each damaged
slot is described by a :class:`PictureLoss` naming the missing sequence
numbers, so the hardened decode engine can conceal it and report the
failure with ``packet_seq`` context.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Dict, Iterable, List, Tuple

from repro.codecs.base import EncodedPicture, EncodedVideo
from repro.common.gop import FRAME_TYPE_CODE, FRAME_TYPE_FROM_CODE, FrameType
from repro.errors import BitstreamError, ConfigError
from repro.telemetry.metrics import registry as telemetry_registry
from repro.telemetry.trace import state as telemetry_state

MAGIC = b"HP"
VERSION = 1

#: Packet kinds on the wire.
MEDIA = "media"
PARITY = "parity"

_KIND_CODE = {MEDIA: 0, PARITY: 1}
_KIND_FROM_CODE = {code: kind for kind, code in _KIND_CODE.items()}

#: Default fragment size (payload bytes per packet): a typical path MTU
#: minus IP/UDP/RTP-style header room.
DEFAULT_MTU = 1200

_MEDIA_HEADER = struct.Struct(">2sBBIIIBHHH")
_PROTECT_ENTRY = struct.Struct(">IIIBHHH")


@dataclass(frozen=True)
class PacketRef:
    """The header of one media packet, without its payload.

    Parity packets carry one ref per protected packet, so a recovered
    packet can be rebuilt in full (metadata *and* exact payload length)
    from the parity packet plus the surviving group members.
    """

    seq: int
    picture_index: int
    display_index: int
    frame_type: FrameType
    frag_index: int
    frag_count: int
    length: int


@dataclass(frozen=True)
class Packet:
    """One transport packet: a payload fragment or an FEC parity block."""

    seq: int
    picture_index: int
    display_index: int
    frame_type: FrameType
    frag_index: int
    frag_count: int
    payload: bytes = b""
    kind: str = MEDIA
    #: for parity packets: the media packets this parity block protects.
    protects: Tuple[PacketRef, ...] = ()

    @property
    def is_parity(self) -> bool:
        return self.kind == PARITY

    def ref(self) -> PacketRef:
        """This packet's header as a :class:`PacketRef`."""
        return PacketRef(
            self.seq, self.picture_index, self.display_index, self.frame_type,
            self.frag_index, self.frag_count, len(self.payload),
        )

    def to_bytes(self) -> bytes:
        """Serialise to the wire format."""
        if len(self.payload) > 0xFFFF:
            raise ConfigError(
                f"packet payload of {len(self.payload)} bytes exceeds the "
                "16-bit length field; lower the MTU"
            )
        if self.kind == MEDIA:
            return _MEDIA_HEADER.pack(
                MAGIC, VERSION, _KIND_CODE[MEDIA], self.seq,
                self.picture_index, self.display_index,
                FRAME_TYPE_CODE[self.frame_type],
                self.frag_index, self.frag_count, len(self.payload),
            ) + self.payload
        if len(self.protects) > 255:
            raise ConfigError(f"parity packet protects {len(self.protects)} "
                              "packets, limit is 255")
        parts = [
            MAGIC,
            struct.pack(">BBI", VERSION, _KIND_CODE[PARITY], self.seq),
            struct.pack(">B", len(self.protects)),
        ]
        for ref in self.protects:
            parts.append(_PROTECT_ENTRY.pack(
                ref.seq, ref.picture_index, ref.display_index,
                FRAME_TYPE_CODE[ref.frame_type],
                ref.frag_index, ref.frag_count, ref.length,
            ))
        parts.append(struct.pack(">H", len(self.payload)))
        parts.append(self.payload)
        return b"".join(parts)


def packet_from_bytes(data: bytes) -> Packet:
    """Parse one wire-format packet (inverse of :meth:`Packet.to_bytes`)."""
    view = memoryview(data)
    offset = 0

    def take(count: int) -> memoryview:
        nonlocal offset
        if offset + count > len(view):
            raise BitstreamError("truncated transport packet")
        chunk = view[offset:offset + count]
        offset += count
        return chunk

    magic, version, kind_code = struct.unpack(">2sBB", take(4))
    if magic != MAGIC:
        raise BitstreamError("not a transport packet (bad magic)")
    if version != VERSION:
        raise BitstreamError(f"unsupported packet version {version}")
    kind = _KIND_FROM_CODE.get(kind_code)
    if kind is None:
        raise BitstreamError(f"unknown packet kind code {kind_code}")
    if kind == MEDIA:
        seq, picture, display, type_code, frag_index, frag_count, length = (
            struct.unpack(">IIIBHHH", take(19)))
        frame_type = FRAME_TYPE_FROM_CODE.get(type_code)
        if frame_type is None:
            raise BitstreamError(f"invalid frame type code {type_code}")
        payload = bytes(take(length))
        packet = Packet(seq, picture, display, frame_type,
                        frag_index, frag_count, payload)
    else:
        (seq,) = struct.unpack(">I", take(4))
        (count,) = struct.unpack(">B", take(1))
        refs = []
        for _ in range(count):
            rseq, picture, display, type_code, frag_index, frag_count, length = (
                _PROTECT_ENTRY.unpack(take(_PROTECT_ENTRY.size)))
            frame_type = FRAME_TYPE_FROM_CODE.get(type_code)
            if frame_type is None:
                raise BitstreamError(f"invalid frame type code {type_code}")
            refs.append(PacketRef(rseq, picture, display, frame_type,
                                  frag_index, frag_count, length))
        (length,) = struct.unpack(">H", take(2))
        payload = bytes(take(length))
        packet = Packet(seq, 0, 0, FrameType.I, 0, 1, payload,
                        kind=PARITY, protects=tuple(refs))
    if offset != len(view):
        raise BitstreamError(f"{len(view) - offset} trailing bytes after packet")
    return packet


@dataclass(frozen=True)
class StreamSession:
    """The out-of-band stream description (the SDP/manifest analogue).

    Everything the receiver needs that does not travel in packets: codec,
    geometry, and the picture schedule (display index, frame type and
    fragment count per coding-order slot).  The schedule makes loss
    accounting exact — a picture whose packets were *all* lost still
    reappears as an erased slot at the right display position, and the
    missing sequence numbers are computable from the fragment counts alone.
    """

    codec: str
    width: int
    height: int
    fps: int
    mtu: int
    #: per coding-order picture: (display_index, frame_type, frag_count)
    pictures: Tuple[Tuple[int, FrameType, int], ...]

    @property
    def picture_count(self) -> int:
        return len(self.pictures)

    @property
    def packet_count(self) -> int:
        return sum(frag_count for _, _, frag_count in self.pictures)


@dataclass(frozen=True)
class PictureLoss:
    """One picture slot damaged by packet loss (for reports and errors)."""

    picture_index: int          # coding-order index
    display_index: int
    frame_type: FrameType
    lost_seqs: Tuple[int, ...]  # missing transport sequence numbers
    received_bytes: int         # contiguous payload prefix that survived

    @property
    def erased(self) -> bool:
        """True when nothing of the picture survived."""
        return self.received_bytes == 0

    def __str__(self) -> str:
        kept = (f"{self.received_bytes} bytes kept" if self.received_bytes
                else "fully lost")
        return (f"picture {self.picture_index} (display {self.display_index}, "
                f"{self.frame_type}) lost packets "
                f"{', '.join(map(str, self.lost_seqs))}: {kept}")


def packetize(stream: EncodedVideo, mtu: int = DEFAULT_MTU,
              ) -> Tuple[StreamSession, List[Packet]]:
    """Fragment ``stream`` into media packets.

    Every picture becomes ``ceil(len(payload) / mtu)`` packets (at least
    one, so zero-byte payloads still occupy a sequence number and their
    loss is detectable).  Returns the session description plus the packets
    in transmission order (coding order, fragments in payload order).
    """
    if mtu < 1:
        raise ConfigError(f"mtu must be >= 1, got {mtu}")
    if mtu > 0xFFFF:
        raise ConfigError(f"mtu {mtu} exceeds the 16-bit length field")
    packets: List[Packet] = []
    seq = 0
    for picture_index, picture in enumerate(stream.pictures):
        payload = picture.payload
        frag_count = max(1, -(-len(payload) // mtu))
        for frag_index in range(frag_count):
            fragment = payload[frag_index * mtu:(frag_index + 1) * mtu]
            packets.append(Packet(
                seq, picture_index, picture.display_index, picture.frame_type,
                frag_index, frag_count, fragment,
            ))
            seq += 1
    if telemetry_state.enabled:
        reg = telemetry_registry()
        reg.counter("transport.packets.sent").inc(len(packets))
        reg.counter("transport.bytes.sent").inc(
            sum(len(p.payload) for p in packets))
    session = StreamSession(
        codec=stream.codec, width=stream.width, height=stream.height,
        fps=stream.fps, mtu=mtu,
        pictures=tuple(
            (p.display_index, p.frame_type, max(1, -(-len(p.payload) // mtu)))
            for p in stream.pictures
        ),
    )
    return session, packets


def reassemble(session: StreamSession, packets: Iterable[Packet],
               ) -> Tuple[EncodedVideo, List[PictureLoss]]:
    """Rebuild the encoded stream from whatever media packets arrived.

    Duplicates are dropped (first arrival wins), arrival order is
    irrelevant.  Every picture slot of the session appears in the output:

    * all fragments present → the original payload, byte for byte;
    * a fragment missing → the payload truncated to its contiguous prefix
      (the decoder hits the cut and raises mid-parse, exactly like the
      ``truncate`` fault model);
    * nothing received → an empty payload (the ``erase`` fault model).

    Damaged slots are additionally described by :class:`PictureLoss`
    records carrying the lost sequence numbers.
    """
    by_picture: Dict[int, Dict[int, Packet]] = {}
    for packet in packets:
        if packet.is_parity:
            continue
        fragments = by_picture.setdefault(packet.picture_index, {})
        fragments.setdefault(packet.frag_index, packet)

    stream = EncodedVideo(codec=session.codec, width=session.width,
                          height=session.height, fps=session.fps)
    losses: List[PictureLoss] = []
    base_seq = 0
    for picture_index, (display_index, frame_type, frag_count) in enumerate(
            session.pictures):
        fragments = by_picture.get(picture_index, {})
        parts: List[bytes] = []
        lost: List[int] = []
        prefix_intact = True
        for frag_index in range(frag_count):
            packet = fragments.get(frag_index)
            if packet is None:
                prefix_intact = False
                lost.append(base_seq + frag_index)
            elif prefix_intact:
                parts.append(packet.payload)
        base_seq += frag_count
        payload = b"".join(parts)
        stream.pictures.append(EncodedPicture(payload, display_index, frame_type))
        if lost:
            losses.append(PictureLoss(
                picture_index, display_index, frame_type,
                tuple(lost), len(payload),
            ))
    if telemetry_state.enabled and losses:
        telemetry_registry().counter("transport.pictures.damaged").inc(len(losses))
    return stream, losses
