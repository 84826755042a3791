"""Workload definitions, seeded inputs and output digests.

Every workload codes all four HD-VideoBench sequences with the SIMD kernel
backend under the paper's options (``BenchConfig``: 1/8 scale, qscale 5 /
QP 26, EPZS, search range 8, I-P-B-B GOP).  The seed changes the content:
it is mixed into each sequence generator's own content seed, so motion,
detail and coefficient density keep their per-sequence character while
textures and object placement change.  The codecs receive only the
generated frames (encode workloads) or the coded streams (decode
workloads).

Decode workloads need coded inputs.  They are encoded once per
(seed, program source) and kept under ``.perfbench_cache/`` in the
checkout, stored with their sha256 digest and re-checked on every load.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from perfbench import REPO_ROOT, SOURCE_TREE
from repro.bench.config import BenchConfig
from repro.codecs import EncodedVideo, get_decoder, get_encoder
from repro.codecs.container import pack, unpack
from repro.common.metrics import sequence_psnr
from repro.common.yuv import YuvSequence
from repro.errors import BitstreamError
from repro.sequences import SEQUENCE_NAMES, get_generator

CONFIG = BenchConfig()
BACKEND = "simd"
CACHE_DIR = REPO_ROOT / ".perfbench_cache"
DIGESTS_FILE = REPO_ROOT / "perfbench" / "digests.json"
_CACHE_FORMAT = "perfbench-input/1"


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: a direction, codecs, a tier and a clip length."""

    name: str
    direction: str          # "encode" or "decode"
    codecs: Tuple[str, ...]
    tier: str
    frames: int
    why: str


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            "h264-encode", "encode", ("h264",), "720p25", 4,
            "H.264 encode, 720p tier: quarter-pel interpolation and SAD inside motion "
            "estimation dominate; bit writes are small",
        ),
        Workload(
            "mpeg2-encode", "encode", ("mpeg2",), "1088p25", 7,
            "MPEG-2 encode, 1088p tier: the one workload where bit writes and VLC "
            "encoding carry weight, plus 8x8 DCT/quant and half-pel ME",
        ),
        Workload(
            "mpeg-decode", "decode", ("mpeg2", "mpeg4"), "1088p25", 7,
            "MPEG-2 and MPEG-4 decode of 1088p streams: bit reads, VLC and zigzag "
            "dominate; no motion estimation at all",
        ),
        Workload(
            "h264-decode", "decode", ("h264",), "1088p25", 7,
            "H.264 decode of 1088p streams: transform, add_clip reconstruction and "
            "deblocking dominate; one qpel call per partition",
        ),
    )
}


# -- content ---------------------------------------------------------------

def content_seed(sequence: str, seed: int) -> int:
    """The generator seed for ``sequence`` under workload seed ``seed``."""
    base = type(get_generator(sequence)).seed
    return int(np.random.SeedSequence([base, seed]).generate_state(1)[0])


def resolution(tier: str):
    return next(res for res in CONFIG.tiers() if res.name == tier)


def generate(sequence: str, tier: str, frames: int, seed: int) -> YuvSequence:
    """Render ``sequence`` with its content seed replaced for ``seed``."""
    generator = type(get_generator(sequence))()
    generator.seed = content_seed(sequence, seed)
    return generator.generate(resolution(tier), frames)


# -- digests ---------------------------------------------------------------

def stream_digest(stream: EncodedVideo) -> str:
    """sha256 over the stream header and every coded picture, in coding order."""
    digest = hashlib.sha256(
        f"{stream.codec}:{stream.width}x{stream.height}@{stream.fps}".encode())
    for picture in stream.pictures:
        digest.update(f"|{picture.display_index}:{picture.frame_type.value}:"
                      f"{len(picture.payload)}|".encode())
        digest.update(picture.payload)
    return digest.hexdigest()


def frames_digest(video: YuvSequence) -> str:
    """sha256 over every decoded picture's Y, U and V samples, in display order."""
    digest = hashlib.sha256()
    for frame in video:
        for plane in (frame.y, frame.u, frame.v):
            digest.update(f"{plane.shape}".encode())
            digest.update(np.ascontiguousarray(plane, dtype=np.uint8).tobytes())
    return digest.hexdigest()


def pinned_digests(workload: str, seed: int) -> Optional[Dict[str, Dict[str, str]]]:
    """Pinned per-operation digests for (workload, seed), if this seed is pinned."""
    with open(DIGESTS_FILE, encoding="utf-8") as handle:
        pinned = json.load(handle)
    return pinned["digests"].get(str(seed), {}).get(workload)


class DigestCheck:
    """Checks outputs against pinned digests, or against the first repetition."""

    def __init__(self, expected: Optional[Dict[str, Dict[str, str]]]) -> None:
        self.pinned = expected is not None
        self.expected: Dict[str, Dict[str, str]] = {
            label: dict(kinds) for label, kinds in (expected or {}).items()}
        self.mismatches: List[str] = []

    def check(self, label: str, kind: str, digest: str) -> bool:
        """True when ``digest`` is the expected ``kind`` digest of ``label``."""
        known = self.expected.setdefault(label, {})
        if kind not in known:
            if self.pinned:
                self.mismatches.append(f"{label} {kind}: no pinned digest")
                return False
            known[kind] = digest
            return True
        if known[kind] != digest:
            self.mismatches.append(f"{label} {kind}: {digest[:12]} != {known[kind][:12]}")
            return False
        return True


# -- operations ------------------------------------------------------------

@dataclass
class Operation:
    """One closed-loop operation: encode or decode one sequence with one codec."""

    label: str
    codec: str
    direction: str
    source: YuvSequence
    fields: Dict
    stream: Optional[EncodedVideo] = None   # decode input
    decoded: Optional[YuvSequence] = field(default=None, repr=False)

    @property
    def frames(self) -> int:
        return len(self.source)

    def build(self):
        """A fresh codec for one run of this operation."""
        if self.direction == "encode":
            return get_encoder(self.codec, **self.fields)
        return self.build_decoder()

    def build_decoder(self):
        return get_decoder(self.codec, backend=BACKEND)

    def run(self, codec):
        """Run the operation on ``codec``; returns a stream or a decoded sequence."""
        if self.direction == "encode":
            return codec.encode_sequence(self.source)
        return codec.decode(self.stream)

    def digest(self, output) -> Tuple[str, str]:
        if self.direction == "encode":
            return "stream", stream_digest(output)
        return "decoded", frames_digest(output)


def _source_fingerprint() -> str:
    """sha256 over the program's Python source, so a cached input never outlives it."""
    digest = hashlib.sha256()
    for path in sorted((SOURCE_TREE / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(SOURCE_TREE)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _cache_path(op: Operation, tier: str, seed: int, fingerprint: str):
    key = hashlib.sha256(
        f"{_CACHE_FORMAT}|{op.label}|{tier}|{op.frames}|{seed}|{fingerprint}".encode()
    ).hexdigest()[:32]
    return CACHE_DIR / f"{key}.hdvb"


def _load_cached(path) -> Optional[EncodedVideo]:
    try:
        data = path.read_bytes()
    except FileNotFoundError:
        return None
    recorded, _, body = data.partition(b"\n")
    try:
        stream = unpack(body)
    except BitstreamError:      # a damaged entry is re-encoded like a missing one
        return None
    if stream_digest(stream) != recorded.decode("ascii", "replace"):
        return None
    return stream


def _store_cached(path, stream: EncodedVideo) -> None:
    CACHE_DIR.mkdir(exist_ok=True)
    temporary = path.with_suffix(f".tmp{os.getpid()}")
    temporary.write_bytes(stream_digest(stream).encode("ascii") + b"\n" + pack(stream))
    os.replace(temporary, path)


def prepare(workload: Workload, seed: int,
            log: Callable[[str], None] = lambda message: None) -> List[Operation]:
    """Generate the inputs of ``workload`` for ``seed``; returns its operations.

    For a decode workload the coded inputs come from the cache when a valid
    entry exists and are encoded (and cached) otherwise.
    """
    res = resolution(workload.tier)
    fingerprint = _source_fingerprint() if workload.direction == "decode" else ""
    operations: List[Operation] = []
    for sequence in SEQUENCE_NAMES:
        source = generate(sequence, workload.tier, workload.frames, seed)
        for codec in workload.codecs:
            fields = CONFIG.encoder_fields(codec, res, backend=BACKEND)
            op = Operation(f"{codec}/{sequence}", codec, workload.direction, source, fields)
            if workload.direction == "decode":
                path = _cache_path(op, workload.tier, seed, fingerprint)
                op.stream = _load_cached(path)
                if op.stream is None:
                    log(f"encoding decode input {op.label} for seed {seed}")
                    op.stream = get_encoder(codec, **fields).encode_sequence(source)
                    _store_cached(path, op.stream)
            op.build()     # first-touch codec construction is part of set-up
            operations.append(op)
    return operations


def mean_psnr_y(operations: List[Operation]) -> float:
    """Mean luma PSNR (dB) of each operation's decoded output against its source."""
    values = [sequence_psnr(op.source, op.decoded).y for op in operations]
    return sum(values) / len(values)


def coded_kbits(operations: List[Operation]) -> float:
    return sum(8 * op.stream.total_bytes for op in operations) / 1000.0


def kbps(operations: List[Operation]) -> float:
    """Coded bitrate of all the workload's streams together, at 25 fps."""
    frames = sum(op.stream.frame_count for op in operations)
    fps = operations[0].stream.fps
    return coded_kbits(operations) * fps / frames
