"""Golden-stream regression tests: the bitstream formats are frozen.

A fixed input must always produce byte-identical streams.  If one of these
hashes changes, the on-disk format changed: decoders shipped against the
old format can no longer read new streams, so the change must be
deliberate (bump ``repro.codecs.container.VERSION`` and re-record the
hashes with the helper at the bottom).
"""

import dataclasses
import functools
import hashlib
import json

import pytest

from repro.codecs import container, get_decoder, get_encoder
from repro.common.metrics import sequence_psnr
from repro.errors import ReproError
from tests.conftest import make_moving_sequence

GOLDEN = {
    "mpeg2": ("18c7010b25865ba5c0b7355d740a639056e2ca2076900cd730589c13444cc8c9", 1292),
    "mpeg4": ("680839efbd276c809a339dca32232541f8fadb69d8fad1a5dfcb4d33b33faa57", 998),
    "h264": ("a2cc6d3ff3f024087aa484101302a5321ea17151321c08cfd4bebb0e7d2b163d", 610),
    "mjpeg": ("b64a9f423601edf3c5d29c032237b5ba116356925eb67db356717925955bc0ab", 1865),
    "vc1": ("28db0fb93068217087ee397c2ff612f71cba3049557c91fee8a35530558da7d6", 947),
}

FIELDS = {
    "mpeg2": dict(qscale=5),
    "mpeg4": dict(qscale=5),
    "h264": dict(qp=26),
    "mjpeg": dict(quality=80),
    "vc1": dict(qscale=5),
}


def golden_input():
    return make_moving_sequence(width=32, height=32, frames=4, dx=1, dy=1, seed=42)


def encode(codec):
    video = golden_input()
    encoder = get_encoder(codec, width=32, height=32, search_range=4, **FIELDS[codec])
    return container.pack(encoder.encode_sequence(video))


@pytest.mark.parametrize("codec", sorted(GOLDEN))
class TestGolden:
    def test_stream_hash_stable(self, codec):
        data = encode(codec)
        digest = hashlib.sha256(data).hexdigest()
        expected_digest, expected_size = GOLDEN[codec]
        stream = container.unpack(data)
        assert stream.total_bytes == expected_size
        assert digest == expected_digest, (
            f"{codec} bitstream format changed "
            f"(size {len(data)}); see module docstring"
        )

    def test_golden_stream_decodes(self, codec):
        stream = container.unpack(encode(codec))
        decoded = get_decoder(codec).decode(stream)
        psnr = sequence_psnr(golden_input(), decoded)
        assert psnr.combined > 33.0

    @pytest.mark.parametrize("backend", ["scalar", "simd"])
    def test_golden_stream_pictures_exact(self, codec, backend):
        decoded = get_decoder(codec, backend=backend).decode(golden_stream(codec))
        assert pictures_digest(decoded) == DECODED[codec], (
            f"{codec} ({backend}) decodes the golden stream to different pictures"
        )


#: sha256 over the decoded pictures of each golden stream (see
#: :func:`pictures_digest`).  Unlike the PSNR floor above these pin every
#: sample, on both kernel backends: a faster reconstruction path must
#: decode the frozen streams to exactly the same pictures.
DECODED = {
    "h264": "3f70640b6a6ec542aa2dd92a8e0331e4f4dd76db6a4e6ffe5557788872481741",
    "mjpeg": "11a65add031c654e7a1834b3f4d9f5e0fedb8936ad2ad990f77b57d711423866",
    "mpeg2": "44f3ccc51c6c44cc67ab4cfbd33e11ba1bd4529eca21b915d7817c146101ee18",
    "mpeg4": "0e83c6cd64e01bc791f950b01f27b4c8bf6d71be02cce69c6eb00d808573ba6c",
    "vc1": "a35c78d42f7480eb2c290a0ab1bdc2a71ad48813a347db19eb2965f17fa4ca1a",
}


def pictures_digest(video):
    """sha256 over every decoded picture's Y, U and V samples, in display order."""
    digest = hashlib.sha256()
    for frame in video:
        for plane in (frame.y, frame.u, frame.v):
            digest.update(plane.astype("uint8").tobytes())
    return digest.hexdigest()


#: sha256 over the (exception class, ``bit_position``) of every damaged decode
#: in :func:`damaged_outcomes`.  Recorded with the bit-serial reader, so a
#: faster reader must fail on the same inputs, with the same class, at the
#: same bit.  Unlike the hashes above these pin error behaviour, not the
#: format, and re-recording them needs the same justification.
ERROR_PINS = {
    "h264": "299177b282a2c6af5648e8bb1dbe5cba53fd138634a0d0d6efdc011b52c9f4a9",
    "mjpeg": "8b1997d93ba5a840aacc8ef5421a94b33169cc522bc1aeff40bb345697eec74e",
    "mpeg2": "2c3cbc8785678388a3747717676af654d41de2fd80101e9dc69383e30e08f35e",
    "mpeg4": "e75cb23aaa34f4d42d41fba04714935d5ad80cea45c1f5d0fde4309e96f0675b",
    "vc1": "2c58560898734da8f27fff4ff4b19b58442547726dd98af2a88ea48c58b77083",
}

#: Truncated lengths per damaged picture (every k-th byte length).
TRUNCATIONS = 16
#: Single-bit flips per damaged picture, evenly spaced over its payload.
FLIPS = 4


@functools.lru_cache(maxsize=None)
def golden_stream(codec):
    return container.unpack(encode(codec))


def damaged_outcomes(codec):
    """Decode damaged copies of coding-order pictures 1 and 2.

    Those are the P and the first B picture of the four motion-compensated
    codecs, and two I pictures of Motion-JPEG.  Each picture is truncated
    at every k-th byte length and, separately, has single bits flipped;
    each outcome is the error's class and ``bit_position``, or ``ok``.
    """
    stream = golden_stream(codec)
    outcomes = []
    for index in (1, 2):
        payload = stream.pictures[index].payload
        step = max(1, len(payload) // TRUNCATIONS)
        variants = [payload[:length] for length in range(0, len(payload), step)]
        bits = 8 * len(payload)
        for bit in range(bits // (2 * FLIPS) + 3, bits, bits // FLIPS):
            flipped = bytearray(payload)
            flipped[bit >> 3] ^= 0x80 >> (bit & 7)
            variants.append(bytes(flipped))
        for variant in variants:
            pictures = list(stream.pictures)
            pictures[index] = dataclasses.replace(pictures[index], payload=variant)
            try:
                get_decoder(codec).decode(dataclasses.replace(stream, pictures=pictures))
            except ReproError as error:
                outcomes.append((type(error).__name__, error.bit_position))
            else:
                outcomes.append(("ok", None))
    return outcomes


def outcomes_digest(outcomes):
    return hashlib.sha256(json.dumps(outcomes).encode()).hexdigest()


@pytest.mark.parametrize("codec", sorted(ERROR_PINS))
def test_damaged_pictures_fail_identically(codec):
    outcomes = damaged_outcomes(codec)
    assert len(outcomes) > 2 * TRUNCATIONS
    assert any(name == "TruncationError" for name, _ in outcomes)
    assert outcomes_digest(outcomes) == ERROR_PINS[codec], (
        f"{codec}: a damaged picture now fails differently: {outcomes}"
    )


def regenerate():  # pragma: no cover - maintenance helper
    """Print fresh golden values after a deliberate format change."""
    for codec in sorted(GOLDEN):
        data = encode(codec)
        stream = container.unpack(data)
        print(f'    "{codec}": ("{hashlib.sha256(data).hexdigest()}", '
              f"{stream.total_bytes}),")
    for codec in sorted(DECODED):
        decoded = get_decoder(codec).decode(golden_stream(codec))
        print(f'    "{codec}": "{pictures_digest(decoded)}",')
    for codec in sorted(ERROR_PINS):
        print(f'    "{codec}": "{outcomes_digest(damaged_outcomes(codec))}",')


if __name__ == "__main__":  # pragma: no cover
    regenerate()
