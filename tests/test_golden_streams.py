"""Golden-stream regression tests: the bitstream formats are frozen.

A fixed input must always produce byte-identical streams.  If one of these
hashes changes, the on-disk format changed: decoders shipped against the
old format can no longer read new streams, so the change must be
deliberate (bump ``repro.codecs.container.VERSION`` and re-record the
hashes with the helper at the bottom).
"""

import hashlib

import pytest

from repro.codecs import container, get_decoder, get_encoder
from repro.common.metrics import sequence_psnr
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


def regenerate():  # pragma: no cover - maintenance helper
    """Print fresh golden values after a deliberate format change."""
    for codec in sorted(GOLDEN):
        data = encode(codec)
        stream = container.unpack(data)
        print(f'    "{codec}": ("{hashlib.sha256(data).hexdigest()}", '
              f"{stream.total_bytes}),")


if __name__ == "__main__":  # pragma: no cover
    regenerate()
