"""Property-based end-to-end codec tests.

Random tiny sequences must round-trip through every codec: decode succeeds,
frame counts and geometry are preserved, and the reconstruction error stays
within the quantiser's reach.  Every motion-compensated codec's decoder
must also output exactly the pictures its encoder reconstructed (the
closed loop).  This is the fuzzing counterpart of the deterministic
round-trip tests.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.codecs import CODEC_NAMES, get_decoder, get_encoder
from repro.common.gop import FrameType, GopStructure
from repro.common.metrics import sequence_psnr
from repro.common.yuv import YuvFrame, YuvSequence


@st.composite
def tiny_videos(draw):
    """Random 16x16..32x32 sequences of 1..4 smooth-ish frames."""
    width = draw(st.sampled_from([16, 32]))
    height = draw(st.sampled_from([16, 32]))
    count = draw(st.integers(1, 4))
    seed = draw(st.integers(0, 2 ** 16))
    rng = np.random.default_rng(seed)
    # Smooth base + per-frame jitter: decodable content, not pure noise.
    base = rng.integers(0, 256, (height // 4, width // 4))
    frames = []
    for _ in range(count):
        luma = np.kron(base, np.ones((4, 4))) + rng.integers(-12, 13, (height, width))
        chroma_u = rng.integers(100, 156, (height // 2, width // 2))
        chroma_v = rng.integers(100, 156, (height // 2, width // 2))
        frames.append(
            YuvFrame(
                np.clip(luma, 0, 255).astype(np.uint8),
                chroma_u.astype(np.uint8),
                chroma_v.astype(np.uint8),
            )
        )
        base = base + rng.integers(-4, 5, base.shape)
        base = np.clip(base, 0, 255)
    return YuvSequence(frames, fps=25)


def fields_for(codec, video):
    fields = dict(width=video.width, height=video.height, search_range=4)
    if codec == "h264":
        fields["qp"] = 26
    elif codec == "mjpeg":
        fields["quality"] = 80
    else:
        fields["qscale"] = 5
    return fields


@st.composite
def codec_tools(draw, codec):
    """Random GOP shape and per-codec tool switches for ``codec``."""
    fields = {}
    if codec != "mjpeg":
        fields["gop"] = GopStructure(bframes=draw(st.integers(0, 2)))
    if codec == "mpeg4":
        fields["qpel"] = draw(st.booleans())
        fields["four_mv"] = draw(st.booleans())
    elif codec == "vc1":
        fields["adaptive_transform"] = draw(st.booleans())
    elif codec == "h264":
        fields["deblock"] = draw(st.booleans())
        fields["ref_frames"] = draw(st.integers(1, 3))
        extra = draw(st.sets(st.sampled_from(("16x8", "8x16", "8x8"))))
        fields["partitions"] = ("16x16",) + tuple(
            shape for shape in ("16x8", "8x16", "8x8") if shape in extra)
    return fields


def capture_reconstructions(encoder):
    """Record, by display index, every frame ``_encode_picture`` returns."""
    reconstructions = {}
    encode_picture = encoder._encode_picture

    def capture(entry, *args):
        payload, recon = encode_picture(entry, *args)
        reconstructions[entry.display_index] = (entry.frame_type, recon)
        return payload, recon

    encoder._encode_picture = capture
    return reconstructions


@pytest.mark.parametrize("codec", CODEC_NAMES + ("mjpeg", "vc1"))
class TestRandomRoundTrips:
    @given(video=tiny_videos(), data=st.data())
    @settings(max_examples=8, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_roundtrip(self, codec, video, data):
        fields = fields_for(codec, video)
        fields.update(data.draw(codec_tools(codec)))
        encoder = get_encoder(codec, **fields)
        # MJPEG's encoder builds no reconstruction: it keeps the PSNR floor only.
        reconstructions = {} if codec == "mjpeg" else capture_reconstructions(encoder)
        stream = encoder.encode_sequence(video)
        decoded = get_decoder(codec).decode(stream)
        assert len(decoded) == len(video)
        assert (decoded.width, decoded.height) == (video.width, video.height)
        psnr = sequence_psnr(video, decoded)
        # Random jitter content still reconstructs within the coarse-quant
        # regime; anything below this indicates a prediction drift bug.
        assert psnr.y > 22.0
        # The MPEG-family encoders reconstruct anchors only, and the H.264
        # encoder deblocks anchors only, so a B picture is checked when the
        # stream applies no in-loop filter to it: H.264 with deblock off.
        for display, (frame_type, recon) in reconstructions.items():
            if recon is None or (frame_type is FrameType.B and fields.get("deblock")):
                continue
            expected = recon.to_yuv()
            for plane in ("y", "u", "v"):
                np.testing.assert_array_equal(
                    getattr(decoded[display], plane), getattr(expected, plane),
                    err_msg=f"{codec} {frame_type} picture {display} plane {plane}")

    @given(video=tiny_videos(), data=st.data())
    @settings(max_examples=4, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_backends_bit_exact(self, codec, video, data):
        fields = fields_for(codec, video)
        fields.update(data.draw(codec_tools(codec)))
        streams = [
            [(picture.display_index, picture.frame_type, picture.payload)
             for picture in get_encoder(codec, backend=backend, **fields)
             .encode_sequence(video).pictures]
            for backend in ("scalar", "simd")
        ]
        assert streams[0] == streams[1]
