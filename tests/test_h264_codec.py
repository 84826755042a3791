"""End-to-end tests for the H.264 class codec."""

import numpy as np
import pytest

from repro.codecs.base import EncodedPicture, EncodedVideo
from repro.codecs.frames import WorkingFrame
from repro.codecs.h264 import H264Config, H264Decoder, H264Encoder, common
from repro.codecs.mpeg2 import Mpeg2Config, Mpeg2Encoder
from repro.common.bitstream import BitWriter
from repro.common.expgolomb import write_se, write_ue
from repro.common.gop import FrameType, GopStructure
from repro.common.metrics import sequence_psnr
from repro.errors import CodecError, ConfigError
from tests.conftest import make_moving_sequence


def encode(video, **overrides):
    fields = dict(width=video.width, height=video.height, qp=26, search_range=4)
    fields.update(overrides)
    encoder = H264Encoder(H264Config(**fields))
    return encoder, encoder.encode_sequence(video)


class TestRoundTrip:
    def test_psnr_reasonable(self, tiny_video):
        _, stream = encode(tiny_video)
        decoded = H264Decoder().decode(stream)
        assert sequence_psnr(tiny_video, decoded).y > 30.0

    def test_deterministic(self, tiny_video):
        _, first = encode(tiny_video)
        _, second = encode(tiny_video)
        assert all(a.payload == b.payload for a, b in zip(first.pictures, second.pictures))

    def test_gop_structure(self, tiny_video):
        _, stream = encode(tiny_video)
        counts = stream.frame_types()
        assert counts[FrameType.I] == 1
        assert counts[FrameType.B] >= 1

    def test_intra_only(self, tiny_video):
        _, stream = encode(tiny_video, gop=GopStructure(bframes=0, intra_period=1))
        decoded = H264Decoder().decode(stream)
        assert sequence_psnr(tiny_video, decoded).y > 30.0

    def test_ip_only(self, tiny_video):
        _, stream = encode(tiny_video, gop=GopStructure(bframes=0))
        decoded = H264Decoder().decode(stream)
        assert sequence_psnr(tiny_video, decoded).y > 30.0


class TestTools:
    def test_deblock_off_roundtrips(self, tiny_video):
        _, stream = encode(tiny_video, deblock=False)
        decoded = H264Decoder().decode(stream)
        assert sequence_psnr(tiny_video, decoded).y > 30.0

    def test_deblock_streams_differ(self, tiny_video):
        _, with_filter = encode(tiny_video, deblock=True)
        _, without = encode(tiny_video, deblock=False)
        assert any(
            a.payload != b.payload
            for a, b in zip(with_filter.pictures, without.pictures)
        )

    def test_single_partition_roundtrips(self, tiny_video):
        _, stream = encode(tiny_video, partitions=("16x16",))
        decoded = H264Decoder().decode(stream)
        assert sequence_psnr(tiny_video, decoded).y > 30.0

    def test_partitions_help_rate_distortion(self):
        video = make_moving_sequence(width=64, height=48, frames=5, dx=3, dy=0, seed=21)
        _, all_shapes = encode(video, search_range=8)
        _, only16 = encode(video, search_range=8, partitions=("16x16",))
        decoded_all = H264Decoder().decode(all_shapes)
        decoded_16 = H264Decoder().decode(only16)
        psnr_all = sequence_psnr(video, decoded_all).y
        psnr_16 = sequence_psnr(video, decoded_16).y
        # More shapes never hurt the encoder's RD decision materially.
        assert (all_shapes.total_bytes <= only16.total_bytes * 1.05
                or psnr_all >= psnr_16 - 0.1)

    def test_multiple_reference_frames(self, tiny_video):
        _, stream = encode(tiny_video, ref_frames=3)
        decoded = H264Decoder().decode(stream)
        assert sequence_psnr(tiny_video, decoded).y > 30.0

    def test_single_reference(self, tiny_video):
        _, stream = encode(tiny_video, ref_frames=1)
        decoded = H264Decoder().decode(stream)
        assert sequence_psnr(tiny_video, decoded).y > 30.0

    @pytest.mark.parametrize("algorithm", ["hex", "epzs", "full"])
    def test_me_algorithms(self, tiny_video, algorithm):
        _, stream = encode(tiny_video, me_algorithm=algorithm)
        decoded = H264Decoder().decode(stream)
        assert sequence_psnr(tiny_video, decoded).y > 30.0


class TestRateBehaviour:
    def test_qp_monotone_bits(self, tiny_video):
        _, fine = encode(tiny_video, qp=18)
        _, coarse = encode(tiny_video, qp=38)
        assert coarse.total_bytes < fine.total_bytes

    def test_qp_monotone_quality(self, tiny_video):
        _, fine = encode(tiny_video, qp=18)
        _, coarse = encode(tiny_video, qp=38)
        assert (
            sequence_psnr(tiny_video, H264Decoder().decode(fine)).y
            > sequence_psnr(tiny_video, H264Decoder().decode(coarse)).y
        )

    def test_beats_mpeg2_on_motion(self):
        video = make_moving_sequence(width=64, height=48, frames=6, dx=2, dy=1)
        _, h264_stream = encode(video, search_range=8)
        mpeg2_stream = Mpeg2Encoder(
            Mpeg2Config(width=video.width, height=video.height, qscale=5, search_range=8)
        ).encode_sequence(video)
        assert h264_stream.total_bytes < mpeg2_stream.total_bytes


class TestValidation:
    def test_invalid_qp(self):
        with pytest.raises(ConfigError):
            H264Config(width=32, height=32, qp=60)

    def test_invalid_ref_frames(self):
        with pytest.raises(ConfigError):
            H264Config(width=32, height=32, ref_frames=0)

    def test_16x16_partition_mandatory(self):
        with pytest.raises(ConfigError):
            H264Config(width=32, height=32, partitions=("8x8",))

    def test_unknown_partition(self):
        with pytest.raises(ConfigError):
            H264Config(width=32, height=32, partitions=("16x16", "4x4"))

    def test_wrong_codec_rejected(self, tiny_video):
        _, stream = encode(tiny_video)
        stream.codec = "mpeg4"
        with pytest.raises(CodecError):
            H264Decoder().decode(stream)


def flat_frame(value, width=16, height=16):
    return WorkingFrame(
        np.full((height, width), value, dtype=np.int64),
        np.full((height // 2, width // 2), value, dtype=np.int64),
        np.full((height // 2, width // 2), value, dtype=np.int64),
    )


class TestPartitionReferences:
    def test_each_partition_predicts_from_its_own_reference(self):
        """A hand-written 16x8 P macroblock whose halves name different references."""
        writer = BitWriter()
        writer.write_bits(1, 2)   # picture type P
        writer.write_bits(26, 6)  # qp
        writer.write_bits(4, 8)   # search range
        writer.write_bit(0)       # deblocking off
        writer.write_bits(2, 4)   # reference frames
        writer.write_bits(2, 4)   # active L0 size
        write_ue(writer, common.P_16X8)
        for ref_index in (0, 1):
            write_ue(writer, ref_index)
            write_se(writer, 0)   # MV difference x
            write_se(writer, 0)   # MV difference y
        writer.write_bits(0, 4)   # luma cbp
        write_ue(writer, 0)       # chroma cbp
        writer.align()
        stream = EncodedVideo(codec="h264", width=16, height=16, fps=25)
        picture = EncodedPicture(writer.to_bytes(), 2, FrameType.P)
        # L0 lists past anchors nearest first: ref_idx 0 is display 1.
        references = {1: flat_frame(200), 0: flat_frame(50)}
        decoder = H264Decoder()
        decoder.begin_picture()
        frame = decoder.decode_picture(stream, picture, references)
        for plane, half in (("y", 8), ("u", 4), ("v", 4)):
            samples = frame.plane(plane)
            assert np.all(samples[:half] == 200), plane
            assert np.all(samples[half:] == 50), plane
