"""Tests for the VC-1 class extension codec."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.codecs import get_decoder, get_encoder
from repro.codecs.huffman import encode_run_level, run_level_bits
from repro.codecs.vc1 import Vc1Config, Vc1Decoder, Vc1Encoder
from repro.codecs.vc1 import tables
from repro.codecs.vc1.transform import (
    TransformedBlock,
    forward_adaptive,
    inverse_adaptive,
)
from repro.common.bitstream import BitReader, BitWriter
from repro.common.gop import FrameType, GopStructure
from repro.common.metrics import sequence_psnr
from repro.kernels import get_kernels

KERNELS = get_kernels("simd")


class TestCoefficients:
    def roundtrip(self, scanned, start=0):
        writer = BitWriter()
        encode_run_level(writer, tables.COEFF_CODE, scanned, start=start)
        writer.align()
        return tables.COEFF_CODE.read_block(BitReader(writer.to_bytes()), range(len(scanned)),
                                            start=start)

    def test_both_block_sizes(self):
        for size in (16, 64):
            scanned = [0] * size
            scanned[size - 1] = -3
            assert self.roundtrip(scanned) == scanned

    def test_bits_estimate_matches(self):
        scanned = [5, 0, -1, 0, 0, 2] + [0] * 58
        writer = BitWriter()
        encode_run_level(writer, tables.COEFF_CODE, scanned)
        assert len(writer) == run_level_bits(tables.COEFF_CODE, scanned)

    @given(st.lists(st.integers(-2000, 2000), min_size=16, max_size=16))
    @settings(max_examples=40)
    def test_roundtrip_property_4x4(self, scanned):
        assert self.roundtrip(scanned) == scanned


class TestAdaptiveTransform:
    def test_flat_residual_picks_8x8(self):
        # A smooth residual concentrates into few 8x8 coefficients.
        ys, xs = np.mgrid[0:8, 0:8]
        residual = (2 * xs + ys).astype(np.int64)
        block = forward_adaptive(KERNELS, residual, 5, 26)
        assert block.size == tables.TRANSFORM_8X8

    def test_localised_residual_picks_4x4(self):
        # Energy confined to one quadrant: three empty 4x4s are cheap.
        residual = np.zeros((8, 8), dtype=np.int64)
        residual[0:4, 0:4] = np.random.default_rng(0).integers(-60, 60, (4, 4))
        block = forward_adaptive(KERNELS, residual, 5, 26)
        assert block.size == tables.TRANSFORM_4X4

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_inverse_reconstructs_within_quantiser(self, seed):
        residual = np.random.default_rng(seed).integers(-80, 80, (8, 8)).astype(np.int64)
        block = forward_adaptive(KERNELS, residual, 5, 26)
        rebuilt = inverse_adaptive(KERNELS, block, 5, 26)
        assert np.max(np.abs(rebuilt - residual)) <= 2 * 5 + 8

    def test_empty_block_flag(self):
        zero = TransformedBlock(tables.TRANSFORM_8X8,
                                levels8=np.zeros((8, 8), dtype=np.int64))
        assert not zero.any_nonzero


def encode(video, **overrides):
    fields = dict(width=video.width, height=video.height, qscale=5, search_range=4)
    fields.update(overrides)
    encoder = Vc1Encoder(Vc1Config(**fields))
    return encoder, encoder.encode_sequence(video)


class TestCodec:
    def test_roundtrip(self, tiny_video):
        _, stream = encode(tiny_video)
        decoded = Vc1Decoder().decode(stream)
        assert sequence_psnr(tiny_video, decoded).y > 29.0

    def test_deterministic(self, tiny_video):
        _, first = encode(tiny_video)
        _, second = encode(tiny_video)
        assert all(a.payload == b.payload for a, b in zip(first.pictures, second.pictures))

    def test_gop(self, tiny_video):
        _, stream = encode(tiny_video)
        assert stream.frame_types()[FrameType.I] == 1
        assert stream.frame_types()[FrameType.B] >= 1

    def test_intra_only(self, tiny_video):
        _, stream = encode(tiny_video, gop=GopStructure(bframes=0, intra_period=1))
        decoded = Vc1Decoder().decode(stream)
        assert sequence_psnr(tiny_video, decoded).y > 29.0

    def test_adaptive_transform_saves_bits(self, tiny_video):
        _, with_ats = encode(tiny_video, adaptive_transform=True)
        _, without = encode(tiny_video, adaptive_transform=False)
        assert with_ats.total_bytes <= without.total_bytes

    def test_adaptive_off_roundtrips(self, tiny_video):
        _, stream = encode(tiny_video, adaptive_transform=False)
        decoded = Vc1Decoder().decode(stream)
        assert sequence_psnr(tiny_video, decoded).y > 29.0

    def test_qscale_monotone(self, tiny_video):
        _, fine = encode(tiny_video, qscale=2)
        _, coarse = encode(tiny_video, qscale=15)
        assert coarse.total_bytes < fine.total_bytes

    def test_backend_bit_exact(self, tiny_video):
        _, scalar = encode(tiny_video, backend="scalar")
        _, simd = encode(tiny_video, backend="simd")
        assert all(a.payload == b.payload
                   for a, b in zip(scalar.pictures, simd.pictures))

    def test_registry(self, tiny_video):
        encoder = get_encoder("vc1", width=tiny_video.width, height=tiny_video.height)
        stream = encoder.encode_sequence(tiny_video)
        decoded = get_decoder("vc1").decode(stream)
        assert len(decoded) == len(tiny_video)
