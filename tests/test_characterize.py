"""Tests for the workload characterisation module."""

import pytest

from repro.bench.characterize import (
    CountingKernels,
    characterize_decode,
    characterize_encode,
    render_profile,
)
from repro.codecs import CODEC_NAMES, get_encoder
from repro.kernels import get_kernels
from repro.kernels.api import implements_kernel_api


def fields_for(codec, video):
    fields = dict(width=video.width, height=video.height, search_range=4)
    if codec == "h264":
        fields["qp"] = 26
    else:
        fields["qscale"] = 5
    return fields


class TestCountingKernels:
    def test_implements_full_api(self):
        assert implements_kernel_api(CountingKernels("simd"))

    def test_counts_calls_and_samples(self):
        import numpy as np

        counting = CountingKernels("simd")
        a = np.zeros((8, 8), dtype=np.int64)
        counting.sad(a, a)
        counting.sad(a, a)
        counting.fdct8(a)
        assert counting.profile.kernels["sad"].calls == 2
        assert counting.profile.kernels["sad"].samples == 128
        assert counting.profile.kernels["fdct8"].calls == 1
        assert counting.profile.total_calls == 3

    def test_stacked_call_counts_every_block(self):
        import numpy as np

        counting = CountingKernels("simd")
        a = np.zeros((8, 8), dtype=np.int64)
        assert counting.sad(a, np.stack([a, a, a])) == [0, 0, 0]
        assert counting.profile.kernels["sad"].calls == 1
        assert counting.profile.kernels["sad"].samples == 3 * a.size

    def test_results_match_plain_backend(self):
        import numpy as np

        rng = np.random.default_rng(0)
        block = rng.integers(-100, 100, (8, 8)).astype(np.int64)
        counting = CountingKernels("simd")
        plain = get_kernels("simd")
        assert np.array_equal(counting.fdct8(block), plain.fdct8(block))


class TestCharacterization:
    @pytest.fixture(scope="class")
    def profiles(self, tiny_video):
        result = {}
        for codec in CODEC_NAMES:
            fields = fields_for(codec, tiny_video)
            encode_profile, stream = characterize_encode(codec, tiny_video, **fields)
            decode_profile, decoded = characterize_decode(codec, stream)
            assert len(decoded) == len(tiny_video)
            result[codec] = (encode_profile, decode_profile)
        return result

    def test_encode_dominated_by_motion_search(self, profiles):
        # SAD is the encode hot kernel for the hybrid codecs — the classic
        # characterisation result that motivates fast ME algorithms.
        for codec in ("mpeg2", "mpeg4"):
            encode_profile, _ = profiles[codec]
            top_kernel = encode_profile.top(1)[0][0]
            assert top_kernel in ("sad", "mc_qpel_bilinear", "mc_halfpel", "mc_qpel_h264")

    def test_decode_has_no_motion_search(self, profiles):
        for codec in CODEC_NAMES:
            _, decode_profile = profiles[codec]
            assert decode_profile.kernels["sad"].calls == 0

    def test_encode_heavier_than_decode(self, profiles):
        for codec in CODEC_NAMES:
            encode_profile, decode_profile = profiles[codec]
            assert encode_profile.total_calls > decode_profile.total_calls

    def test_h264_uses_its_kernel_family(self, profiles):
        encode_profile, decode_profile = profiles["h264"]
        assert encode_profile.kernels["fwd_transform4"].calls > 0
        assert decode_profile.kernels["inv_transform4"].calls > 0
        assert decode_profile.kernels["deblock_normal"].calls > 0
        assert decode_profile.kernels["fdct8"].calls == 0

    def test_mpeg_codecs_use_dct8(self, profiles):
        for codec in ("mpeg2", "mpeg4"):
            encode_profile, decode_profile = profiles[codec]
            assert encode_profile.kernels["fdct8"].calls > 0
            assert decode_profile.kernels["idct8"].calls > 0
            assert encode_profile.kernels["fwd_transform4"].calls == 0

    def test_render(self, profiles):
        encode_profile, _ = profiles["mpeg2"]
        text = render_profile(encode_profile)
        assert "Kernel mix" in text
        assert "TOTAL" in text
        assert "sad" in text

    def test_render_top(self, profiles):
        encode_profile, _ = profiles["h264"]
        text = render_profile(encode_profile, top=3)
        # 3 kernels + total + header rows.
        assert len(text.splitlines()) == 3 + 1 + 3
