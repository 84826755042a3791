"""Integration tests of the Table V / Figure 1 drivers on a tiny workload.

These check the *shape* assertions of DESIGN.md section 5 end to end:
bitrate ordering, quality band, fps ordering, SIMD speed-ups.
"""

import dataclasses
from fractions import Fraction

import pytest

from repro.bench.config import BenchConfig
from repro.bench.performance import (
    FIGURE1_PARTS,
    average_fps,
    real_time_summary,
    render_performance,
    run_figure1_part,
    run_performance,
    simd_speedups,
)
from repro.bench.ratedistortion import (
    compression_gains,
    render_rate_distortion,
    run_rate_distortion,
)
from repro.errors import ConfigError


@pytest.fixture(scope="module")
def tiny_config():
    return BenchConfig(
        scale=Fraction(1, 8),
        frames=4,
        runs=1,
        warmup=0,
        sequences=("rush_hour",),
        tier_names=("576p25",),
    )


@pytest.fixture(scope="module")
def speedup_config(tiny_config):
    """``tiny_config`` timed as the median of five runs after one warm-up run:
    a single wall-clock run can lose a speed-up to one scheduling hiccup."""
    return dataclasses.replace(tiny_config, runs=5, warmup=1)


@pytest.fixture(scope="module")
def rd_rows(tiny_config):
    return run_rate_distortion(tiny_config)


class TestTable5:
    def test_one_row_per_combination(self, rd_rows, tiny_config):
        assert len(rd_rows) == len(tiny_config.codecs)

    def test_bitrate_ordering(self, rd_rows):
        by_codec = {row.codec: row for row in rd_rows}
        assert by_codec["mpeg2"].bitrate_kbps > by_codec["mpeg4"].bitrate_kbps
        assert by_codec["mpeg4"].bitrate_kbps > by_codec["h264"].bitrate_kbps

    def test_quality_band(self, rd_rows):
        # Constant-QP encodes land in a narrow band (Table V property).
        values = [row.psnr.combined for row in rd_rows]
        assert max(values) - min(values) < 5.0
        assert min(values) > 33.0

    def test_gains_positive(self, rd_rows):
        gains = compression_gains(rd_rows)
        assert gains[("576p25", "mpeg4_vs_mpeg2")] > 0
        assert gains[("576p25", "h264_vs_mpeg2")] > gains[("576p25", "mpeg4_vs_mpeg2")]
        assert gains[("576p25", "h264_vs_mpeg4")] > 0

    def test_render(self, rd_rows):
        text = render_rate_distortion(rd_rows)
        assert "Table V" in text
        assert "mpeg2 PSNR" in text
        assert "Compression gains" in text


@pytest.fixture(scope="module")
def decode_simd_rows(tiny_config):
    return run_performance(tiny_config, "decode", "simd")


class TestFigure1:
    def test_rows_cover_grid(self, decode_simd_rows, tiny_config):
        assert len(decode_simd_rows) == len(tiny_config.codecs)

    def test_decode_fps_ordering(self, decode_simd_rows):
        fps = {row.codec: row.fps for row in decode_simd_rows}
        # Figure 1 shape: MPEG-2 fastest, H.264 slowest.
        assert fps["mpeg2"] > fps["h264"]
        assert fps["mpeg4"] > fps["h264"]

    def test_parts_mapping(self):
        assert FIGURE1_PARTS["a"] == ("decode", "scalar")
        assert FIGURE1_PARTS["d"] == ("encode", "simd")

    def test_part_runner(self, tiny_config):
        rows = run_figure1_part(tiny_config, "b")
        assert all(row.operation == "decode" and row.backend == "simd" for row in rows)

    def test_invalid_part(self, tiny_config):
        with pytest.raises(ConfigError):
            run_figure1_part(tiny_config, "z")

    def test_invalid_operation(self, tiny_config):
        with pytest.raises(ConfigError):
            run_performance(tiny_config, "transcode", "simd")

    def test_average_and_realtime_summary(self, decode_simd_rows):
        averages = average_fps(decode_simd_rows)
        summary = real_time_summary(decode_simd_rows)
        assert set(averages) == set(summary)
        for key, fps in averages.items():
            assert summary[key] == (fps >= 25.0)

    def test_render(self, decode_simd_rows):
        text = render_performance(decode_simd_rows, "Figure 1(b)")
        assert "Figure 1(b)" in text
        assert "real-time" in text

    def test_simd_speedups_positive(self, speedup_config):
        scalar_rows = run_performance(speedup_config, "decode", "scalar")
        speedups = simd_speedups(scalar_rows, run_performance(speedup_config, "decode", "simd"))
        assert set(speedups) == {"mpeg2", "mpeg4", "h264"}
        # SIMD is faster for every codec (Figure 1a vs 1b).
        assert all(value > 1.0 for value in speedups.values())
