"""Tests for padded reference planes and chroma MV derivation."""

import numpy as np
import pytest

from repro.errors import CodecError, ConfigError
from repro.mc.chroma import chroma_mv_from_halfpel, chroma_mv_from_qpel
from repro.mc.pad import INTERP_MARGIN, pad_plane
from repro.me.types import MotionVector


class TestPadPlane:
    def test_dimensions(self):
        plane = np.arange(12, dtype=np.int64).reshape(3, 4)
        padded = pad_plane(plane, search_range=5)
        pad = 5 + INTERP_MARGIN
        assert padded.pad == pad
        assert padded.plane.shape == (3 + 2 * pad, 4 + 2 * pad)
        assert padded.width == 4
        assert padded.height == 3

    def test_interior_preserved(self):
        plane = np.arange(16, dtype=np.int64).reshape(4, 4)
        padded = pad_plane(plane, 2)
        x, y = padded.offset(0, 0)
        assert np.array_equal(padded.plane[y : y + 4, x : x + 4], plane)

    def test_edges_replicated(self):
        plane = np.array([[1, 2], [3, 4]], dtype=np.int64)
        padded = pad_plane(plane, 1)
        assert padded.plane[0, 0] == 1  # top-left corner replicates
        assert padded.plane[-1, -1] == 4
        x, y = padded.offset(0, 0)
        assert padded.plane[y - 3, x] == 1  # above top row
        assert padded.plane[y, x - 3] == 1  # left of first column

    def test_offset_mapping(self):
        plane = np.zeros((8, 8), dtype=np.int64)
        padded = pad_plane(plane, 4)
        assert padded.offset(2, 3) == (2 + padded.pad, 3 + padded.pad)

    def test_negative_range_rejected(self):
        with pytest.raises(ConfigError):
            pad_plane(np.zeros((4, 4)), -1)

    @pytest.mark.parametrize("value", [-1, 256])
    def test_samples_outside_pixel_range_rejected(self, value):
        plane = np.full((4, 4), 128, dtype=np.int64)
        plane[2, 1] = value
        with pytest.raises(CodecError):
            pad_plane(plane, 2)

    def test_pixel_range_limits_accepted(self):
        plane = np.array([[0, 255], [255, 0]], dtype=np.int64)
        assert pad_plane(plane, 1).plane.max() == 255


class TestChromaMv:
    @pytest.mark.parametrize(
        "luma, expected",
        [(0, 0), (1, 0), (2, 1), (3, 1), (-1, 0), (-2, -1), (-3, -1), (-4, -2)],
    )
    def test_halfpel_derivation(self, luma, expected):
        mv = chroma_mv_from_halfpel(MotionVector(luma, luma))
        assert mv == MotionVector(expected, expected)

    @pytest.mark.parametrize(
        "luma, expected",
        [(0, 0), (3, 0), (4, 1), (6, 1), (8, 2), (-3, 0), (-4, -1), (-9, -2)],
    )
    def test_qpel_derivation(self, luma, expected):
        mv = chroma_mv_from_qpel(MotionVector(luma, luma))
        assert mv == MotionVector(expected, expected)

    def test_components_independent(self):
        mv = chroma_mv_from_halfpel(MotionVector(5, -7))
        assert mv == MotionVector(2, -3)
