"""Tests for the MPEG-4 building blocks: 3-D VLC, AC/DC prediction, MV grid."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.codecs.mpeg4 import tables
from repro.codecs.mpeg4.acdc import (
    AcDcStore,
    HORIZONTAL,
    VERTICAL,
    apply_ac_prediction,
    predict,
)
from repro.codecs.mpeg4.coefficients import encode_3d, estimate_3d_bits
from repro.codecs.mpeg4.motion import MvGrid
from repro.common.bitstream import BitReader, BitWriter
from repro.me.types import MotionVector, ZERO_MV


def roundtrip_3d(scanned, start=0):
    writer = BitWriter()
    coded = encode_3d(writer, scanned, start=start)
    if not coded:
        return None
    writer.align()
    return tables.COEFF3D_CODE.read_block(BitReader(writer.to_bytes()), range(len(scanned)),
                                          start=start)


class TestCoefficients3D:
    def test_empty_block_not_coded(self):
        writer = BitWriter()
        assert encode_3d(writer, [0] * 64) is False
        assert len(writer) == 0

    def test_single_coefficient(self):
        scanned = [0] * 64
        scanned[3] = -4
        assert roundtrip_3d(scanned) == scanned

    def test_last_flag_terminates(self):
        # Two blocks back to back: the last flag separates them without EOB.
        first = [0] * 64
        first[0] = 5
        second = [0] * 64
        second[7] = -2
        writer = BitWriter()
        encode_3d(writer, first)
        encode_3d(writer, second)
        writer.align()
        reader = BitReader(writer.to_bytes())
        assert tables.COEFF3D_CODE.read_block(reader, range(64)) == first
        assert tables.COEFF3D_CODE.read_block(reader, range(64)) == second

    def test_escape_paths(self):
        scanned = [0] * 64
        scanned[30] = 1      # long run
        scanned[31] = 900    # big level
        assert roundtrip_3d(scanned) == scanned

    def test_estimate_matches_actual_bits(self):
        scanned = [0] * 64
        scanned[0] = 3
        scanned[5] = -1
        scanned[40] = 77
        writer = BitWriter()
        encode_3d(writer, scanned)
        assert len(writer) == estimate_3d_bits(scanned)

    def test_estimate_zero_for_empty(self):
        assert estimate_3d_bits([0] * 64) == 0

    def test_no_eob_overhead_vs_mpeg2(self):
        # The 3-D code of a single (0, 1) event must be at most as long as
        # MPEG-2's event + EOB for the same block: the MPEG-4 entropy edge.
        from repro.codecs.mpeg2 import tables as m2tables

        scanned = [1] + [0] * 63
        mpeg4_bits = estimate_3d_bits(scanned)
        mpeg2_bits = (
            m2tables.COEFF_TABLE.bits((0, 1)) + 1 + m2tables.COEFF_TABLE.bits(m2tables.EOB)
        )
        assert mpeg4_bits <= mpeg2_bits

    @given(st.lists(st.integers(-2000, 2000), min_size=64, max_size=64))
    @settings(max_examples=60)
    def test_roundtrip_property(self, scanned):
        result = roundtrip_3d(scanned)
        if any(scanned):
            assert result == scanned
        else:
            assert result is None


class TestAcDcPrediction:
    def level_block(self, dc, seed=0):
        rng = np.random.default_rng(seed)
        levels = rng.integers(-5, 6, (8, 8)).astype(np.int64)
        levels[0, 0] = dc
        return levels

    def test_missing_neighbours_default(self):
        store = AcDcStore()
        direction, dc, ac = predict(store, 0, 0)
        assert dc == tables.DC_DEFAULT
        assert ac == [0] * 7

    def test_vertical_direction_chosen(self):
        store = AcDcStore()
        # dcA == dcB (left column identical) -> |dcA-dcB| = 0 < |dcB-dcC|:
        store.put(0, 1, self.level_block(100))   # A (left)
        store.put(0, 0, self.level_block(100))   # B (above-left)
        store.put(1, 0, self.level_block(200, seed=1))  # C (above)
        direction, dc, _ = predict(store, 1, 1)
        assert direction == VERTICAL
        assert dc == 200

    def test_horizontal_direction_chosen(self):
        store = AcDcStore()
        store.put(0, 1, self.level_block(50, seed=2))   # A
        store.put(0, 0, self.level_block(200))          # B
        store.put(1, 0, self.level_block(200))          # C (equal to B)
        direction, dc, _ = predict(store, 1, 1)
        assert direction == HORIZONTAL
        assert dc == 50

    def test_ac_prediction_roundtrip(self):
        levels = self.level_block(30, seed=3)
        predicted = [1, -2, 3, 0, 0, 1, -1]
        for direction in (VERTICAL, HORIZONTAL):
            adjusted = apply_ac_prediction(levels, direction, predicted, -1)
            restored = apply_ac_prediction(adjusted, direction, predicted, +1)
            assert np.array_equal(restored, levels)

    def test_vertical_adjusts_first_row_only(self):
        levels = np.zeros((8, 8), dtype=np.int64)
        adjusted = apply_ac_prediction(levels, VERTICAL, [1] * 7, -1)
        assert np.all(adjusted[0, 1:] == -1)
        assert not np.any(adjusted[1:, :])

    def test_store_keeps_row_and_column(self):
        store = AcDcStore()
        levels = self.level_block(42, seed=4)
        store.put(3, 2, levels)
        entry = store.get(3, 2)
        assert entry.dc == 42
        assert entry.row == [int(v) for v in levels[0, 1:]]
        assert entry.col == [int(v) for v in levels[1:, 0]]

    def test_negative_coordinates_empty(self):
        assert AcDcStore().get(-1, 0) is None


class TestMvGrid:
    def test_empty_grid_predicts_zero(self):
        grid = MvGrid(4, 4)
        assert grid.predictor(0, 0, 2) == ZERO_MV

    def test_median_of_three_neighbours(self):
        grid = MvGrid(4, 4)
        grid.set_block(1, 2, 1, 1, MotionVector(4, 0))   # left
        grid.set_block(2, 1, 1, 1, MotionVector(8, 4))   # top
        grid.set_block(3, 1, 1, 1, MotionVector(2, 8))   # top-right
        assert grid.predictor(2, 2, 1) == MotionVector(4, 4)

    def test_set_block_fills_rectangle(self):
        grid = MvGrid(4, 4)
        grid.set_block(0, 0, 2, 2, MotionVector(5, 5))
        for by in range(2):
            for bx in range(2):
                assert grid.get(bx, by) == MotionVector(5, 5)
        assert grid.get(2, 0) is None

    def test_out_of_bounds_is_none(self):
        grid = MvGrid(2, 2)
        assert grid.get(-1, 0) is None
        assert grid.get(0, 99) is None

    def test_neighbours_deduplicated(self):
        grid = MvGrid(4, 4)
        mv = MotionVector(3, 3)
        grid.set_block(0, 1, 1, 1, mv)
        grid.set_block(1, 0, 1, 1, mv)
        assert grid.neighbours(1, 1) == [mv]
