"""Tests for motion estimation: cost model, searches, sub-pel refinement."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.bench.characterize import CountingKernels, characterize_encode
from repro.codecs import container, get_encoder
from repro.codecs.frames import WorkingFrame
from repro.codecs.h264.deblock import DeblockFilter, DeblockMeta
from repro.kernels import get_kernels
from repro.mc.pad import PaddedPlane, pad_plane
from repro.me.cost import _OUT_OF_RANGE, MotionCost, lambda_from_qp, mv_rate_bits
from repro.me.search import (
    ALGORITHM_NAMES,
    epzs_search,
    full_search,
    hexagon_search,
    run_search,
)
from repro.me.subpel import refine_subpel
from repro.me.types import MotionVector, SearchResult, ZERO_MV, median_mv
from repro.errors import CodecError, ConfigError
from tests.conftest import make_moving_sequence

KERNELS = get_kernels("simd")


def textured_plane(size: int = 64, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    coarse = rng.integers(0, 256, (size // 4 + 1, size // 4 + 1))
    return np.kron(coarse, np.ones((4, 4), dtype=np.int64))[:size, :size].astype(np.int64)


def make_cost(dx: int, dy: int, search_range: int = 8,
              lagrangian: int = 0) -> MotionCost:
    """A cost whose optimum is the planted displacement (dx, dy)."""
    reference = textured_plane()
    x, y = 24, 24
    current = reference[y + dy : y + dy + 16, x + dx : x + dx + 16]
    return MotionCost(
        kernels=KERNELS,
        current=current,
        reference=pad_plane(reference, search_range),
        x=x,
        y=y,
        width=16,
        height=16,
        predictor=ZERO_MV,
        lagrangian=lagrangian,
        search_range=search_range,
    )


class TestTypes:
    def test_vector_arithmetic(self):
        a = MotionVector(3, -2)
        b = MotionVector(-1, 5)
        assert a + b == MotionVector(2, 3)
        assert a - b == MotionVector(4, -7)
        assert -a == MotionVector(-3, 2)
        assert a.scaled(2) == MotionVector(6, -4)

    def test_clamped(self):
        assert MotionVector(10, -10).clamped(4) == MotionVector(4, -4)

    def test_median(self):
        result = median_mv(MotionVector(1, 9), MotionVector(5, 3), MotionVector(2, 7))
        assert result == MotionVector(2, 7)

    def test_search_result_comparison(self):
        assert SearchResult(ZERO_MV, 5).better_than(SearchResult(ZERO_MV, 9))


class TestCostModel:
    def test_zero_mv_on_static_scene_is_zero_sad(self):
        cost = make_cost(0, 0)
        assert cost.evaluate([ZERO_MV]) == [0]

    def test_planted_motion_has_zero_sad(self):
        cost = make_cost(3, -2)
        assert cost.evaluate([MotionVector(3, -2)]) == [0]

    def test_out_of_range_is_prohibitive(self):
        cost = make_cost(0, 0, search_range=4)
        (value,) = cost.evaluate([MotionVector(5, 0)])
        assert value > 10 ** 12

    def test_rate_term_penalises_long_vectors(self):
        cost = make_cost(0, 0, lagrangian=10)
        (value,) = cost.evaluate([MotionVector(4, 4)])
        assert value >= 10 * mv_rate_bits(MotionVector(4, 4), ZERO_MV)

    def test_cache_counts_distinct_candidates(self):
        cost = make_cost(0, 0)
        cost.evaluate([ZERO_MV])
        cost.evaluate([ZERO_MV])
        cost.evaluate([MotionVector(1, 0)])
        assert cost.evaluations == 2

    @given(st.integers(0, 2 ** 32 - 1), st.integers(0, 20),
           st.lists(st.tuples(st.integers(-6, 6), st.integers(-6, 6)), min_size=1, max_size=12),
           st.sampled_from(((16, 16), (16, 8), (8, 16), (8, 8))))
    @settings(max_examples=60, deadline=None)
    def test_evaluate_matches_per_block_cost(self, seed, lagrangian, vectors, size):
        """Each cost is ``sad`` against ``get_block`` plus the rate term, or
        the out-of-range cost; each distinct vector is scored once."""
        search_range = 4  # the drawn vectors reach 6: some are out of range
        reference = textured_plane(32, seed)
        width, height = size
        x, y = 8, 8
        mvs = [MotionVector(*vector) for vector in vectors]
        mvs += mvs[: len(mvs) // 2]  # duplicates within one call
        predictor = MotionVector(1, -1)
        for backend in ("scalar", "simd"):
            kernels = get_kernels(backend)
            padded = pad_plane(reference, search_range)
            current = reference[y : y + height, x : x + width] ^ 5
            cost = MotionCost(
                kernels=kernels, current=current, reference=padded,
                x=x, y=y, width=width, height=height,
                predictor=predictor, lagrangian=lagrangian, search_range=search_range,
            )
            px, py = padded.offset(x, y)
            expected = []
            for mv in mvs:
                if abs(mv.x) > search_range or abs(mv.y) > search_range:
                    expected.append(_OUT_OF_RANGE)
                    continue
                block = kernels.get_block(padded.plane, px + mv.x, py + mv.y, width, height)
                expected.append(kernels.sad(current, block)
                                + lagrangian * mv_rate_bits(mv, predictor))
            assert cost.evaluate(mvs) == expected
            assert cost.evaluations == len(set(mvs))
            assert cost.evaluate(mvs[::-1]) == expected[::-1]  # cached
            assert cost.evaluations == len(set(mvs))

    def test_lambda_grows_with_qp(self):
        values = [lambda_from_qp(qp) for qp in (10, 26, 40)]
        assert values == sorted(values)
        assert values[0] >= 1

    def test_mv_rate_bits_zero_diff_minimal(self):
        assert mv_rate_bits(MotionVector(3, 4), MotionVector(3, 4)) == 2


class TestSearches:
    @pytest.mark.parametrize("dx, dy", [(0, 0), (3, 1), (-4, 2), (5, -5)])
    def test_full_search_finds_planted_motion(self, dx, dy):
        result = full_search(make_cost(dx, dy))
        assert result.mv == MotionVector(dx, dy)
        assert result.cost == 0

    @pytest.mark.parametrize("dx, dy", [(0, 0), (2, 1), (-3, -2)])
    def test_epzs_finds_planted_motion(self, dx, dy):
        result = epzs_search(make_cost(dx, dy))
        assert result.mv == MotionVector(dx, dy)

    def test_epzs_uses_extra_predictors(self):
        # With a far displacement, the diamond descent from zero may stall;
        # a predictor pointing at the optimum must be used.
        cost = make_cost(7, 7)
        result = epzs_search(cost, extra_predictors=[MotionVector(7, 7)])
        assert result.mv == MotionVector(7, 7)

    @pytest.mark.parametrize("dx, dy", [(0, 0), (2, 0), (-2, 2), (4, -3)])
    def test_hexagon_finds_planted_motion(self, dx, dy):
        result = hexagon_search(make_cost(dx, dy))
        assert result.mv == MotionVector(dx, dy)

    def test_fast_searches_never_beat_full_search(self):
        for seed in range(3):
            cost_full = make_cost(3, -1)
            best = full_search(cost_full)
            for algorithm in ("epzs", "hex"):
                cost = make_cost(3, -1)
                result = run_search(algorithm, cost)
                assert result.cost >= best.cost

    def test_fast_searches_evaluate_fewer_candidates(self):
        cost_full = make_cost(2, 2)
        full_search(cost_full)
        cost_epzs = make_cost(2, 2)
        epzs_search(cost_epzs)
        assert cost_epzs.evaluations < cost_full.evaluations / 4

    def test_run_search_dispatch(self):
        assert set(ALGORITHM_NAMES) == {"epzs", "full", "hex"}
        with pytest.raises(ConfigError):
            run_search("umh", make_cost(0, 0))


class TestSubpel:
    def test_halfpel_refinement_improves_on_fractional_motion(self):
        # Build a reference and a current that is the half-pel interpolation
        # of it, so the optimum is at a fractional position.
        reference = textured_plane(seed=3)
        padded = pad_plane(reference, 8)
        x, y = 24, 24
        px, py = padded.offset(x, y)
        current = KERNELS.mc_halfpel(padded.plane, px, py, 16, 16, 1, 0)
        cost = MotionCost(
            kernels=KERNELS, current=current, reference=padded,
            x=x, y=y, width=16, height=16,
            predictor=ZERO_MV, lagrangian=0, search_range=8,
        )
        integer = full_search(cost)
        refined = refine_subpel(
            KERNELS, current, padded, x, y, 16, 16, integer,
            predictor=ZERO_MV, lagrangian=0, unit=2,
            interp="mc_halfpel",
        )
        assert refined.mv == MotionVector(1, 0)
        assert refined.cost == 0
        assert refined.cost <= integer.cost

    def test_quarter_pel_units(self):
        reference = textured_plane(seed=4)
        padded = pad_plane(reference, 8)
        x, y = 24, 24
        px, py = padded.offset(x, y)
        current = KERNELS.mc_qpel_bilinear(padded.plane, px, py, 16, 16, 5, 2)
        cost = MotionCost(
            kernels=KERNELS, current=current, reference=padded,
            x=x, y=y, width=16, height=16,
            predictor=ZERO_MV, lagrangian=0, search_range=8,
        )
        integer = full_search(cost)
        refined = refine_subpel(
            KERNELS, current, padded, x, y, 16, 16, integer,
            predictor=ZERO_MV, lagrangian=0, unit=4,
            interp="mc_qpel_bilinear",
        )
        assert refined.cost == 0
        assert refined.mv == MotionVector(5, 2)

    def test_integer_optimum_is_kept(self):
        cost = make_cost(2, 1)
        integer = full_search(cost)
        reference = cost.reference
        refined = refine_subpel(
            KERNELS, cost.current, reference, cost.x, cost.y, 16, 16, integer,
            predictor=ZERO_MV, lagrangian=0, unit=2, interp="mc_halfpel",
        )
        assert refined.mv == integer.mv.scaled(2)


#: Each interpolation kernel with its fractional positions per pel.
INTERP_UNITS = (("mc_halfpel", 2), ("mc_qpel_bilinear", 4), ("mc_qpel_h264", 4))

#: The order the refinement visits a stage's neighbours; ties keep the first.
NEIGHBOUR_ORDER = ((-1, -1), (0, -1), (1, -1), (-1, 0), (1, 0), (-1, 1), (0, 1), (1, 1))


def reference_refinement(kernels, current, padded, x, y, width, height,
                         integer, predictor, lagrangian, unit, interp):
    """Sub-pel refinement, one candidate at a time: the per-block
    interpolation kernel, ``sad`` and the rate term per neighbour."""
    px, py = padded.offset(x, y)
    interpolate = getattr(kernels, interp)

    def cost(mv):
        block = interpolate(padded.plane, px, py, width, height, mv.x, mv.y)
        return kernels.sad(current, block) + lagrangian * mv_rate_bits(mv, predictor)

    best_mv = integer.mv.scaled(unit)
    best = SearchResult(best_mv, cost(best_mv))
    step = unit >> 1
    while step >= 1:
        improved = best
        for dx, dy in NEIGHBOUR_ORDER:
            mv = MotionVector(best.mv.x + dx * step, best.mv.y + dy * step)
            value = cost(mv)
            if value < improved.cost:
                improved = SearchResult(mv, value)
        best = improved
        step >>= 1
    return best


@st.composite
def refinement_cases(draw):
    """A textured plane, a block on it, a current block near a sub-pel
    displacement of it, and the search state the refinement starts from.

    Planes of large flat cells without grain make many candidates cost the
    same, so the tie-breaking order is exercised too."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    cell = draw(st.sampled_from((4, 16)))
    grain = draw(st.integers(0, 12))
    coarse = rng.integers(0, 256, (36 // cell + 1, 36 // cell + 1))
    plane = np.kron(coarse, np.ones((cell, cell), dtype=np.int64))[:36, :36]
    plane = np.clip(plane + rng.integers(-grain, grain + 1, plane.shape), 0, 255).astype(np.int64)
    width, height = draw(st.sampled_from(((16, 16), (16, 8), (8, 16), (8, 8))))
    x = draw(st.integers(0, 36 - width))
    y = draw(st.integers(0, 36 - height))
    search_range = 4
    start = MotionVector(draw(st.integers(-search_range, search_range)),
                         draw(st.integers(-search_range, search_range)))
    true_x = 4 * start.x + draw(st.integers(-3, 3))
    true_y = 4 * start.y + draw(st.integers(-3, 3))
    amplitude = draw(st.integers(0, 6))
    predictor = MotionVector(draw(st.integers(-20, 20)), draw(st.integers(-20, 20)))
    lagrangian = draw(st.integers(0, 20))
    return dict(plane=plane, width=width, height=height, x=x, y=y,
                search_range=search_range, start=start, true_mv=(true_x, true_y),
                noise=rng.integers(-amplitude, amplitude + 1, (height, width)),
                predictor=predictor, lagrangian=lagrangian)


class TestSubpelReference:
    """``refine_subpel`` returns what the one-candidate-at-a-time refinement does."""

    @pytest.mark.parametrize("backend", ["scalar", "simd"])
    @pytest.mark.parametrize("interp,unit", INTERP_UNITS)
    @given(case=refinement_cases())
    @settings(max_examples=30, deadline=None)
    def test_matches_reference_refinement(self, backend, interp, unit, case):
        kernels = get_kernels(backend)
        padded = pad_plane(case["plane"], case["search_range"])
        x, y, width, height = case["x"], case["y"], case["width"], case["height"]
        px, py = padded.offset(x, y)
        # The current block: the reference at a sub-pel displacement, plus noise.
        true_x, true_y = case["true_mv"]
        shifted = KERNELS.mc_qpel_bilinear(padded.plane, px, py, width, height, true_x, true_y)
        current = np.clip(shifted + case["noise"], 0, 255).astype(np.int64)
        integer = SearchResult(case["start"], 0)
        predictor = case["predictor"] if unit == 4 else MotionVector(
            case["predictor"].x // 2, case["predictor"].y // 2)
        args = (current, padded, x, y, width, height, integer)
        options = dict(predictor=predictor, lagrangian=case["lagrangian"],
                       unit=unit, interp=interp)
        expected = reference_refinement(kernels, *args, **options)
        assert refine_subpel(kernels, *args, **options) == expected


class TestPhasePlanes:
    @pytest.mark.parametrize("interp,unit", INTERP_UNITS)
    def test_one_build_per_phase_and_one_sad_per_stage(self, interp, unit):
        reference = textured_plane(seed=5)
        source = np.roll(reference, (1, 2), axis=(0, 1)) + 3
        padded = pad_plane(reference, 8)
        counting = CountingKernels("simd")
        refinements = 0
        for y in range(0, 64, 16):
            for x in range(0, 64, 16):
                current = source[y : y + 16, x : x + 16]
                cost = MotionCost(
                    kernels=KERNELS, current=current, reference=padded,
                    x=x, y=y, width=16, height=16,
                    predictor=ZERO_MV, lagrangian=4, search_range=8,
                )
                refine_subpel(
                    counting, current, padded, x, y, 16, 16, epzs_search(cost),
                    predictor=ZERO_MV, lagrangian=4, unit=unit, interp=interp,
                )
                refinements += 1
        stats = counting.profile.kernels
        assert 1 <= stats[interp].calls <= unit * unit
        assert sum(stats[name].calls for name, _ in INTERP_UNITS) == stats[interp].calls
        # One call for the start and one stacked call per stage's 8 neighbours.
        stages = unit.bit_length() - 1
        assert stats["sad"].calls == refinements * (1 + stages)
        assert stats["sad"].samples == refinements * (1 + 8 * stages) * 16 * 16

    def test_keyed_by_kernel_name_not_function_name(self):
        counting = CountingKernels("simd")
        # Every counted kernel is a closure with the same function name.
        assert counting.mc_qpel_bilinear.__name__ == counting.mc_qpel_h264.__name__
        padded = pad_plane(textured_plane(seed=6), 8)
        px, py = padded.offset(16, 16)
        blocks = {}
        for kernel in ("mc_qpel_bilinear", "mc_qpel_h264"):
            blocks[kernel] = padded.subpel_block(counting, kernel, 4, px, py, 16, 16, 1, 0)
            expected = getattr(KERNELS, kernel)(padded.plane, px, py, 16, 16, 1, 0)
            assert np.array_equal(blocks[kernel], expected)
        assert not np.array_equal(blocks["mc_qpel_bilinear"], blocks["mc_qpel_h264"])

    def test_deblocking_drops_phase_planes(self):
        frame = WorkingFrame.blank(32, 32)
        frame.y[:, :16] = 100
        frame.y[:, 16:] = 112
        padded = frame.padded("y", 4)
        px, py = padded.offset(12, 8)
        stale = padded.subpel_block(KERNELS, "mc_qpel_h264", 4, px, py, 8, 8, 2, 2).copy()
        # All-intra metadata: the strong filter smooths the blocking-sized
        # step at x=16 in place, then invalidates the frame's padded planes.
        DeblockFilter(KERNELS, qp=30).apply(frame, DeblockMeta(2, 2))
        rebuilt = frame.padded("y", 4)
        assert rebuilt is not padded
        block = rebuilt.subpel_block(KERNELS, "mc_qpel_h264", 4, px, py, 8, 8, 2, 2)
        assert np.array_equal(block, KERNELS.mc_qpel_h264(rebuilt.plane, px, py, 8, 8, 2, 2))
        assert not np.array_equal(block, stale)

    def test_samples_outside_pixel_range_raise(self):
        # pad_plane rejects such a plane itself, so build the padded plane directly.
        padded = PaddedPlane(np.full((40, 40), 300, dtype=np.int64), pad=12, width=16, height=16)
        px, py = padded.offset(0, 0)
        with pytest.raises(CodecError):
            padded.subpel_block(KERNELS, "mc_halfpel", 2, px, py, 8, 8, 1, 0)

    def test_blocks_are_read_only_views(self):
        padded = pad_plane(textured_plane(seed=7), 8)
        px, py = padded.offset(8, 8)
        block = padded.subpel_block(KERNELS, "mc_qpel_h264", 4, px, py, 8, 8, 3, 1)
        with pytest.raises(ValueError):
            block[0, 0] = 0


@pytest.mark.parametrize("codec,fields", [
    ("mpeg2", dict(qscale=5)),
    ("mpeg4", dict(qscale=5, qpel=True)),
    ("mpeg4", dict(qscale=5, qpel=False)),
    ("vc1", dict(qscale=5)),
    ("h264", dict(qp=26)),
])
def test_counting_kernels_encode_identically(codec, fields):
    video = make_moving_sequence(width=32, height=32, frames=4, dx=1, dy=1, seed=42)
    plain = get_encoder(codec, width=32, height=32, search_range=4, **fields)
    expected = container.pack(plain.encode_sequence(video))
    profile, stream = characterize_encode(
        codec, video, width=32, height=32, search_range=4, **fields)
    assert container.pack(stream) == expected
    assert profile.kernels["sad"].calls > 0
