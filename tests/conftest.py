"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

from repro.common.yuv import YuvFrame, YuvSequence
from repro.kernels import get_kernels

#: The larger budget CI gives the bitstream oracle properties
#: (``--hypothesis-profile=oracle``); tier-1 runs keep the default profile.
settings.register_profile("oracle", max_examples=2000, deadline=None)


@pytest.fixture(scope="session")
def scalar_kernels():
    return get_kernels("scalar")


@pytest.fixture(scope="session")
def simd_kernels():
    return get_kernels("simd")


@pytest.fixture(params=["scalar", "simd"])
def kernels(request):
    """Parametrises a test over both kernel backends."""
    return get_kernels(request.param)


def make_frame(width: int, height: int, seed: int = 0) -> YuvFrame:
    """A deterministic random frame."""
    rng = np.random.default_rng(seed)
    return YuvFrame(
        rng.integers(0, 256, (height, width), dtype=np.uint8),
        rng.integers(0, 256, (height // 2, width // 2), dtype=np.uint8),
        rng.integers(0, 256, (height // 2, width // 2), dtype=np.uint8),
    )


def make_moving_sequence(width: int = 48, height: int = 32, frames: int = 5,
                         dx: int = 2, dy: int = 1, seed: int = 7) -> YuvSequence:
    """A smooth textured sequence translating by (dx, dy) px/frame.

    Built by cropping a shifting window out of a larger static world, so
    motion estimation has a well-defined ground truth.
    """
    rng = np.random.default_rng(seed)
    margin = max(abs(dx), abs(dy)) * frames + 8
    world_h, world_w = height + 2 * margin, width + 2 * margin
    # Smooth world: random coarse grid blown up, so half-pel interpolation
    # behaves sanely.
    coarse = rng.integers(32, 224, (world_h // 8 + 2, world_w // 8 + 2))
    world = np.kron(coarse, np.ones((8, 8)))[:world_h, :world_w]
    frames_list = []
    for index in range(frames):
        x0 = margin + dx * index
        y0 = margin + dy * index
        luma = world[y0 : y0 + height, x0 : x0 + width].astype(np.uint8)
        chroma_u = luma[::2, ::2] // 2 + 64
        chroma_v = 255 - luma[::2, ::2] // 2
        frames_list.append(YuvFrame(luma, chroma_u, chroma_v))
    return YuvSequence(frames_list, fps=25, name="synthetic_motion")


@pytest.fixture(scope="session")
def moving_sequence() -> YuvSequence:
    return make_moving_sequence()


@pytest.fixture(scope="session")
def tiny_video() -> YuvSequence:
    """A 32x32, 5-frame sequence for fast codec round-trips."""
    return make_moving_sequence(width=32, height=32, frames=5, dx=1, dy=0, seed=3)
