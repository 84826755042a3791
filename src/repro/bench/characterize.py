"""Workload characterisation: per-kernel operation breakdowns.

HD-VideoBench was published at IISWC, and its companion paper (Alvarez et
al. 2005, reference [20]) characterises where H.264 decoding spends its
work.  This module provides that analysis for all the codecs here: an
instrumented kernel backend counts every kernel invocation and the number
of samples it touches, so an encode or decode can be broken down into its
kernel mix — the data that motivates which kernels get SIMD treatment.

    profile, decoded = characterize_decode("h264", stream)
    print(render_profile(profile))
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.bench.report import render_table
from repro.codecs import get_decoder, get_encoder
from repro.kernels import get_kernels
from repro.kernels.api import KERNEL_NAMES


@dataclass
class KernelStats:
    """Counters for one kernel."""

    calls: int = 0
    samples: int = 0


@dataclass
class WorkloadProfile:
    """The kernel mix of one codec run."""

    label: str
    kernels: Dict[str, KernelStats] = field(default_factory=dict)

    @property
    def total_calls(self) -> int:
        return sum(stats.calls for stats in self.kernels.values())

    @property
    def total_samples(self) -> int:
        return sum(stats.samples for stats in self.kernels.values())

    def top(self, count: int = 5) -> List[Tuple[str, KernelStats]]:
        """Kernels ordered by touched samples, heaviest first."""
        ordered = sorted(
            self.kernels.items(), key=lambda item: item[1].samples, reverse=True
        )
        return ordered[:count]


def _operand_samples(kernel_name: str, args) -> int:
    """Samples *produced* by a kernel call.

    Block-producing kernels (motion compensation, ``get_block``) take the
    whole padded reference plane plus ``(x, y, width, height)``; counting
    the plane would massively over-attribute work, so the output block
    size is used instead.  Everything else is sized by its largest array
    operand, so ``sad(block, stack)`` counts every block of the stack.
    """
    if kernel_name.startswith("mc_") or kernel_name == "get_block":
        width, height = args[3], args[4]
        return int(width) * int(height)
    return max((arg.size for arg in args if isinstance(arg, np.ndarray)), default=0)


class CountingKernels:
    """Wraps a kernel backend, counting calls and samples per kernel."""

    def __init__(self, backend: str = "simd") -> None:
        self._inner = get_kernels(backend)
        self.name = f"counting({backend})"
        self.profile = WorkloadProfile(label=self.name)
        for kernel_name in KERNEL_NAMES:
            self.profile.kernels[kernel_name] = KernelStats()
            setattr(self, kernel_name, self._wrap(kernel_name))

    def _wrap(self, kernel_name: str):
        inner_fn = getattr(self._inner, kernel_name)
        stats = self.profile.kernels[kernel_name]

        def counted(*args, **kwargs):
            stats.calls += 1
            stats.samples += _operand_samples(kernel_name, args)
            return inner_fn(*args, **kwargs)

        return counted


def characterize_encode(codec: str, video, **config_fields) -> Tuple[WorkloadProfile, object]:
    """Encode ``video`` with counting kernels; returns (profile, stream)."""
    encoder = get_encoder(codec, **config_fields)
    counting = CountingKernels(encoder.config.backend)
    counting.profile.label = f"{codec} encode"
    encoder.kernels = counting
    stream = encoder.encode_sequence(video)
    return counting.profile, stream


def characterize_decode(codec: str, stream,
                        backend: str = "simd") -> Tuple[WorkloadProfile, object]:
    """Decode ``stream`` with counting kernels; returns (profile, video)."""
    decoder = get_decoder(codec, backend=backend)
    counting = CountingKernels(backend)
    counting.profile.label = f"{codec} decode"
    decoder.kernels = counting
    video = decoder.decode(stream)
    return counting.profile, video


def render_profile(profile: WorkloadProfile, top: int = 0) -> str:
    """Render a kernel-mix table (all kernels, or the ``top`` heaviest)."""
    entries = profile.top(top) if top else sorted(
        ((name, stats) for name, stats in profile.kernels.items() if stats.calls),
        key=lambda item: item[1].samples,
        reverse=True,
    )
    total_samples = max(1, profile.total_samples)
    rows = [
        (
            name,
            stats.calls,
            stats.samples,
            f"{100.0 * stats.samples / total_samples:.1f}%",
        )
        for name, stats in entries
    ]
    rows.append(("TOTAL", profile.total_calls, profile.total_samples, "100.0%"))
    return render_table(
        ["kernel", "calls", "samples", "share"],
        rows,
        title=f"Kernel mix: {profile.label}",
    )
