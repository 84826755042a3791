"""Resilience benchmark: seeded fault sweeps over every codec.

For each codec a tiny synthetic clip is encoded once, then a seeded
:class:`~repro.robustness.inject.FaultInjector` produces ``trials``
corrupted copies of the stream.  Each copy is decoded twice:

* **strict** (``conceal=None``) -- the decode must either succeed (a
  benign corruption) or raise a :class:`~repro.errors.ReproError`
  subclass carrying codec, picture index and bit position.  Anything
  else (a raw ``IndexError``, a hang, a silent crash) counts against the
  graceful-failure rate.
* **concealed** -- the decode must always return a full-length sequence.
  The post-concealment quality is reported as the PSNR delta against the
  clean decode of the same stream (0 dB when the corruption was benign).

Exposed through ``hdvb-bench robustness`` and exercised by
``benchmarks/test_robustness.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, ClassVar, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.codecs import CODEC_NAMES, EXTENSION_CODEC_NAMES, get_decoder, get_encoder
from repro.common.metrics import PSNR_IDENTICAL, sequence_psnr
from repro.common.yuv import YuvFrame, YuvSequence
from repro.errors import ConfigError, ReproError
from repro.robustness.engine import decode_stream
from repro.robustness.inject import FaultInjector

#: Codecs the benchmark sweeps by default: the paper trio plus extensions.
ALL_CODECS: Tuple[str, ...] = CODEC_NAMES + EXTENSION_CODEC_NAMES

#: Per-codec quality knob for the tiny benchmark clip (matched subjective
#: operating points; the absolute value is irrelevant to resilience).
_QUALITY_FIELDS: Dict[str, Dict[str, int]] = {
    "mpeg2": {"qscale": 5},
    "mpeg4": {"qscale": 5},
    "vc1": {"qscale": 5},
    "h264": {"qp": 26},
    "mjpeg": {"quality": 80},
}


def make_bench_clip(width: int = 32, height: int = 32, frames: int = 5,
                    seed: int = 11) -> YuvSequence:
    """A deterministic translating clip, small enough for fast sweeps."""
    rng = np.random.default_rng(seed)
    margin = frames + 8
    world_h, world_w = height + 2 * margin, width + 2 * margin
    coarse = rng.integers(32, 224, (world_h // 8 + 2, world_w // 8 + 2))
    world = np.kron(coarse, np.ones((8, 8)))[:world_h, :world_w]
    built = []
    for index in range(frames):
        luma = world[
            margin + index : margin + index + height,
            margin + index : margin + index + width,
        ].astype(np.uint8)
        built.append(
            YuvFrame(luma, luma[::2, ::2] // 2 + 64, 255 - luma[::2, ::2] // 2)
        )
    return YuvSequence(built, fps=25, name="robustness_clip")


def encoder_fields(codec: str, width: int, height: int) -> Dict[str, int]:
    """Encoder configuration for the benchmark clip."""
    if codec not in _QUALITY_FIELDS:
        raise ConfigError(
            f"unknown codec {codec!r} (known: {', '.join(ALL_CODECS)})"
        )
    fields = dict(width=width, height=height, **_QUALITY_FIELDS[codec])
    if codec != "mjpeg":
        fields["search_range"] = 4
    return fields


@dataclass
class RobustnessReport:
    """Fault-sweep outcome for one codec."""

    codec: str
    trials: int
    conceal: str
    #: strict decodes that ended in a ReproError with full decode context
    graceful_failures: int = 0
    #: strict decodes that succeeded despite the fault (benign corruption)
    benign: int = 0
    #: strict decodes that escaped with a raw/contextless exception
    raw_escapes: int = 0
    #: concealed decodes that returned the full frame count
    conceal_successes: int = 0
    #: pictures replaced or filled across all concealed decodes
    concealed_pictures: int = 0
    #: combined-PSNR delta of each concealed decode vs the clean decode (dB)
    psnr_deltas: List[float] = field(default_factory=list)
    #: repr() of the first few raw escapes / concealment crashes, so a
    #: non-zero raw count in a sweep is diagnosable from the report alone
    failure_examples: List[str] = field(default_factory=list)

    #: cap on retained examples; the counters keep the full totals
    MAX_FAILURE_EXAMPLES: ClassVar[int] = 5

    def record_failure(self, kind: str, error: BaseException) -> None:
        """Keep a bounded sample of unexpected errors for diagnosis."""
        if len(self.failure_examples) < self.MAX_FAILURE_EXAMPLES:
            self.failure_examples.append(f"{kind}: {error!r}")

    @property
    def graceful_rate(self) -> float:
        """Fraction of strict decodes that failed cleanly or were benign."""
        if not self.trials:
            return 1.0
        return (self.graceful_failures + self.benign) / self.trials

    @property
    def conceal_rate(self) -> float:
        if not self.trials:
            return 1.0
        return self.conceal_successes / self.trials

    @property
    def mean_psnr_delta(self) -> float:
        if not self.psnr_deltas:
            return 0.0
        return sum(self.psnr_deltas) / len(self.psnr_deltas)

    @property
    def worst_psnr_delta(self) -> float:
        if not self.psnr_deltas:
            return 0.0
        return min(self.psnr_deltas)

    def to_record_fields(self) -> Dict[str, Dict[str, object]]:
        """The axes/metrics split :mod:`repro.observe.record` persists."""
        return {
            "axes": {"codec": self.codec, "conceal": self.conceal},
            "metrics": {
                "trials": float(self.trials),
                "graceful_rate": self.graceful_rate,
                "conceal_rate": self.conceal_rate,
                "benign": float(self.benign),
                "raw_escapes": float(self.raw_escapes),
                "concealed_pictures": float(self.concealed_pictures),
                "mean_psnr_delta_db": self.mean_psnr_delta,
                "worst_psnr_delta_db": self.worst_psnr_delta,
            },
        }


ProgressCallback = Callable[[str], None]


def run_robustness(
    codecs: Sequence[str] = ALL_CODECS,
    trials: int = 40,
    seed: int = 0,
    frames: int = 5,
    width: int = 32,
    height: int = 32,
    conceal: str = "copy-last",
    progress: Optional[ProgressCallback] = None,
) -> List[RobustnessReport]:
    """Run the seeded fault sweep and return one report per codec."""
    if trials < 1:
        raise ConfigError(f"trials must be >= 1, got {trials}")
    video = make_bench_clip(width=width, height=height, frames=frames)
    reports = []
    for codec in codecs:
        if progress is not None:
            progress(f"robustness {codec}: {trials} seeded faults")
        encoder = get_encoder(codec, **encoder_fields(codec, width, height))
        stream = encoder.encode_sequence(video)
        clean = decode_stream(get_decoder(codec), stream).frames
        clean_psnr = sequence_psnr(video, clean).combined

        report = RobustnessReport(codec=codec, trials=trials, conceal=conceal)
        injector = FaultInjector(seed=seed)
        for corrupted, fault in injector.sweep(stream, trials):
            _strict_trial(codec, corrupted, report)
            _conceal_trial(codec, corrupted, video, clean_psnr, report)
        reports.append(report)
    return reports


def _strict_trial(codec: str, corrupted, report: RobustnessReport) -> None:
    try:
        get_decoder(codec).decode(corrupted)
    except ReproError as error:
        if error.has_decode_context():
            report.graceful_failures += 1
        else:
            report.raw_escapes += 1
    except Exception as error:  # noqa: BLE001 -- the metric counts raw escapes
        report.raw_escapes += 1
        report.record_failure("raw escape", error)
    else:
        report.benign += 1


def _conceal_trial(codec: str, corrupted, video: YuvSequence,
                   clean_psnr: float, report: RobustnessReport) -> None:
    try:
        result = decode_stream(
            get_decoder(codec), corrupted, conceal=report.conceal
        )
    except Exception as error:  # noqa: BLE001 -- concealment must never raise
        report.record_failure("concealment raised", error)
        return
    if len(result.frames) != len(video):
        return
    report.conceal_successes += 1
    report.concealed_pictures += result.concealed_count
    concealed_psnr = sequence_psnr(video, result.frames).combined
    delta = concealed_psnr - clean_psnr
    if concealed_psnr >= PSNR_IDENTICAL and clean_psnr >= PSNR_IDENTICAL:
        delta = 0.0
    report.psnr_deltas.append(delta)


def render_robustness(reports: Sequence[RobustnessReport],
                      title: str = "Robustness: seeded fault sweep") -> str:
    """Render the fault-sweep reports as an aligned table."""
    from repro.bench.report import render_table

    headers = (
        "codec", "trials", "graceful", "benign", "raw",
        "conceal ok", "concealed", "dPSNR mean", "dPSNR worst",
    )
    rows = []
    for report in reports:
        rows.append((
            report.codec,
            report.trials,
            f"{report.graceful_rate * 100:.0f}%",
            report.benign,
            report.raw_escapes,
            f"{report.conceal_rate * 100:.0f}%",
            report.concealed_pictures,
            f"{report.mean_psnr_delta:+.2f} dB",
            f"{report.worst_psnr_delta:+.2f} dB",
        ))
    lines = [render_table(headers, rows, title=title)]
    for report in reports:
        if report.failure_examples:
            lines.append(f"{report.codec}: {report.raw_escapes} raw "
                         f"escape(s); first "
                         f"{len(report.failure_examples)} example(s):")
            for example in report.failure_examples:
                lines.append(f"  - {example}")
    return "\n".join(lines)
