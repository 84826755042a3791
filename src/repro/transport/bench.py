"""The streaming benchmark: a seeded loss-rate × burst × FEC sweep.

For each codec a tiny clip is encoded once, then every point of the
``loss rate × burst length × FEC overhead`` grid is simulated ``trials``
times over independently seeded channels.  Three things are measured:

* **graceful-decode rate** — the fraction of receptions that produced a
  decode without any unhandled exception (concealment is allowed and
  expected; a raw escape is not);
* **FEC recovery rate** — recovered packets over recoverable-plus-lost,
  i.e. how much of the network's damage the parity absorbed before the
  codec ever saw it;
* **post-concealment PSNR delta** — quality of what played out versus a
  loss-free decode of the same stream.

Every random draw descends from ``seed``, so a sweep is bit-reproducible:
the same seed yields the same reports, channel by channel, delta by
delta.  Exposed through ``hdvb-bench streaming`` and gated by
``benchmarks/test_streaming.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, ClassVar, Dict, List, Optional, Sequence, Tuple

from repro.codecs import get_decoder, get_encoder
from repro.codecs.base import EncodedVideo
from repro.common.metrics import PSNR_IDENTICAL, sequence_psnr
from repro.common.yuv import YuvSequence
from repro.errors import ConfigError
from repro.robustness.bench import ALL_CODECS, encoder_fields, make_bench_clip
from repro.robustness.engine import decode_stream
from repro.transport.channel import LossyChannel
from repro.transport.receiver import simulate_transmission

#: Fragment size for the tiny benchmark clips: small enough that every
#: picture spans several packets, so partial-picture loss is exercised.
BENCH_MTU = 64

ProgressCallback = Callable[[str], None]


@dataclass
class StreamingReport:
    """Sweep outcome for one (codec, loss, burst, fec) grid point."""

    codec: str
    loss_rate: float
    burst_length: float
    fec_group: int
    trials: int
    graceful: int = 0            # receptions with no unhandled exception
    complete: int = 0            # receptions returning the full frame count
    packets_sent: int = 0
    packets_lost: int = 0        # dropped by the channel
    fec_recovered: int = 0
    residual_lost: int = 0       # still missing after FEC
    late_dropped: int = 0
    damaged_pictures: int = 0    # picture slots the decoder saw damaged
    concealed_pictures: int = 0
    psnr_deltas: List[float] = field(default_factory=list)
    #: repr() of the first few non-graceful receptions, for diagnosis
    failure_examples: List[str] = field(default_factory=list)

    #: cap on retained examples; ``graceful`` keeps the full total
    MAX_FAILURE_EXAMPLES: ClassVar[int] = 5

    def record_failure(self, error: BaseException) -> None:
        """Keep a bounded sample of unexpected reception errors."""
        if len(self.failure_examples) < self.MAX_FAILURE_EXAMPLES:
            self.failure_examples.append(repr(error))

    @property
    def graceful_rate(self) -> float:
        return self.graceful / self.trials if self.trials else 1.0

    @property
    def complete_rate(self) -> float:
        return self.complete / self.trials if self.trials else 1.0

    @property
    def fec_recovery_rate(self) -> float:
        seen = self.fec_recovered + self.residual_lost
        return self.fec_recovered / seen if seen else 1.0

    @property
    def mean_psnr_delta(self) -> float:
        if not self.psnr_deltas:
            return 0.0
        return sum(self.psnr_deltas) / len(self.psnr_deltas)

    @property
    def worst_psnr_delta(self) -> float:
        return min(self.psnr_deltas) if self.psnr_deltas else 0.0

    def to_record_fields(self) -> Dict[str, Dict[str, Any]]:
        """The axes/metrics split :mod:`repro.observe.record` persists."""
        return {
            "axes": {
                "codec": self.codec,
                "loss": self.loss_rate,
                "burst": self.burst_length,
                "fec": self.fec_group,
            },
            "metrics": {
                "trials": float(self.trials),
                "graceful_rate": self.graceful_rate,
                "complete_rate": self.complete_rate,
                "fec_recovery_rate": self.fec_recovery_rate,
                "packets_sent": float(self.packets_sent),
                "packets_lost": float(self.packets_lost),
                "fec_recovered": float(self.fec_recovered),
                "late_dropped": float(self.late_dropped),
                "concealed_pictures": float(self.concealed_pictures),
                "mean_psnr_delta_db": self.mean_psnr_delta,
                "worst_psnr_delta_db": self.worst_psnr_delta,
            },
        }


def run_streaming(
    codecs: Sequence[str] = ALL_CODECS,
    loss_rates: Sequence[float] = (0.02, 0.05, 0.10),
    burst_lengths: Sequence[float] = (1.0, 3.0),
    fec_groups: Sequence[int] = (0, 4),
    trials: int = 3,
    seed: int = 0,
    frames: int = 5,
    width: int = 32,
    height: int = 32,
    conceal: str = "copy-last",
    mtu: int = BENCH_MTU,
    progress: Optional[ProgressCallback] = None,
) -> List[StreamingReport]:
    """Run the seeded streaming sweep; one report per grid point."""
    if trials < 1:
        raise ConfigError(f"trials must be >= 1, got {trials}")
    for fec_group in fec_groups:
        if fec_group < 0:
            raise ConfigError(f"FEC group size must be >= 0, got {fec_group}")
    video = make_bench_clip(width=width, height=height, frames=frames)
    reports: List[StreamingReport] = []
    config_index = 0
    for codec in codecs:
        encoder = get_encoder(codec, **encoder_fields(codec, width, height))
        stream = encoder.encode_sequence(video)
        clean = decode_stream(get_decoder(codec), stream).frames
        clean_psnr = sequence_psnr(video, clean).combined
        for loss_rate in loss_rates:
            for burst_length in burst_lengths:
                for fec_group in fec_groups:
                    if progress is not None:
                        progress(
                            f"streaming {codec}: loss {loss_rate:.0%}, "
                            f"burst {burst_length:g}, "
                            f"fec {fec_group or 'off'}, {trials} trials")
                    report = StreamingReport(
                        codec=codec, loss_rate=loss_rate,
                        burst_length=burst_length, fec_group=fec_group,
                        trials=trials,
                    )
                    for trial in range(trials):
                        trial_seed = (seed * 1_000_003
                                      + config_index * 101 + trial)
                        _run_trial(stream, video, clean_psnr, report,
                                   conceal, mtu, trial_seed)
                    config_index += 1
                    reports.append(report)
    return reports


def _run_trial(stream: EncodedVideo, video: YuvSequence,
               clean_psnr: float, report: StreamingReport,
               conceal: str, mtu: int, trial_seed: int) -> None:
    channel = LossyChannel(
        loss_rate=report.loss_rate,
        burst_length=report.burst_length,
        seed=trial_seed,
    )
    try:
        result = simulate_transmission(
            stream, mtu=mtu, fec_group=report.fec_group,
            fec_depth=max(1, round(report.burst_length)),
            channel=channel, conceal=conceal,
        )
    except Exception as error:  # noqa: BLE001 -- the metric counts raw escapes
        report.record_failure(error)
        return
    report.graceful += 1
    report.packets_sent += result.channel.sent
    report.packets_lost += result.channel.lost
    report.fec_recovered += result.fec.recovered
    report.residual_lost += sum(len(loss.lost_seqs) for loss in result.losses)
    report.late_dropped += result.jitter.late_dropped
    report.damaged_pictures += result.damaged_pictures
    report.concealed_pictures += result.concealed_count
    if not result.complete:
        return
    report.complete += 1
    received_psnr = sequence_psnr(video, result.frames).combined
    delta = received_psnr - clean_psnr
    if received_psnr >= PSNR_IDENTICAL and clean_psnr >= PSNR_IDENTICAL:
        delta = 0.0
    report.psnr_deltas.append(delta)


def render_streaming(reports: Sequence[StreamingReport],
                     title: str = "Streaming: seeded loss sweep") -> str:
    """Render the sweep reports as an aligned table."""
    from repro.bench.report import render_table

    headers = (
        "codec", "loss", "burst", "fec", "trials", "graceful", "complete",
        "pkt lost", "fec rec", "late", "concealed", "dPSNR mean",
    )
    rows: List[Tuple] = []
    for report in reports:
        rows.append((
            report.codec,
            f"{report.loss_rate * 100:.0f}%",
            f"{report.burst_length:g}",
            report.fec_group or "off",
            report.trials,
            f"{report.graceful_rate * 100:.0f}%",
            f"{report.complete_rate * 100:.0f}%",
            report.packets_lost,
            f"{report.fec_recovery_rate * 100:.0f}%",
            report.late_dropped,
            report.concealed_pictures,
            f"{report.mean_psnr_delta:+.2f} dB",
        ))
    lines = [render_table(headers, rows, title=title)]
    for report in reports:
        if report.failure_examples:
            failed = report.trials - report.graceful
            lines.append(f"{report.codec} loss={report.loss_rate:g} "
                         f"burst={report.burst_length:g} "
                         f"fec={report.fec_group}: {failed} non-graceful "
                         f"reception(s); first "
                         f"{len(report.failure_examples)} example(s):")
            for example in report.failure_examples:
                lines.append(f"  - {example}")
    return "\n".join(lines)
