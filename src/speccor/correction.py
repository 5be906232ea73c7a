"""Per-bin correction coefficients: estimation (aligned and unaligned), application, and the standardization / cepstral-mean reductions."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .dsp import AMPLITUDE_FLOOR, AmplitudeSpectrogram, ComplexSpectrogram

ESTIMATORS = ("aligned", "unaligned", "simplified")

# Transform convention used by real_cepstrum: inverse rFFT of the one-sided
# log spectrum (even extension to n_fft points, backward 1/N normalization).
CEPSTRUM_TRANSFORM = "irfft-even-extension-backward"


@dataclass(frozen=True)
class CorrectionCoefficients:
    """Per-bin linear gains mapping one device's amplitude spectra onto a reference.

    ``reference_device`` is the sentinel "none" for the reference-free
    (simplified) variant, whose gains are defined only up to a global scale.
    """

    gains: np.ndarray
    n_fft: int
    sample_rate: int
    source_device: str
    reference_device: str
    num_recordings: int
    estimator: str

    def __post_init__(self):
        gains = np.asarray(self.gains, dtype=np.float64)
        if gains.ndim != 1 or gains.size != self.n_fft // 2 + 1:
            raise ValueError(
                f"gains must have length n_fft//2+1 = {self.n_fft // 2 + 1}, "
                f"got shape {gains.shape}")
        if not np.all(np.isfinite(gains)) or np.any(gains <= 0):
            raise ValueError("gains must be finite and strictly positive")
        if self.estimator not in ESTIMATORS:
            raise ValueError(f"estimator must be one of {ESTIMATORS}, got {self.estimator!r}")
        object.__setattr__(self, "gains", gains)

    @property
    def freq_bins(self) -> int:
        return self.gains.size


@dataclass(frozen=True)
class DeviceSpectrumStats:
    """Running per-bin mean of log amplitudes for one device.

    This is the whole sufficient statistic for unaligned estimation: shards
    can be accumulated independently and merged.
    """

    log_mean: np.ndarray
    total_frames: int
    num_recordings: int
    device: str
    n_fft: int
    sample_rate: int

    def __post_init__(self):
        log_mean = np.asarray(self.log_mean, dtype=np.float64)
        if log_mean.ndim != 1 or log_mean.size != self.n_fft // 2 + 1:
            raise ValueError(
                f"log_mean must have length n_fft//2+1 = {self.n_fft // 2 + 1}, "
                f"got shape {log_mean.shape}")
        if not np.all(np.isfinite(log_mean)):
            raise ValueError("log_mean must be finite")
        if self.num_recordings < 1 or self.total_frames < self.num_recordings:
            raise ValueError(
                f"need total_frames >= num_recordings >= 1, got "
                f"{self.total_frames} / {self.num_recordings}")
        object.__setattr__(self, "log_mean", log_mean)

    def merge(self, other: "DeviceSpectrumStats") -> "DeviceSpectrumStats":
        """Combine two shards; the merged mean is frame-weighted."""
        if (other.device != self.device or other.n_fft != self.n_fft
                or other.sample_rate != self.sample_rate):
            raise ValueError(
                f"cannot merge stats for {other.device!r}@{other.n_fft}/{other.sample_rate} "
                f"into {self.device!r}@{self.n_fft}/{self.sample_rate}")
        frames = self.total_frames + other.total_frames
        log_mean = (self.log_mean * self.total_frames
                    + other.log_mean * other.total_frames) / frames
        return DeviceSpectrumStats(log_mean, frames,
                                   self.num_recordings + other.num_recordings,
                                   self.device, self.n_fft, self.sample_rate)


@dataclass(frozen=True)
class RecordingSet:
    """Labelled amplitude spectrograms, optionally grouped by captured signal.

    ``items`` is a list of (recording_id, device_id, AmplitudeSpectrogram);
    recordings sharing an alignment group captured the same signal and must
    have equal frame counts.
    """

    items: list
    alignment_groups: Optional[dict] = None

    def __post_init__(self):
        if not self.items:
            raise ValueError("recording set must not be empty")
        first = self.items[0][2]
        seen = set()
        for rid, device, spec in self.items:
            if rid in seen:
                raise ValueError(f"duplicate recording id {rid!r}")
            seen.add(rid)
            if (spec.n_fft != first.n_fft or spec.hop != first.hop
                    or spec.sample_rate != first.sample_rate):
                raise ValueError(f"recording {rid!r} has inconsistent STFT configuration")
        if self.alignment_groups:
            frames = {}
            by_id = {rid: spec for rid, _, spec in self.items}
            for rid, group in self.alignment_groups.items():
                if rid not in by_id:
                    raise ValueError(f"alignment group entry for unknown recording {rid!r}")
                t = by_id[rid].frames
                if frames.setdefault(group, t) != t:
                    raise ValueError(f"recordings in group {group!r} differ in frame count")

    def devices(self) -> list:
        out = []
        for _, device, _ in self.items:
            if device not in out:
                out.append(device)
        return out

    def by_device(self) -> dict:
        grouped: dict = {}
        for _, device, spec in self.items:
            grouped.setdefault(device, []).append(spec)
        return grouped

    def groups(self) -> dict:
        """Map group_id -> list of (recording_id, device_id, spectrogram)."""
        if not self.alignment_groups:
            return {}
        grouped: dict = {}
        for rid, device, spec in self.items:
            group = self.alignment_groups.get(rid)
            if group is not None:
                grouped.setdefault(group, []).append((rid, device, spec))
        return grouped


def _log_mags(spec: AmplitudeSpectrogram, floor: float) -> np.ndarray:
    return np.log(np.maximum(spec.mags, floor))


@dataclass(frozen=True)
class LogSum:
    """One item's share of an estimate: a per-bin log quantity summed over its frames.

    For a recording the quantity is its log amplitude; for an aligned pair,
    the reference/source log-amplitude ratio. Estimates fold these raw sums,
    never means, so they can be computed item by item and dropped with the
    spectrogram they came from.
    """

    total: np.ndarray
    frames: int
    n_fft: int
    sample_rate: int


def log_amplitude_sum(spec: AmplitudeSpectrogram,
                      floor: float = AMPLITUDE_FLOOR) -> LogSum:
    """Sum over frames of log max(|X|, floor) for one recording."""
    return LogSum(_log_mags(spec, floor).sum(axis=0), spec.frames,
                  spec.n_fft, spec.sample_rate)


class AlignedReference:
    """A reference recording reduced to its log amplitudes.

    ``ratio_sum`` gives the log-ratio sum against one source recording of the
    same signal, so a caller can load the sources of an alignment group one
    at a time while only the reference's log amplitudes stay alive.
    """

    def __init__(self, ref: AmplitudeSpectrogram, floor: float = AMPLITUDE_FLOOR):
        self.log_mags = _log_mags(ref, floor)
        self.n_fft = ref.n_fft
        self.sample_rate = ref.sample_rate
        self.floor = floor

    @property
    def frames(self) -> int:
        return self.log_mags.shape[0]

    def ratio_sum(self, src: AmplitudeSpectrogram) -> LogSum:
        """Sum over frames of log reference - log source, per bin."""
        if src.mags.shape != self.log_mags.shape:
            raise ValueError(
                f"unaligned pair: reference shape {self.log_mags.shape} vs "
                f"source shape {src.mags.shape}")
        if (src.n_fft, src.sample_rate) != (self.n_fft, self.sample_rate):
            raise ValueError("mixed STFT configuration across pairs")
        return LogSum((self.log_mags - _log_mags(src, self.floor)).sum(axis=0),
                      self.frames, self.n_fft, self.sample_rate)


def _fold(sums: Sequence[LogSum]):
    """Add the sums in list order; returns (total, frames, first sum)."""
    first = sums[0]
    total = np.zeros(first.total.size)
    frames = 0
    for s in sums:
        if (s.n_fft, s.sample_rate) != (first.n_fft, first.sample_rate):
            raise ValueError(
                f"mixed STFT configuration: {s.n_fft}/{s.sample_rate} vs "
                f"{first.n_fft}/{first.sample_rate}")
        total += s.total
        frames += s.frames
    return total, frames, first


def stats_from_sums(sums: Sequence[LogSum], device: str) -> DeviceSpectrumStats:
    """Fold per-recording log-amplitude sums of one device into its statistics."""
    if not sums:
        raise ValueError("cannot accumulate statistics from an empty recording list")
    total, frames, first = _fold(sums)
    return DeviceSpectrumStats(total / frames, frames, len(sums), device,
                               first.n_fft, first.sample_rate)


def aligned_from_sums(sums: Sequence[LogSum], reference_device: str,
                      source_device: str) -> CorrectionCoefficients:
    """Fold per-pair log-ratio sums into aligned gains (their geometric mean)."""
    if not sums:
        raise ValueError("cannot estimate from an empty pair list")
    total, frames, first = _fold(sums)
    return CorrectionCoefficients(np.exp(total / frames), first.n_fft,
                                  first.sample_rate, source_device,
                                  reference_device, len(sums), "aligned")


def accumulate_stats(specs: Sequence[AmplitudeSpectrogram], device: str,
                     floor: float = AMPLITUDE_FLOOR) -> DeviceSpectrumStats:
    """Pool log amplitudes over all frames of all recordings of one device.

    Recordings of different lengths are weighted by frame count: the mean
    runs over every (frame, recording) cell. Accumulation happens in the
    log domain in list order, so the result is deterministic.
    """
    return stats_from_sums([log_amplitude_sum(spec, floor) for spec in specs], device)


def estimate_aligned(pairs, reference_device: str = "ref", source_device: str = "src",
                     floor: float = AMPLITUDE_FLOOR) -> CorrectionCoefficients:
    """Estimate gains from aligned recordings of the same signals.

    Each pair holds (reference, source) spectrograms of identical shape. The
    gain per bin is the geometric mean, over all pairs and frames, of the
    reference/source amplitude ratio; the floor is applied to both sides.
    """
    sums = [AlignedReference(ref, floor).ratio_sum(src) for ref, src in pairs]
    return aligned_from_sums(sums, reference_device, source_device)


def estimate_unaligned(ref_stats: DeviceSpectrumStats,
                       src_stats: DeviceSpectrumStats) -> CorrectionCoefficients:
    """Estimate gains from independently accumulated per-device statistics."""
    if (ref_stats.n_fft != src_stats.n_fft
            or ref_stats.sample_rate != src_stats.sample_rate):
        raise ValueError(
            f"config mismatch: reference {ref_stats.n_fft}/{ref_stats.sample_rate} vs "
            f"source {src_stats.n_fft}/{src_stats.sample_rate}")
    gains = np.exp(ref_stats.log_mean - src_stats.log_mean)
    return CorrectionCoefficients(gains, src_stats.n_fft, src_stats.sample_rate,
                                  src_stats.device, ref_stats.device,
                                  src_stats.num_recordings, "unaligned")


def simplified_coefficients(stats: DeviceSpectrumStats) -> CorrectionCoefficients:
    """Reference-free gains: the reciprocal of the device's geometric-mean spectrum."""
    return CorrectionCoefficients(np.exp(-stats.log_mean), stats.n_fft,
                                  stats.sample_rate, stats.device, "none",
                                  stats.num_recordings, "simplified")


def apply_to_amplitudes(c: CorrectionCoefficients,
                        a: AmplitudeSpectrogram) -> AmplitudeSpectrogram:
    """Scale each bin of an amplitude spectrogram by its correction gain."""
    if a.freq_bins != c.freq_bins:
        raise ValueError(f"bin mismatch: spectrogram has {a.freq_bins} bins, "
                         f"coefficients have {c.freq_bins}")
    return AmplitudeSpectrogram(a.mags * c.gains, a.n_fft, a.hop,
                                a.sample_rate, a.window_name)


def apply_to_complex(c: CorrectionCoefficients,
                     spec: ComplexSpectrogram) -> ComplexSpectrogram:
    """Scale complex bins by the real gains; phase passes through unchanged."""
    if spec.freq_bins != c.freq_bins:
        raise ValueError(f"bin mismatch: spectrogram has {spec.freq_bins} bins, "
                         f"coefficients have {c.freq_bins}")
    return ComplexSpectrogram(spec.bins * c.gains, spec.n_fft, spec.hop,
                              spec.sample_rate, spec.window_name)


def log_mean_subtract_per_device(recordings: RecordingSet,
                                 floor: float = AMPLITUDE_FLOOR) -> list:
    """Per-device, per-bin log-mean subtraction over a whole recording set.

    For every recording of device d the output is
    log(A) - mean over all of d's recordings and frames of log(A),
    which equals log of applying that device's simplified coefficients.
    Returns one log-amplitude matrix per item, in item order.
    """
    for rid, device, _ in recordings.items:
        if not device:
            raise ValueError(f"recording {rid!r} has an empty device label")
    stats = {device: accumulate_stats(specs, device, floor)
             for device, specs in recordings.by_device().items()}
    out = []
    for _, device, spec in recordings.items:
        out.append(_log_mags(spec, floor) - stats[device].log_mean)
    return out


def cms_per_recording(log_spec: np.ndarray) -> np.ndarray:
    """Subtract each bin's time mean within a single recording.

    Cancels any per-bin multiplicative factor carried by the recording,
    including the environment's response, not just the device's.
    """
    log_spec = np.asarray(log_spec, dtype=np.float64)
    return log_spec - log_spec.mean(axis=0, keepdims=True)


def real_cepstrum(log_frame: np.ndarray) -> np.ndarray:
    """Real cepstrum of a one-sided log spectrum (last axis, length F).

    Computed as the inverse rFFT of the even extension to n_fft = 2*(F-1)
    points with backward normalization (see CEPSTRUM_TRANSFORM); the output
    is real with n_fft quefrency bins.
    """
    log_frame = np.asarray(log_frame, dtype=np.float64)
    if log_frame.shape[-1] < 2:
        raise ValueError("log spectrum must have at least two bins")
    n_fft = 2 * (log_frame.shape[-1] - 1)
    return np.fft.irfft(log_frame, n=n_fft, axis=-1)


def cms_dataset(log_specs: Sequence[np.ndarray]) -> list:
    """Dataset-level mean subtraction carried out in the quefrency domain.

    Transforms every frame with real_cepstrum, then subtracts the mean
    cepstrum pooled over all recordings and frames. By linearity of the
    inverse transform this equals real_cepstrum of the log-domain
    mean-subtracted spectra.
    """
    log_specs = [np.asarray(m, dtype=np.float64) for m in log_specs]
    if not log_specs:
        raise ValueError("cannot apply dataset-level subtraction to an empty list")
    ceps = [real_cepstrum(m) for m in log_specs]
    total = np.zeros(ceps[0].shape[-1])
    frames = 0
    for c in ceps:
        total += c.sum(axis=0)
        frames += c.shape[0]
    mean_cep = total / frames
    return [c - mean_cep for c in ceps]
