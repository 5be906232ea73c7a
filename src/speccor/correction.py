"""Per-bin correction coefficients: estimation (aligned and unaligned), application, and the standardization / cepstral-mean reductions."""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import reduce
from typing import Optional, Sequence

import numpy as np

from .dsp import (AMPLITUDE_FLOOR, AmplitudeSpectrogram, Spectrogram, Waveform, _fold_rows,
                  _magnitude_blocks)

ESTIMATORS = ("aligned", "unaligned", "simplified")


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
        if self.n_fft < 16:
            raise ValueError(f"n_fft must be >= 16, the smallest STFT, got {self.n_fft}")
        if gains.ndim != 1 or gains.size != self.n_fft // 2 + 1:
            raise ValueError(
                f"gains must have length n_fft//2+1 = {self.n_fft // 2 + 1}, "
                f"got shape {gains.shape}")
        if not np.all(np.isfinite(gains)) or np.any(gains <= 0):
            raise ValueError("gains must be finite and strictly positive")
        if self.estimator not in ESTIMATORS:
            raise ValueError(f"estimator must be one of {ESTIMATORS}, got {self.estimator!r}")
        if self.sample_rate < 1:
            raise ValueError(f"sample_rate must be positive, got {self.sample_rate}")
        if self.num_recordings < 1:
            raise ValueError(f"num_recordings must be >= 1, got {self.num_recordings}")
        object.__setattr__(self, "gains", gains)

    @property
    def freq_bins(self) -> int:
        return self.gains.size

    def check_applies_to(self, freq_bins: int, sample_rate: int) -> None:
        """Raise unless the gains fit a spectrogram of freq_bins bins at sample_rate Hz."""
        if freq_bins != self.freq_bins:
            raise ValueError(f"bin mismatch: spectrogram has {freq_bins} bins, "
                             f"coefficients have {self.freq_bins}")
        if sample_rate != self.sample_rate:
            raise ValueError(f"sample_rate mismatch: spectrogram is {sample_rate} Hz, "
                             f"coefficients are for {self.sample_rate} Hz")


@dataclass(frozen=True)
class DeviceSpectrumStats:
    """Per-bin sum over frames of log max(|X|, AMPLITUDE_FLOOR) for one device.

    This is the whole sufficient statistic for unaligned estimation. ``merge``
    adds sums and counts, so shards merged in list order give the same bits
    as accumulating their recordings in that order.
    """

    log_sum: np.ndarray
    total_frames: int
    num_recordings: int
    device: str
    n_fft: int
    sample_rate: int

    def __post_init__(self):
        log_sum = np.asarray(self.log_sum, dtype=np.float64)
        if log_sum.ndim != 1 or log_sum.size != self.n_fft // 2 + 1:
            raise ValueError(
                f"log_sum must have length n_fft//2+1 = {self.n_fft // 2 + 1}, "
                f"got shape {log_sum.shape}")
        if not np.all(np.isfinite(log_sum)):
            raise ValueError("log_sum must be finite")
        if self.num_recordings < 1 or self.total_frames < self.num_recordings:
            raise ValueError(
                f"need total_frames >= num_recordings >= 1, got "
                f"{self.total_frames} / {self.num_recordings}")
        object.__setattr__(self, "log_sum", log_sum)

    @property
    def log_mean(self) -> np.ndarray:
        """Per-bin mean log amplitude over every (frame, recording) cell."""
        return self.log_sum / self.total_frames

    def merge(self, other: "DeviceSpectrumStats") -> "DeviceSpectrumStats":
        """Combine two shards by adding their sums and counts."""
        if (other.device, other.n_fft, other.sample_rate) != (
                self.device, self.n_fft, self.sample_rate):
            raise ValueError(
                f"cannot merge mixed statistics: {other.device!r}@{other.n_fft}/"
                f"{other.sample_rate} into {self.device!r}@{self.n_fft}/{self.sample_rate}")
        return DeviceSpectrumStats(self.log_sum + other.log_sum,
                                   self.total_frames + other.total_frames,
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
        return list(dict.fromkeys(device for _, device, _ in self.items))

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


def _log_mags(spec: AmplitudeSpectrogram) -> np.ndarray:
    return np.log(np.maximum(spec.mags, AMPLITUDE_FLOOR))


def log_amplitude_sum(spec: AmplitudeSpectrogram, device: str = "") -> DeviceSpectrumStats:
    """One recording's statistics: log max(|X|, AMPLITUDE_FLOOR) summed over frames."""
    return DeviceSpectrumStats(_log_mags(spec).sum(axis=0), spec.frames, 1, device,
                               spec.n_fft, spec.sample_rate)


def waveform_log_sum(w: Waveform, n_fft: int = 2048, hop: int = 512,
                     device: str = "") -> DeviceSpectrumStats:
    """``log_amplitude_sum(amplitude(stft(w, n_fft, hop)), device)``, bit for bit,
    reduced BLOCK_FRAMES frames at a time: no spectrogram is ever held. ``w``
    may also be an open WAV (``wavio.open_wav``), read a block at a time."""
    total, frames = None, 0
    for mags in _magnitude_blocks(w, n_fft, hop):
        np.log(np.maximum(mags, AMPLITUDE_FLOOR, out=mags), out=mags)
        total = _fold_rows(total, mags)
        frames += len(mags)
    return DeviceSpectrumStats(total, frames, 1, device, n_fft, w.sample_rate)


def merge_stats(shards: Sequence[DeviceSpectrumStats]) -> DeviceSpectrumStats:
    """Merge the shards in list order; ``estimate`` folds each device this way."""
    if not shards:
        raise ValueError("cannot accumulate statistics from an empty recording list")
    return reduce(DeviceSpectrumStats.merge, shards)


def aligned_from_sums(ref_sums: Sequence[DeviceSpectrumStats],
                      src_sums: Sequence[DeviceSpectrumStats]) -> CorrectionCoefficients:
    """Aligned gains from the one-recording statistics of paired recordings.

    Item i of both lists is one signal captured by the two devices. Over
    paired frames, the mean log ratio is the reference's mean log amplitude
    minus the source's, so this is ``estimate_unaligned`` over the pairs.
    """
    ref_frames = [s.total_frames for s in ref_sums]
    src_frames = [s.total_frames for s in src_sums]
    if ref_frames != src_frames:
        raise ValueError(f"unaligned pairs: reference frame counts {ref_frames}, "
                         f"source frame counts {src_frames}")
    return replace(estimate_unaligned(merge_stats(ref_sums), merge_stats(src_sums)),
                   estimator="aligned")


def accumulate_stats(specs: Sequence[AmplitudeSpectrogram],
                     device: str) -> DeviceSpectrumStats:
    """Pool log amplitudes over all frames of all recordings of one device.

    Recordings of different lengths are weighted by frame count: the mean
    runs over every (frame, recording) cell. Accumulation happens in the
    log domain in list order, so the result is deterministic.
    """
    return merge_stats([log_amplitude_sum(spec, device) for spec in specs])


def estimate_aligned(pairs, reference_device: str = "ref",
                     source_device: str = "src") -> CorrectionCoefficients:
    """Estimate gains from aligned recordings of the same signals.

    Each pair holds (reference, source) spectrograms of identical shape. The
    gain per bin is the geometric mean, over all pairs and frames, of the
    reference/source amplitude ratio; AMPLITUDE_FLOOR is applied to both sides.
    """
    pairs = list(pairs)
    return aligned_from_sums([log_amplitude_sum(ref, reference_device) for ref, _ in pairs],
                             [log_amplitude_sum(src, source_device) for _, src in pairs])


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


def apply_to_amplitudes(c: CorrectionCoefficients, spec: Spectrogram) -> Spectrogram:
    """Scale each bin of an amplitude or complex spectrogram by its real gain;
    a complex bin's phase passes through unchanged."""
    c.check_applies_to(spec.freq_bins, spec.sample_rate)
    return replace(spec, matrix=spec.matrix * c.gains)


apply_to_complex = apply_to_amplitudes


def log_mean_subtract_per_device(recordings: RecordingSet) -> list:
    """Per-device, per-bin log-mean subtraction over a whole recording set.

    For every recording of device d the output is
    log(A) - mean over all of d's recordings and frames of log(A),
    which equals log of applying that device's simplified coefficients.
    Returns one log-amplitude matrix per item, in item order.
    """
    for rid, device, _ in recordings.items:
        if not device:
            raise ValueError(f"recording {rid!r} has an empty device label")
    stats = {device: accumulate_stats(specs, device)
             for device, specs in recordings.by_device().items()}
    out = []
    for _, device, spec in recordings.items:
        out.append(_log_mags(spec) - stats[device].log_mean)
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
    points with backward (1/N) normalization; the output is real with n_fft
    quefrency bins.
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
