"""Log-mel feature pipeline: mel filterbank, correction-aware extraction, and per-bin standardization."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .correction import CorrectionCoefficients
from .dsp import (AMPLITUDE_FLOOR, BLOCK_FRAMES, AmplitudeSpectrogram, Waveform,
                  _fold_rows, _magnitude_blocks, bin_frequencies, check_count, check_grid,
                  check_match, frame_count)

VARIANCE_FLOOR = 1e-8

# Filters per matrix product in MelFilterbank.project. At the default 256
# filters (n_fft 2048) each BLOCK_FRAMES-row product stays under OpenBLAS's
# default threading threshold (m * n * k <= 4 * 65536), so it runs on the
# calling thread; wider chunks also multiply more zeros outside the filters.
MEL_CHUNK = 16

GROUPINGS = ("global", "per_device")
NORMALIZATIONS = ("raw",) + GROUPINGS


def hz_to_mel(f):
    """HTK mel scale."""
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


@dataclass(frozen=True)
class MelFilterbank:
    """Triangular mel filters as a non-negative (n_mels x F) weight matrix."""

    weights: np.ndarray
    n_mels: int
    n_fft: int
    sample_rate: int
    center_frequencies: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "sample_rate", check_grid(self.n_fft, None, self.sample_rate))
        weights = np.asarray(self.weights, dtype=np.float64)
        centers = np.asarray(self.center_frequencies, dtype=np.float64)
        if weights.shape != (self.n_mels, self.n_fft // 2 + 1):
            raise ValueError(
                f"weights must be (n_mels, n_fft//2+1) = "
                f"({self.n_mels}, {self.n_fft // 2 + 1}), got {weights.shape}")
        if np.any(weights < 0) or not np.all(np.isfinite(weights)):
            raise ValueError("filter weights must be finite and non-negative")
        row_peaks = weights.max(axis=1)
        if np.any(row_peaks == 0):
            empty = int(np.argmin(row_peaks))
            raise ValueError(f"filter row {empty} is empty")
        for m in range(self.n_mels):
            peak = int(np.argmax(weights[m]))
            rising = np.diff(weights[m, :peak + 1])
            falling = np.diff(weights[m, peak:])
            if np.any(rising < -1e-12 * row_peaks[m]) or np.any(falling > 1e-12 * row_peaks[m]):
                raise ValueError(f"filter row {m} is not unimodal")
        if centers.size != self.n_mels or np.any(np.diff(centers) <= 0):
            raise ValueError("center frequencies must be strictly increasing, one per filter")
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "center_frequencies", centers)
        # Banded form: each chunk of MEL_CHUNK consecutive filters keeps its
        # dense weights over the bins its filters cover, transposed so that
        # ``mags[:, start:stop] @ w`` gives the chunk's output columns.
        chunks = []
        for first in range(0, self.n_mels, MEL_CHUNK):
            rows = weights[first:first + MEL_CHUNK]
            used = np.flatnonzero(rows.any(axis=0))
            start, stop = int(used[0]), int(used[-1]) + 1
            chunks.append((start, stop, first, first + rows.shape[0],
                           np.ascontiguousarray(rows[:, start:stop].T)))
        object.__setattr__(self, "_chunks", tuple(chunks))

    def project(self, mags: np.ndarray) -> np.ndarray:
        """``mags @ weights.T`` for a (frames x bins) matrix, as one matrix
        product per chunk of filters over the bins that chunk covers.

        Each BLOCK_FRAMES-row tile is one set of BLAS calls of the same
        shapes, the last tile zero-padded, so a row's result does not depend
        on how many rows come with it: projecting a block of frames gives
        exactly the rows that projecting all of them would.
        """
        mags = np.ascontiguousarray(mags, dtype=np.float64)
        if mags.ndim != 2 or mags.shape[1] != self.weights.shape[1]:
            raise ValueError(f"expected a (frames x {self.weights.shape[1]}) magnitude "
                             f"matrix, got shape {mags.shape}")
        out = np.empty((mags.shape[0], self.n_mels))
        for first in range(0, mags.shape[0], BLOCK_FRAMES):
            tile, dest = mags[first:first + BLOCK_FRAMES], out[first:first + BLOCK_FRAMES]
            rows = tile.shape[0]
            if rows < BLOCK_FRAMES:
                tile = np.zeros((BLOCK_FRAMES, mags.shape[1]))
                tile[:rows] = mags[first:]
                dest = np.empty((BLOCK_FRAMES, self.n_mels))
            for start, stop, lo, hi, w in self._chunks:
                np.matmul(tile[:, start:stop], w, out=dest[:, lo:hi])
            if rows < BLOCK_FRAMES:
                out[first:] = dest[:rows]
        return out


@dataclass(frozen=True)
class FeatureTensor:
    """Log-mel features (frames x n_mels) with normalization provenance."""

    values: np.ndarray
    normalization: str = "raw"
    stats_id: str = ""
    correction: str = "none"

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 2:
            raise ValueError(f"feature values must be 2-D, got shape {values.shape}")
        if not np.all(np.isfinite(values)):
            raise ValueError("feature values must be finite")
        if self.normalization not in NORMALIZATIONS:
            raise ValueError(f"normalization must be one of {NORMALIZATIONS}, "
                             f"got {self.normalization!r}")
        object.__setattr__(self, "values", values)

    @property
    def frames(self) -> int:
        return self.values.shape[0]

    @property
    def n_mels(self) -> int:
        return self.values.shape[1]


def _triangle_band_average(left: float, center: float, right: float,
                           lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Average of a unit triangle over each interval [lo, hi].

    Integrating over the bin's frequency extent (rather than sampling the
    bin center) keeps every filter non-empty even when triangles are
    narrower than the bin spacing.
    """
    # Rising edge (x - left)/(center - left) over [left, center].
    x0 = np.clip(lo, left, center)
    x1 = np.clip(hi, left, center)
    up = ((x1 - left) ** 2 - (x0 - left) ** 2) / (2.0 * (center - left))
    # Falling edge (right - x)/(right - center) over [center, right].
    y0 = np.clip(lo, center, right)
    y1 = np.clip(hi, center, right)
    down = ((right - y0) ** 2 - (right - y1) ** 2) / (2.0 * (right - center))
    return (up + down) / (hi - lo)


def mel_filterbank(sample_rate: int, n_fft: int, n_mels: int = 256) -> MelFilterbank:
    """Unit-height triangular filters with HTK-mel-spaced centers on the STFT
    bin grid, spanning 0 Hz to Nyquist."""
    sample_rate = check_grid(n_fft, sample_rate=sample_rate)
    check_count("n_mels", n_mels)
    nyquist = sample_rate / 2.0
    points = mel_to_hz(np.linspace(0.0, hz_to_mel(nyquist), n_mels + 2))
    freqs = bin_frequencies(n_fft, sample_rate)
    half_width = sample_rate / n_fft / 2.0
    lo = np.clip(freqs - half_width, 0.0, nyquist)
    hi = np.clip(freqs + half_width, 0.0, nyquist)

    weights = np.zeros((n_mels, freqs.size))
    for m in range(n_mels):
        weights[m] = _triangle_band_average(points[m], points[m + 1], points[m + 2], lo, hi)
    return MelFilterbank(weights, n_mels, n_fft, sample_rate, points[1:-1])


def _correction(c: Optional[CorrectionCoefficients], fb: MelFilterbank):
    """(gains or None, provenance tag), after checking c fits fb's STFT grid."""
    if c is None:
        return None, "none"
    check_match(("n_fft", "sample_rate"), ("filterbank", fb), ("coefficients", c))
    return c.gains, f"pre_mel:{c.source_device}->{c.reference_device}"


def _log_mel(mags: np.ndarray, fb: MelFilterbank, out: np.ndarray) -> np.ndarray:
    """log max(mags @ fb.weights.T, AMPLITUDE_FLOOR), written into ``out``."""
    return np.log(np.maximum(fb.project(mags), AMPLITUDE_FLOOR, out=out), out=out)


def extract(a: AmplitudeSpectrogram, fb: MelFilterbank,
            c: Optional[CorrectionCoefficients] = None) -> FeatureTensor:
    """Log-mel features; correction, when given, is applied before the mel
    projection. The tensor records whether that happened."""
    check_match(("n_fft", "sample_rate"), ("filterbank", fb), ("spectrogram", a))
    gains, correction = _correction(c, fb)
    mags = a.mags if gains is None else a.mags * gains
    return FeatureTensor(_log_mel(mags, fb, np.empty((a.frames, fb.n_mels))),
                         "raw", "", correction)


def log_mel_blocks(audio, fb: MelFilterbank, c: Optional[CorrectionCoefficients] = None,
                   hop: int = 512):
    """(provenance tag, iterator of log-mel row blocks): the rows of
    ``extract_waveform(audio, fb, c, hop)``, BLOCK_FRAMES at a time.

    ``audio`` is a Waveform or an open WAV (``wavio.open_wav``). The arguments
    are checked at once. Every block is a view of one buffer that the next
    block overwrites, so the caller must not keep it.
    """
    check_match(("sample_rate",), ("filterbank", fb), ("audio", audio))
    blocks = _magnitude_blocks(audio, fb.n_fft, hop)
    gains, correction = _correction(c, fb)
    out = np.empty((BLOCK_FRAMES, fb.n_mels))

    def rows():
        for mags in blocks:
            if gains is not None:
                mags *= gains
            yield _log_mel(mags, fb, out[:len(mags)])
    return correction, rows()


def extract_waveform(w: Waveform, fb: MelFilterbank,
                     c: Optional[CorrectionCoefficients] = None,
                     hop: int = 512) -> FeatureTensor:
    """``extract(amplitude(stft(w, fb.n_fft, hop)), fb, c)``, bit for bit,
    computed BLOCK_FRAMES frames at a time (``log_mel_blocks``): no whole
    complex, magnitude or corrected spectrogram is ever held, only the log-mel
    rows. ``w`` may also be an open WAV."""
    correction, blocks = log_mel_blocks(w, fb, c, hop)
    values = np.empty((frame_count(len(w), fb.n_fft, hop), fb.n_mels))
    first = 0
    for rows in blocks:
        values[first:first + len(rows)] = rows
        first += len(rows)
    return FeatureTensor(values, "raw", "", correction)


def group_keys(grouping: str, device_labels: Optional[Sequence[str]], count: int) -> list:
    """The statistics group of each of ``count`` tensors: "global", or
    "device:<label>" per tensor for "per_device"."""
    if grouping not in GROUPINGS:
        raise ValueError(f"grouping must be one of {GROUPINGS}, got {grouping!r}")
    if grouping == "global":
        return ["global"] * count
    if device_labels is None or len(device_labels) != count:
        raise ValueError("per_device standardization requires one device label "
                         "per feature tensor")
    return [f"device:{label}" for label in device_labels]


def group_stats(keys: Sequence[str], shapes: Sequence[tuple], read) -> dict:
    """Each group's per-bin (mean, std) over the frames of its tensors.

    Tensor i has shape ``shapes[i]`` and belongs to group ``keys[i]``;
    ``read(i, out, first)`` fills ``out`` with its rows from ``first`` on.
    The tensors are read twice, in list order and BLOCK_FRAMES rows at a time,
    into one buffer that the folds overwrite: row sums give each group's mean,
    then summed squared deviations from it give the variance. Only that
    buffer and a few vectors per group are held, and the moments equal those
    of each group's concatenated frames folded row by row, bit for bit.
    """
    buffer = np.empty(BLOCK_FRAMES * max((mels for _, mels in shapes), default=0))

    def blocks(i):
        rows, mels = shapes[i]
        for first in range(0, max(rows, 1), BLOCK_FRAMES):  # one empty block if no rows
            count = min(BLOCK_FRAMES, rows - first)
            out = buffer[:count * mels].reshape(count, mels)
            read(i, out, first)
            yield out

    sums, counts = {}, {}
    for i, key in enumerate(keys):
        if key in sums and sums[key].size != shapes[i][1]:
            raise ValueError(f"group {key!r} mixes {sums[key].size} and {shapes[i][1]} mels")
        for rows in blocks(i):
            sums[key] = _fold_rows(sums.get(key), rows)
        counts[key] = counts.get(key, 0) + shapes[i][0]
    means = {key: total / counts[key] for key, total in sums.items()}
    squares: dict = {}
    for i, key in enumerate(keys):
        for dev in blocks(i):
            dev -= means[key]
            squares[key] = _fold_rows(squares.get(key), np.multiply(dev, dev, out=dev))
    return {key: (means[key], np.sqrt(np.maximum(total / counts[key], VARIANCE_FLOOR)))
            for key, total in squares.items()}


def scale_rows(values: np.ndarray, stats: tuple, out: Optional[np.ndarray] = None) -> np.ndarray:
    """(values - mean) / std for one group's (mean, std), into ``out`` if given."""
    mean, std = stats
    out = np.subtract(values, mean, out=out)
    return np.divide(out, std, out=out)


def iter_standardize(features: Sequence[FeatureTensor], grouping: str = "global",
                     device_labels: Optional[Sequence[str]] = None):
    """``standardize``, yielding the scaled tensors one at a time: (iterator, stats).

    The statistics come from ``group_stats``, so besides the inputs only one
    scaled tensor at a time and one vector per group are held. A one-shot
    iterator is read into a list first; a sequence is read where it is.
    """
    if not isinstance(features, Sequence):
        features = list(features)
    keys = group_keys(grouping, device_labels, len(features))
    stats = group_stats(keys, [feat.values.shape for feat in features],
                        lambda i, out, first: np.copyto(
                            out, features[i].values[first:first + len(out)]))
    scaled = (FeatureTensor(scale_rows(feat.values, stats[key]), grouping, key, feat.correction)
              for key, feat in zip(keys, features))
    return scaled, stats


def standardize(features: Sequence[FeatureTensor], grouping: str = "global",
                device_labels: Optional[Sequence[str]] = None):
    """Zero-mean unit-variance scaling per mel bin over a group's frames.

    grouping "global" pools everything; "per_device" computes statistics
    separately per device label. Returns (tensors, stats) where stats maps
    group id -> (mean, std).
    """
    scaled, stats = iter_standardize(features, grouping, device_labels)
    return list(scaled), stats
