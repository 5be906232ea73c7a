"""Linear-phase FIR realization of correction gains via least squares."""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from . import dsp
from .dsp import Waveform

if TYPE_CHECKING:  # annotations only: filter imports this module and runs no estimation
    from .correction import CorrectionCoefficients

# Targets are clamped to +/- this range before the filter is designed;
# extreme gains (notably from the reference-free variant, which is only
# defined up to scale) otherwise make the fit ill-behaved.
DEFAULT_CLAMP_DB = 40.0

# Input samples that filter_blocks convolves at a time: with a 1025-tap filter
# one FFT of 9216 points, about 72 KiB, however long the input is.
SEGMENT_SAMPLES = 8192


@dataclass(frozen=True)
class FirFilter:
    """Odd-length symmetric (Type I) tap vector with exact linear phase."""

    taps: np.ndarray
    sample_rate: int
    target_bins: int

    def __post_init__(self):
        object.__setattr__(self, "sample_rate", dsp.check_grid(sample_rate=self.sample_rate))
        taps = np.asarray(self.taps, dtype=np.float64)
        if taps.ndim != 1 or taps.size < 3 or taps.size % 2 == 0:
            raise ValueError(f"taps must be a 1-D vector of odd length >= 3, got shape {taps.shape}")
        if not np.all(np.isfinite(taps)):
            raise ValueError("taps must be finite")
        if np.max(np.abs(taps - taps[::-1])) > 1e-12 * max(1.0, np.max(np.abs(taps))):
            raise ValueError("taps must be symmetric (Type I linear phase)")
        dsp.check_count("target_bins", self.target_bins)
        object.__setattr__(self, "taps", taps)

    @property
    def num_taps(self) -> int:
        return self.taps.size

    @property
    def group_delay(self) -> int:
        return (self.taps.size - 1) // 2


def design_ls(c: CorrectionCoefficients, num_taps: int = 1025) -> FirFilter:
    """Design a Type I filter whose amplitude response matches the gains.

    Minimizes the uniformly weighted squared error between the filter's
    amplitude response and the target gains, clamped to +/- DEFAULT_CLAMP_DB,
    on the grid of STFT bin-center frequencies. With num_taps >= n_fft//2 + 1
    and a smooth target, the response lands within a fraction of a dB
    mid-band. Beyond n_fft + 1 taps the extra cosines repeat ones already on
    that grid, so the fit would not be unique; such lengths are rejected.
    """
    if num_taps < 3 or num_taps % 2 == 0:
        raise ValueError(f"num_taps must be odd and >= 3, got {num_taps}")
    n = c.n_fft
    if num_taps > n + 1:
        raise ValueError(f"num_taps {num_taps} exceeds n_fft + 1 = {n + 1}: the "
                         f"coefficients' {c.freq_bins} bins do not determine more taps")
    clamp = 10.0 ** (DEFAULT_CLAMP_DB / 20.0)
    target = np.clip(c.gains, 1.0 / clamp, clamp)  # CorrectionCoefficients: finite, > 0

    # Amplitude response of a Type I filter with half-taps a_0..a_M on the bins
    # f_k = k sr / n, k = 0..n//2:  A(f_k) = sum_m C[k, m] b_m  with
    # C[k, m] = cos(2 pi k m / n) and b = (a_0, 2 a_1, .., 2 a_M). By DCT
    # orthogonality the normal matrix is C'C = D + u u' / 2: D is n/4 on the
    # diagonal and n/2 at m = 0 and m = n/2, and u's columns are C's rows at
    # the edge bins, k = 0 (all ones) and k = n/2 ((-1)^m); n is even
    # (``dsp.check_grid``). C' target is one rfft of the target's even
    # extension, and the low-rank update leaves a 2 x 2 solve (Woodbury).
    half = (num_taps - 1) // 2
    edges = [0, n // 2]
    u = np.cos((2.0 * np.pi / n) * np.outer(np.arange(half + 1), edges))
    d = np.full(half + 1, n / 4.0)
    d[[m for m in edges if m <= half]] = n / 2.0
    extended = np.concatenate([target, target[-2:0:-1]])
    rhs = (np.fft.rfft(extended)[:half + 1].real + u @ target[edges]) / 2.0
    x, y = rhs / d, u / d[:, None]
    b = x - y @ np.linalg.solve(2.0 * np.eye(2) + u.T @ y, u.T @ x)
    a = np.concatenate([b[:1], b[1:] / 2.0])
    taps = np.concatenate([a[:0:-1], a])
    return FirFilter(taps, c.sample_rate, c.freq_bins)


def frequency_response(fir: FirFilter, grid) -> np.ndarray:
    """Amplitude response |sum_n taps[n] exp(-2i pi f n / sr)| on a Hz grid."""
    grid = np.atleast_1d(np.asarray(grid, dtype=np.float64))
    nyquist = fir.sample_rate / 2.0
    if np.any(grid < 0) or np.any(grid > nyquist):
        raise ValueError(f"frequency out of range [0, {nyquist}] Hz")
    phases = np.exp((-2.0j * np.pi / fir.sample_rate)
                    * np.outer(grid, np.arange(fir.num_taps)))
    return np.abs(phases @ fir.taps)


def filter_blocks(fir: FirFilter, audio, compensate_delay: bool = True):
    """``apply_filter`` of a Waveform or a ForwardReader (an open WAV), as
    consecutive blocks of output samples.

    Checks its arguments at once, then returns an iterator of (1 x samples)
    matrices in order. The input is read forward SEGMENT_SAMPLES at a time;
    each segment is convolved with the taps through one real FFT of the fixed
    length ``fast_fft_len(SEGMENT_SAMPLES + num_taps - 1)``, against the taps'
    spectrum computed once, and the segments' convolutions are overlap-added
    SEGMENT_SAMPLES apart (``dsp.OverlapAdd``), with empty segments past the
    input until the last output sample is finished. The output runs from
    sample ``group_delay`` of the full convolution with delay compensation,
    from sample 0 without, and is as long as ``apply_filter``'s. Every block
    is a view of one buffer that the next block overwrites, so the caller
    must not keep it.
    """
    dsp.check_match(("sample_rate",), ("audio", audio), ("filter", fir))
    n = len(audio)
    if not n:
        raise ValueError("no samples to filter")
    width = SEGMENT_SAMPLES + fir.num_taps - 1
    size = dsp.fast_fft_len(width)
    start = fir.group_delay if compensate_delay else 0
    stop = start + filtered_length(fir, n, compensate_delay)

    def blocks():
        response = np.fft.rfft(fir.taps, size)
        sink = dsp.OverlapAdd(1, width, SEGMENT_SAMPLES, 1)
        # Segment k's add finishes samples [k, k + 1) * SEGMENT_SAMPLES of the
        # full convolution; each block is cut to [start, stop). Past the input
        # a segment is empty, so its transform is zero and adds nothing.
        for first in range(0, stop, SEGMENT_SAMPLES):
            segment = audio.read(min(first, n), min(first + SEGMENT_SAMPLES, n))
            out = np.fft.irfft(np.fft.rfft(segment, size) * response, size)
            block = sink.add(1, [out[None, :width]])[:, max(start - first, 0):stop - first]
            if block.size:
                yield block
    return blocks()


def filtered_length(fir: FirFilter, samples: int, compensate_delay: bool = True) -> int:
    """Samples ``apply_filter`` returns for an input of ``samples`` samples."""
    return samples if compensate_delay else samples + fir.num_taps - 1


def apply_filter(fir: FirFilter, w: Waveform, compensate_delay: bool = True) -> Waveform:
    """Convolve a waveform with the filter.

    With delay compensation the output is advanced by the group delay and
    truncated to the input length, so it lines up sample-for-sample with the
    frequency-domain path. Without it, the full convolution is returned. The
    samples are those of ``filter_blocks``, collected.
    """
    out = np.empty(filtered_length(fir, len(w), compensate_delay))
    done = 0
    for block in filter_blocks(fir, w, compensate_delay):
        out[done:done + block.shape[1]] = block[0]
        done += block.shape[1]
    return Waveform(out, w.sample_rate)
