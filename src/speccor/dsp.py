"""Core signal primitives: framing, windowed STFT/iSTFT, magnitudes, geometric means, convolution."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

# Linear amplitudes below this are clamped before taking logs. Far below any
# real signal level; only guards against log(0).
AMPLITUDE_FLOOR = 1e-10

# Band used for decibel comparisons. DC/Nyquist and the band edges are
# excluded: window leakage makes them ill-conditioned.
MIDBAND_HZ = (100.0, 16000.0)

DB_PER_NAT = 20.0 / np.log(10.0)

# Frames analysed at once by apply_gains, features.extract_waveform and the
# waveform reductions of correction: a spectrogram block stays at a few MB
# (64 x 1025 complex bins at n_fft 2048) however long the input is.
BLOCK_FRAMES = 64


def to_db(ratio):
    """Convert a linear amplitude ratio to decibels."""
    return 20.0 * np.log10(ratio)


def hann(n_fft: int) -> np.ndarray:
    """Periodic Hann window of length ``n_fft``, the window of every STFT here."""
    return 0.5 + 0.5 * np.cos(np.linspace(-np.pi, np.pi, n_fft + 1)[:-1])


def overlap_add_invertible(win: np.ndarray, hop: int) -> bool:
    """Stable overlap-add: the squared window folded into ``hop`` columns,
    one per output phase, has a least column sum of at least 1e-2 of its
    largest (Hann: hops up to about 0.83 n_fft, 1697 at 2048), so dividing
    by it cannot swell a shaped signal where frames barely overlap. A hop
    past the window leaves gaps, and one below 1 is none: both are False
    with nothing allocated.
    """
    if not 1 <= hop <= win.size:
        return False
    wsq = np.zeros(-(-win.size // hop) * hop)
    wsq[:win.size] = win * win
    sums = wsq.reshape(-1, hop).sum(axis=0)
    return bool(sums.min() >= 1e-2 * sums.max())


def fast_fft_len(n: int) -> int:
    """Smallest 2**a * 3**b * 5**c >= n, a length numpy's FFT handles fast."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            # p35 times the smallest power of two reaching n
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def bin_frequencies(n_fft: int, sample_rate: int) -> np.ndarray:
    """Center frequencies in Hz of the one-sided FFT bins."""
    return np.arange(n_fft // 2 + 1) * (sample_rate / n_fft)


def band_bins(n_fft: int, sample_rate: int) -> np.ndarray:
    """Indices of the bins whose center frequencies lie in MIDBAND_HZ."""
    freqs = bin_frequencies(n_fft, sample_rate)
    return np.nonzero((freqs >= MIDBAND_HZ[0]) & (freqs <= MIDBAND_HZ[1]))[0]


@dataclass(frozen=True)
class Waveform:
    """Mono audio samples (nominal range [-1, 1]) at a fixed sample rate."""

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=np.float64)
        if samples.ndim != 1:
            raise ValueError(f"waveform samples must be 1-D, got shape {samples.shape}")
        if not np.all(np.isfinite(samples)):
            raise ValueError("waveform samples must be finite")
        rate = int(self.sample_rate)
        if rate != self.sample_rate or rate <= 0:
            raise ValueError(f"sample_rate must be a positive whole number, got {self.sample_rate}")
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "sample_rate", rate)

    def __len__(self) -> int:
        return self.samples.size

    def read(self, start: int, stop: int) -> np.ndarray:
        """Samples [start, stop), as an open WAV's ``read`` gives them."""
        return self.samples[start:stop]


class ForwardReader:
    """Base of audio read forward in ranges, as a Waveform is read, but made
    range by range: decoded from a file (``wavio.open_wav``) or drawn from a
    seeded generator (``simulate.unit_plan``'s sources).

    ``read(start, stop)`` returns samples [start, stop) as a view that stays
    valid until the next call; neither end may move back. Its one buffer
    keeps only the overlap with the previous range and the subclass makes
    the rest: ``_fill(out)`` writes the next ``out.size`` samples into
    ``out``, and ``_skip(samples)`` moves past the next ``samples`` samples,
    those between two ranges. So a reader holds its largest range, however
    long the signal is. A subclass also gives ``__len__`` and ``sample_rate``;
    ``name`` starts the error of a range that moves back.
    """

    def __init__(self, name):
        self.name = name
        self._buf = np.empty(0)
        self._lo = self._hi = 0  # _buf[:hi - lo] holds samples [lo, hi)

    def read(self, start: int, stop: int) -> np.ndarray:
        """Samples [start, stop) as float64."""
        lo, hi = self._lo, self._hi
        if not (lo <= start <= stop <= len(self) and stop >= hi):
            raise ValueError(f"{self.name}: cannot read samples [{start}, {stop}) after "
                             f"[{lo}, {hi}) of {len(self)}: ranges only move forward")
        keep = max(hi - start, 0)
        if self._buf.size < stop - start:
            buf = np.empty(stop - start)
            buf[:keep] = self._buf[start - lo:hi - lo]
            self._buf = buf
        elif keep:
            self._buf[:keep] = self._buf[start - lo:hi - lo]
        if start > hi:
            self._skip(start - hi)
        self._fill(self._buf[keep:stop - start])
        self._lo, self._hi = start, stop
        return self._buf[:stop - start]


@dataclass(frozen=True)
class Spectrogram:
    """One-sided STFT matrix of ``hann`` frames, laid out frames x bins with
    F = n_fft//2 + 1, plus its grid. A subclass fixes the matrix's ``dtype``
    and the name it is read by."""

    matrix: np.ndarray
    n_fft: int
    hop: int
    sample_rate: int
    dtype = None  # a class constant, not a field: None keeps the matrix's own

    def __post_init__(self):
        matrix = np.asarray(self.matrix, dtype=self.dtype)
        if matrix.ndim != 2 or matrix.shape[0] < 1:
            raise ValueError(f"spectrogram must be a non-empty 2-D matrix, got shape "
                             f"{matrix.shape}")
        if matrix.shape[1] != self.n_fft // 2 + 1:
            raise ValueError(
                f"bin count {matrix.shape[1]} inconsistent with n_fft={self.n_fft} "
                f"(expected {self.n_fft // 2 + 1})")
        object.__setattr__(self, "matrix", matrix)

    @property
    def frames(self) -> int:
        return self.matrix.shape[0]

    @property
    def freq_bins(self) -> int:
        return self.matrix.shape[1]

    def bin_frequencies(self) -> np.ndarray:
        return bin_frequencies(self.n_fft, self.sample_rate)


class ComplexSpectrogram(Spectrogram):
    """Complex STFT bins."""

    dtype = np.complex128
    bins = property(lambda self: self.matrix)


class AmplitudeSpectrogram(Spectrogram):
    """Non-negative STFT magnitudes."""

    dtype = np.float64
    mags = property(lambda self: self.matrix)

    def __post_init__(self):
        super().__post_init__()
        if not np.all(np.isfinite(self.matrix)) or np.any(self.matrix < 0):
            raise ValueError("magnitudes must be finite and non-negative")


def frame_count(length: int, n_fft: int, hop: int) -> int:
    """Frames that ``stft`` takes from ``length`` samples; raises as ``stft`` would
    for a bad grid or a too-short input."""
    if n_fft < 16 or n_fft % 2 != 0:
        raise ValueError(f"n_fft must be an even integer >= 16, got {n_fft}")
    if hop < 1:
        raise ValueError(f"hop must be >= 1, got {hop}")
    if length < n_fft:
        raise ValueError(f"input too short: {length} samples < n_fft={n_fft}")
    return (length - n_fft) // hop + 1


def _synthesis_window(n_fft: int, hop: int) -> np.ndarray:
    win = hann(n_fft)
    if not overlap_add_invertible(win, hop):
        raise ValueError(f"reconstruction condition violated: Hann window with "
                         f"hop={hop}, n_fft={n_fft} does not invert stably")
    return win


def _frames(samples: np.ndarray, n_fft: int, hop: int) -> np.ndarray:
    """Frame t is the view samples[t*hop : t*hop + n_fft]; no copy is made."""
    return sliding_window_view(samples, n_fft)[::hop]


def _overlap_add(out: np.ndarray, frames: np.ndarray, hop: int) -> None:
    """Add each row t of ``frames`` into ``out`` (the rows x hop buffer) at
    sample t * hop.

    Frame t adds its phase j, samples [j*hop, (j+1)*hop), to row t+j.
    The phases run from last to first, so every output sample receives its
    terms in frame order: the sums are those of a frame-by-frame loop.
    """
    for j in range(-(-frames.shape[1] // hop) - 1, -1, -1):
        part = frames[:, j * hop:(j + 1) * hop]
        out[j:j + part.shape[0], :part.shape[1]] += part


def _spectrum_blocks(audio, win: np.ndarray, hop: int, step: int):
    """(rfft of the windowed frames, scratch) for each ``step`` frames of
    ``audio`` in order; rfft transforms each row alone, so every block equals
    the same rows of the whole spectrogram, bit for bit.

    ``audio`` is a Waveform or a ForwardReader, such as an open WAV
    (``wavio.open_wav``): each block's samples come from one forward
    ``audio.read(start, stop)``, so a file is never held whole, and every
    sample is read once the blocks run out.
    The frames are windowed into one float buffer, ``scratch``, and
    transformed into one complex buffer, both reused from block to block, so
    the loop allocates no block-sized array. Once rfft has read ``scratch``,
    it is free until the next block: it holds a block of the spectrum's size,
    as magnitudes or complex.
    """
    n_fft, bins = win.size, win.size // 2 + 1
    frames = frame_count(len(audio), n_fft, hop)
    # One allocation holds both buffers. glibc gives the top of the heap back
    # to the OS once more than twice the largest block it has unmapped lies
    # free; as one block, they raise that bound enough that a call's memory
    # is kept for the next call rather than faulted in again (estimate on 36
    # files of 10 s, 2 threads: 8.1k page faults instead of 27.7k).
    work = np.empty(min(step, frames) * 4 * bins)
    scratch, spectrum = np.split(work, 2)
    spectrum = spectrum.view(np.complex128).reshape(-1, bins)
    for first in range(0, frames, step):
        rows = min(step, frames - first)
        block = _frames(audio.read(first * hop, (first + rows - 1) * hop + n_fft), n_fft, hop)
        windowed = np.multiply(block, win, out=scratch[:block.size].reshape(block.shape))
        yield np.fft.rfft(windowed, axis=1, out=spectrum[:rows]), scratch
    # An open WAV converts, and so checks, the samples after the last frame too.
    audio.read(len(audio), len(audio))


def _magnitude_blocks(audio, n_fft: int, hop: int):
    """``amplitude(stft(w, n_fft, hop)).mags``, BLOCK_FRAMES rows at a time, for
    a Waveform or an open WAV.

    Checks its arguments at once, then returns an iterator of the blocks in
    frame order. Every block is a view of one buffer that the next block
    overwrites, so the caller may change it in place but must not keep it.
    """
    frame_count(len(audio), n_fft, hop)
    win = hann(n_fft)

    def blocks():
        for bins, scratch in _spectrum_blocks(audio, win, hop, BLOCK_FRAMES):
            yield np.abs(bins, out=scratch[:bins.size].reshape(bins.shape))
    return blocks()


def _fold_rows(total: Optional[np.ndarray], rows: np.ndarray) -> np.ndarray:
    """total + rows[0] + rows[1] + ... per column, added in row order; ``rows``
    is the caller's to overwrite.

    numpy reduces axis 0 of a C-contiguous matrix of two or more columns one
    row at a time, so adding ``total`` into the first row and summing gives
    the column sums of the blocks' concatenation bit for bit, with no copy.
    """
    if total is None:
        return rows.sum(axis=0)
    if not len(rows):
        return total
    rows[0] += total
    return rows.sum(axis=0)


def stft(w: Waveform, n_fft: int = 2048, hop: int = 512) -> ComplexSpectrogram:
    """Short-time Fourier transform without center padding.

    Frame t covers samples [t*hop, t*hop + n_fft), so every frame lies fully
    inside the signal and edge frames are directly comparable against
    time-domain processing of the same samples.
    """
    frame_count(len(w), n_fft, hop)
    bins = np.fft.rfft(_frames(w.samples, n_fft, hop) * hann(n_fft), axis=1)
    return ComplexSpectrogram(bins, n_fft, hop, w.sample_rate)


def istft(c: ComplexSpectrogram) -> Waveform:
    """Windowed overlap-add resynthesis of the whole matrix, divided by the
    summed squared window.

    Output length is (T-1)*hop + n_fft. Samples more than n_fft away from
    either end reconstruct the analyzed signal exactly; edge samples are
    renormalized by the partial window overlap, and set to 0 where that sum
    is at most 1e-11 of its largest.
    """
    win = _synthesis_window(c.n_fft, c.hop)
    rows = c.frames - 1 + -(-c.n_fft // c.hop)
    out, scale = np.zeros((rows, c.hop)), np.zeros((rows, c.hop))
    _overlap_add(out, np.fft.irfft(c.bins, n=c.n_fft, axis=1) * win, c.hop)
    _overlap_add(scale, np.broadcast_to(win * win, (c.frames, c.n_fft)), c.hop)
    valid = scale > 1e-11 * scale.max()
    np.divide(out, scale, out=out, where=valid)
    np.copyto(out, 0.0, where=~valid)
    return Waveform(out.ravel()[:(c.frames - 1) * c.hop + c.n_fft], c.sample_rate)


def apply_gains(w: Waveform, curves, n_fft: int = 2048, hop: int = 512) -> list:
    """Shape a waveform by each per-bin gain curve in the STFT domain.

    For each curve the result equals ``istft`` of ``stft`` of ``w`` padded
    with zeros (``shaped_blocks``: L = (ceil(n_fft / hop) - 1) * hop before
    it, and enough after it that the last sample gets every frame), its bins
    multiplied by the curve, samples [L, L + len(w)), bit for bit. The
    analysis runs once for all curves, and BLOCK_FRAMES frames at a time
    (``shaped_blocks``), so no whole spectrogram is ever held. Returns one
    waveform per curve. ``w`` may also be a ForwardReader.
    """
    curves = list(curves)
    outs = np.empty((len(curves), len(w)))
    done = 0
    for block in shaped_blocks(w, curves, n_fft, hop):
        outs[:, done:done + block.shape[1]] = block
        done += block.shape[1]
    return [Waveform(out, w.sample_rate) for out in outs]


class OverlapAdd:
    """Rolling overlap-add of frames of ``width`` samples, added ``hop`` samples
    apart, for ``channels`` signals at once, handed out as finished samples.

    ``add`` takes the next block of at most ``step`` frames of every channel.
    Frame t of a block adds to the output rows (hop samples each) t to
    t + ceil(width / hop) - 1 counted from the block's first frame only, so once
    a block is added, its first rows get no more terms: ``add`` returns them.
    The rows that later frames still reach move to the top before the next
    block, so the sums live in a buffer of step + ceil(width / hop) rows however
    many frames come. Every returned block, a (channels x samples) matrix, is a
    view of that buffer, which the next call overwrites, so the caller may
    change it in place but must not keep it.
    """

    def __init__(self, channels: int, width: int, hop: int, step: int):
        self.hop, self.span = hop, -(-width // hop)
        self._acc = np.zeros((channels, step + self.span, hop))
        self._done = 0  # rows handed out that still head the buffer

    def add(self, rows: int, frames) -> np.ndarray:
        """Add the next ``rows`` frames of each channel, given in channel order
        by the iterable ``frames`` (rows x width each, which the sink does not
        keep), and return the ``rows * hop`` samples they finish."""
        acc, done, span = self._acc, self._done, self.span
        if done:
            acc[:, :span - 1] = acc[:, done:done + span - 1]
            acc[:, span - 1:] = 0.0
        for sums, block in zip(acc, frames):
            _overlap_add(sums, block, self.hop)
        self._done = rows
        return acc[:, :rows].reshape(len(acc), rows * self.hop)


class _ZeroPadded:
    """``audio`` (a Waveform or a ForwardReader) behind ``lead`` zeros and
    ahead of ``trail`` zeros, read forward as ``audio`` is."""

    def __init__(self, audio, lead: int, trail: int):
        self.sample_rate, self._audio, self._lead = audio.sample_rate, audio, lead
        self._len = lead + len(audio) + trail

    def __len__(self) -> int:
        return self._len

    def read(self, start: int, stop: int) -> np.ndarray:
        """Samples [start, stop): ``audio``'s own range, or a copy padded with zeros."""
        size, start, stop = len(self._audio), start - self._lead, stop - self._lead
        lo, hi = min(max(start, 0), size), min(max(stop, 0), size)
        inner = self._audio.read(lo, hi)
        if (lo, hi) == (start, stop):
            return inner
        out = np.zeros(stop - start)
        out[lo - start:hi - start] = inner
        return out


def shaped_blocks(audio, curves, n_fft: int = 2048, hop: int = 512):
    """``apply_gains`` of a Waveform or a ForwardReader (an open WAV, a
    simulator source), as consecutive blocks of finished output samples.

    Checks its arguments at once, then returns an iterator of (curves x
    samples) matrices in order; joined along their columns, they are
    ``apply_gains``' outputs bit for bit. The frames lie on the grid of
    ``stft``'s, but run from ceil(n_fft / hop) - 1 hops before the first
    sample to past the last one, over zeros, so every output sample gets the
    whole window sum: a curve that is not flat then cannot swell the edges,
    where a lone frame's squared window would be the divisor. Each block of
    frames is shaped by every curve, inverted and windowed, and overlap-added
    by an ``OverlapAdd`` sink, which hands out the rows no later frame
    reaches; the sums, added block by block in frame order as the whole sums
    would be, live in a buffer of BLOCK_FRAMES + ceil(n_fft / hop) rows however
    long the input is, and each finished row is divided by the full window
    sum, computed once. Every block is a view of one buffer that the next
    block overwrites, so the caller must not keep it.
    """
    frame_count(len(audio), n_fft, hop)
    win = _synthesis_window(n_fft, hop)
    curves = [np.asarray(gains, dtype=np.float64) for gains in curves]
    for gains in curves:
        if gains.shape != (n_fft // 2 + 1,):
            raise ValueError(f"gain curve has shape {gains.shape}, n_fft={n_fft} "
                             f"needs ({n_fft // 2 + 1},)")
    # At least one frame per phase, so a block costs no more Python steps
    # than the frames it holds; the first block then outlasts the lead.
    span = -(-n_fft // hop)
    step = max(BLOCK_FRAMES, span)
    lead = (span - 1) * hop
    frames = (lead + len(audio) - 1) // hop + 1
    padded = _ZeroPadded(audio, lead, (frames - 1) * hop + n_fft - lead - len(audio))

    def blocks():
        # The frames run over zeros past both ends, so every sample handed out
        # lies under every frame that reaches it: all share the squared window
        # summed over its phases, last phase first, as frame order adds them. A
        # grid that overlap_add_invertible passes keeps that sum at 1e-2 of its
        # largest or more, above istft's floor (1e-11), so no sample is zeroed.
        sums = np.zeros((2 * span - 1, hop))
        _overlap_add(sums, np.broadcast_to(win * win, (span, n_fft)), hop)
        divisor = sums[span - 1]
        sink = OverlapAdd(len(curves), n_fft, hop, step)
        inverse = np.empty((step, n_fft))
        skip, left = lead, len(audio)
        for bins, scratch in _spectrum_blocks(padded, win, hop, step):
            rows = bins.shape[0]
            shaped = scratch[:2 * bins.size].view(np.complex128).reshape(bins.shape)

            def inverses():
                for gains in curves:
                    out = np.fft.irfft(np.multiply(bins, gains, out=shaped), n=n_fft,
                                       axis=1, out=inverse[:rows])
                    yield np.multiply(out, win, out=out)
            # The last frame's rows end within a hop past the input.
            finished = sink.add(rows, inverses()).reshape(len(curves), rows, hop)
            np.divide(finished, divisor, out=finished)
            block = finished.reshape(len(curves), rows * hop)[:, skip:skip + left]
            skip, left = 0, left - block.shape[1]
            yield block
    return blocks()


def amplitude(c: ComplexSpectrogram) -> AmplitudeSpectrogram:
    """Entry-wise modulus; metadata is carried over unchanged."""
    return AmplitudeSpectrogram(np.abs(c.bins), c.n_fft, c.hop, c.sample_rate)


def geometric_mean(values) -> float:
    """Geometric mean over all elements, computed in the log domain.

    Values below AMPLITUDE_FLOOR are clamped before the log. Uses numpy's
    pairwise summation, so the result is bit-stable for a fixed input ordering.
    """
    v = np.asarray(values, dtype=np.float64)
    if v.size == 0:
        raise ValueError("geometric mean of empty input")
    if not np.all(np.isfinite(v)) or np.any(v < 0):
        raise ValueError("values must be finite and non-negative")
    return float(np.exp(np.mean(np.log(np.maximum(v, AMPLITUDE_FLOOR)))))


def convolve(w: Waveform, taps, method: str = "auto") -> Waveform:
    """Full linear convolution of a waveform with a tap sequence.

    ``method`` selects "direct" multiply-accumulate or "fft" (one real FFT
    of both operands, zero-padded to ``fast_fft_len``); "auto" switches to
    FFT for large products. Both agree to within 1e-9 relative to the output
    peak.
    """
    taps = np.asarray(taps, dtype=np.float64)
    if taps.ndim != 1 or taps.size == 0:
        raise ValueError("taps must be a non-empty 1-D sequence")
    if not np.all(np.isfinite(taps)):
        raise ValueError("taps must be finite")
    if method == "auto":
        method = "fft" if w.samples.size * taps.size > 1_000_000 else "direct"
    if method == "direct":
        out = np.convolve(w.samples, taps, mode="full")
    elif method == "fft":
        if min(w.samples.size, taps.size) == 1:
            out = w.samples * taps  # a length-1 operand needs no transform
        else:
            n = w.samples.size + taps.size - 1
            size = fast_fft_len(n)
            out = np.fft.irfft(np.fft.rfft(w.samples, size) * np.fft.rfft(taps, size),
                               size)[:n]
    else:
        raise ValueError(f"unknown convolution method {method!r}")
    return Waveform(out, w.sample_rate)
