"""Minimal RIFF/WAVE reader and writer for PCM16 and IEEE float32 audio."""

from __future__ import annotations

import contextlib
import struct
from typing import NamedTuple

import numpy as np

from . import files
from .dsp import ForwardReader, Waveform

_PCM = 1
_IEEE_FLOAT = 3
_EXTENSIBLE = 0xFFFE

# Most samples a mono float32 file from write_wav can hold: the RIFF size
# field (32 bits) counts 36 header bytes plus 4 bytes a sample.
MAX_FLOAT32_SAMPLES = (2**32 - 1 - 36) // 4

# 'data' bytes an open_wav stream reads, and checks, per system call: four
# 64-frame STFT blocks of mono float32 at hop 512, so most blocks are converted
# with no system call, and a stream holds less than read_wav's result for a
# 3 s file.
READ_CHUNK_BYTES = 1 << 19

# Samples a create_wav stream converts at a time into its one buffer: one
# 64-frame STFT block at hop 512, 128 KiB as float32.
WRITE_CHUNK_SAMPLES = 1 << 15


class AudioFileError(Exception):
    """Raised for malformed or unsupported WAV files."""


class WavInfo(NamedTuple):
    """What a WAV file's chunk headers say about its audio."""

    sample_rate: int
    channels: int
    samples: int  # per channel
    dtype: np.dtype
    scale: float
    data_offset: int


def _read_info(f, path) -> WavInfo:
    """Walk the chunk headers of an open WAV file; the audio itself is not read."""
    end = f.seek(0, 2)
    f.seek(0)
    head = f.read(12)
    if len(head) < 12 or head[:4] != b"RIFF" or head[8:12] != b"WAVE":
        raise AudioFileError(f"{path}: not a RIFF/WAVE file")

    fmt = None
    data = None
    pos = 12
    while pos + 8 <= end:
        f.seek(pos)
        chunk_id, size = struct.unpack("<4sI", f.read(8))
        if pos + 8 + size > end:
            raise AudioFileError(
                f"{path}: truncated file in chunk {chunk_id.decode('ascii', 'replace')!r}")
        if chunk_id == b"fmt ":
            fmt = f.read(size)
        elif chunk_id == b"data":
            data = (pos + 8, size)
        pos += 8 + size + (size & 1)  # chunks are word-aligned

    if fmt is None:
        raise AudioFileError(f"{path}: missing 'fmt ' chunk")
    if data is None:
        raise AudioFileError(f"{path}: missing 'data' chunk")
    if len(fmt) < 16:
        raise AudioFileError(f"{path}: truncated file in chunk 'fmt '")

    audio_format, channels, sample_rate, _, block_align, bits = \
        struct.unpack_from("<HHIIHH", fmt, 0)
    if audio_format == _EXTENSIBLE:
        if len(fmt) < 26:
            raise AudioFileError(f"{path}: truncated file in chunk 'fmt '")
        (audio_format,) = struct.unpack_from("<H", fmt, 24)  # first word of the subformat GUID

    if channels not in (1, 2):
        raise AudioFileError(f"{path}: unsupported channel count {channels} "
                             "(only mono or stereo)")
    if (audio_format, bits) == (_PCM, 16):
        dtype, scale = np.dtype("<i2"), 1.0 / 32768.0
    elif (audio_format, bits) == (_IEEE_FLOAT, 32):
        dtype, scale = np.dtype("<f4"), 1.0
    else:
        raise AudioFileError(
            f"{path}: unsupported encoding in 'fmt ' chunk: "
            f"format={audio_format}, bits={bits} (want PCM16 or float32)")

    frame_bytes = channels * dtype.itemsize
    if block_align not in (0, frame_bytes):
        raise AudioFileError(f"{path}: block alignment {block_align} inconsistent "
                             f"with {channels} channel(s) of {bits}-bit samples")
    if data[1] % frame_bytes != 0:
        raise AudioFileError(f"{path}: truncated file in chunk 'data'")
    if sample_rate == 0:
        raise AudioFileError(f"{path}: sample_rate must be positive, got 0")
    return WavInfo(sample_rate, channels, data[1] // frame_bytes, dtype, scale, data[0])


def read_wav_info(path) -> WavInfo:
    """A WAV file's format and length, checked as ``read_wav`` checks them,
    from its chunk headers alone."""
    with open(path, "rb") as f:
        return _read_info(f, path)


def _convert(raw, info: WavInfo, out: np.ndarray) -> None:
    """Convert whole sample frames of 'data' bytes to mono float64 samples in
    ``out``: PCM16 is scaled by 1/32768, float32 passes through exactly and
    stereo is the mean of its two channels. Every read, ``read_wav``'s too,
    goes through an open_wav stream and so through here."""
    x = np.frombuffer(raw, info.dtype)
    if info.channels == 1:
        np.copyto(out, x)
    else:
        np.add(x[0::2], x[1::2], out=out, dtype=np.float64)
    # The scales are powers of two, so (l + r) * scale / 2 in float64 has the
    # bits of the mean of the scaled channels.
    if info.channels * info.scale != 1.0:
        out *= info.scale / info.channels


class open_wav(ForwardReader):
    """Open a mono or stereo WAV file's audio as mono float64 samples, read
    forward in ranges (``ForwardReader.read``).

    The 'data' bytes are read READ_CHUNK_BYTES at a time into one buffer,
    where each chunk's samples are checked to be finite, and converted range
    by range into the reader's window, which keeps only the overlap with the
    previous range. So a stream holds about one read chunk plus its largest
    range, however long the file is.
    Bytes between two ranges are read and checked too: reading up to
    ``len(stream)`` finds any non-finite sample, as ``read_wav`` does. Use it
    as a context manager, ``with open_wav(path) as audio:``, named like the
    ``open`` it wraps; the file is closed on exit.
    """

    def __init__(self, path):
        super().__init__(path)
        self.path = path
        self._file = open(path, "rb")
        try:
            self._info = info = _read_info(self._file, path)
            self._file.seek(info.data_offset)
        except BaseException:
            self._file.close()
            raise
        self.sample_rate = info.sample_rate
        self._frame_bytes = info.channels * info.dtype.itemsize
        self._unread = info.samples * self._frame_bytes  # 'data' bytes not yet read
        chunk = READ_CHUNK_BYTES // self._frame_bytes * self._frame_bytes
        self._raw = bytearray(min(chunk, self._unread))
        self._raw_pos = self._raw_end = 0  # _raw[pos:end] is read, not yet converted

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def close(self) -> None:
        self._file.close()

    def __len__(self) -> int:
        return self._info.samples

    def _read_raw(self) -> None:
        """Read the next chunk of 'data' bytes and check that its samples are finite."""
        # Both sizes are whole sample frames; a buffered read returns less
        # only at the end of the file.
        want = min(len(self._raw), self._unread)
        raw = memoryview(self._raw)[:want]
        if self._file.readinto(raw) != want:
            raise AudioFileError(f"{self.path}: truncated file in chunk 'data'")
        if self._info.dtype.kind == "f" and not np.isfinite(
                np.frombuffer(raw, self._info.dtype)).all():
            raise AudioFileError(f"{self.path}: waveform samples must be finite")
        self._unread -= want
        self._raw_pos, self._raw_end = 0, want

    def _skip(self, samples: int) -> None:
        """Move past the next ``samples`` samples; their bytes are still read,
        so a non-finite one between two ranges is found."""
        skip = samples * self._frame_bytes
        while skip:
            if self._raw_pos == self._raw_end:
                self._read_raw()
            n = min(skip, self._raw_end - self._raw_pos)
            self._raw_pos, skip = self._raw_pos + n, skip - n

    def _fill(self, out: np.ndarray) -> None:
        """Convert the next ``out.size`` samples of the file into ``out``."""
        done = 0
        while done < out.size:
            if self._raw_pos == self._raw_end:
                self._read_raw()
            n = min(out.size - done, (self._raw_end - self._raw_pos) // self._frame_bytes)
            end = self._raw_pos + n * self._frame_bytes
            _convert(memoryview(self._raw)[self._raw_pos:end], self._info, out[done:done + n])
            self._raw_pos, done = end, done + n


def read_wav(path) -> Waveform:
    """Read a mono or stereo WAV file as a normalized mono waveform.

    PCM16 samples are scaled by 1/32768; float32 samples pass through
    exactly. Stereo is downmixed by averaging the channels. The 'data'
    chunk is read and converted as a stream reads it, one read chunk at a
    time, into the one float64 array returned.
    """
    with open_wav(path) as audio:
        return Waveform(audio.read(0, len(audio)), audio.sample_rate)


class create_wav:
    """Create a mono WAV file of ``samples`` samples and write its audio
    forward in blocks: the dual of ``open_wav``.

    The length is known, so the header goes first; ``write(block)`` appends
    the block's float64 samples, converted as ``write_wav`` converts them,
    WRITE_CHUNK_SAMPLES at a time through one reused buffer. ``path`` (which
    may be a file still being read) changes only when the context exits
    cleanly with exactly ``samples`` samples written (``files.staged``).
    Use: ``with create_wav(path, rate, n) as out: out.write(block)``.
    """

    def __init__(self, path, sample_rate: int, samples: int, encoding: str = "float32"):
        if encoding == "float32":
            audio_format, dtype = _IEEE_FLOAT, np.dtype("<f4")
        elif encoding == "pcm16":
            audio_format, dtype = _PCM, np.dtype("<i2")
        else:
            raise ValueError(f"encoding must be 'float32' or 'pcm16', got {encoding!r}")
        width = dtype.itemsize
        # The RIFF size field (32 bits) counts 36 header bytes and the payload.
        if not 0 <= samples <= (2**32 - 1 - 36) // width:
            raise ValueError(f"{path}: {samples} samples do not fit a {encoding} WAV file")
        if not 0 < sample_rate * width < 2**32:
            raise ValueError(f"{path}: sample rate {sample_rate} Hz does not fit a WAV header")
        payload = samples * width
        fmt = struct.pack("<HHIIHH", audio_format, 1, sample_rate, sample_rate * width,
                          width, 8 * width)
        header = b"RIFF" + struct.pack("<I", 36 + payload + (payload & 1)) + b"WAVE" \
            + b"fmt " + struct.pack("<I", len(fmt)) + fmt + b"data" + struct.pack("<I", payload)
        self.path, self.samples, self.encoding = path, samples, encoding
        self._buf = np.empty(min(max(samples, 1), WRITE_CHUNK_SAMPLES), dtype)
        self._written = 0
        with contextlib.ExitStack() as stack:  # on an error, the part is removed
            part = stack.enter_context(files.staged([path]))
            self._file = stack.enter_context(open(part(path), "wb"))
            self._file.write(header)
            self._stack = stack.pop_all()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, *exc):
        return self.close() if exc_type is None else self._stack.__exit__(exc_type, *exc)

    def write(self, block: np.ndarray) -> None:
        """Append the samples of the 1-D float64 array ``block``; a sample that
        is not finite, or that overflows float32, raises ValueError, since
        ``read_wav`` would reject the file."""
        if self._written + block.size > self.samples:
            raise ValueError(f"{self.path}: {self._written + block.size} samples written "
                             f"to a file of {self.samples}")
        for start in range(0, block.size, self._buf.size):
            part = block[start:start + self._buf.size]
            out = self._buf[:part.size]
            with np.errstate(over="ignore", invalid="ignore"):
                if out.dtype.kind == "f":
                    np.copyto(out, part)
                else:  # pcm16: round to the nearest step, clip at full scale
                    np.clip(np.rint(part * 32768.0), -32768, 32767, out=out,
                            casting="unsafe")
            if not np.isfinite(out if out.dtype.kind == "f" else part).all():
                raise ValueError(f"{self.path}: samples must be finite to be written as "
                                 f"{self.encoding}")
            self._file.write(out)
        self._written += block.size

    def close(self) -> None:
        """Finish and publish the file; one short of samples raises ValueError."""
        if self._file.closed:
            return
        with self._stack:
            if self._written != self.samples:
                raise ValueError(f"{self.path}: {self._written} samples written to a file "
                                 f"of {self.samples}")
            if self._written * self._buf.itemsize & 1:
                self._file.write(b"\x00")  # chunks are word-aligned


def write_wav(path, w: Waveform, encoding: str = "float32") -> None:
    """Write a mono WAV file: a ``create_wav`` stream fed once.

    float32 is bit-exact for round trips; pcm16 rounds to the nearest
    integer step and clips at full scale.
    """
    with create_wav(path, w.sample_rate, len(w), encoding) as out:
        out.write(w.samples)
