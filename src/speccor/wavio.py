"""Minimal RIFF/WAVE reader and writer for PCM16 and IEEE float32 audio."""

from __future__ import annotations

import struct
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .dsp import Waveform

_PCM = 1
_IEEE_FLOAT = 3
_EXTENSIBLE = 0xFFFE

# Most samples a mono float32 file from write_wav can hold: the RIFF size
# field (32 bits) counts 36 header bytes plus 4 bytes a sample.
MAX_FLOAT32_SAMPLES = (2**32 - 1 - 36) // 4


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


def read_wav(path) -> Waveform:
    """Read a mono or stereo WAV file as a normalized mono waveform.

    PCM16 samples are scaled by 1/32768; float32 samples pass through
    exactly. Stereo is downmixed by averaging the channels. Only the 'data'
    chunk's bytes are read, and they are converted and scaled in one float64
    array.
    """
    with open(path, "rb") as f:
        info = _read_info(f, path)
        f.seek(info.data_offset)
        # The bytes read are dropped once converted.
        samples = np.frombuffer(f.read(info.samples * info.channels * info.dtype.itemsize),
                                dtype=info.dtype).astype(np.float64)
    samples *= info.scale
    if info.channels == 2:
        samples = samples.reshape(-1, 2).mean(axis=1)
    try:
        return Waveform(samples, info.sample_rate)
    except ValueError as exc:  # non-finite float samples
        raise AudioFileError(f"{path}: {exc}") from None


def write_wav(path, w: Waveform, encoding: str = "float32") -> None:
    """Write a mono WAV file.

    float32 is bit-exact for round trips; pcm16 rounds to the nearest
    integer step and clips at full scale.
    """
    if encoding == "float32":
        audio_format, bits = _IEEE_FLOAT, 32
        payload = w.samples.astype("<f4").tobytes()
    elif encoding == "pcm16":
        audio_format, bits = _PCM, 16
        ints = np.clip(np.rint(w.samples * 32768.0), -32768, 32767)
        payload = ints.astype("<i2").tobytes()
    else:
        raise ValueError(f"encoding must be 'float32' or 'pcm16', got {encoding!r}")

    block_align = bits // 8
    fmt = struct.pack("<HHIIHH", audio_format, 1, w.sample_rate,
                      w.sample_rate * block_align, block_align, bits)
    body = b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt \
        + b"data" + struct.pack("<I", len(payload)) + payload
    if len(payload) & 1:
        body += b"\x00"
    Path(path).write_bytes(b"RIFF" + struct.pack("<I", len(body)) + body)
