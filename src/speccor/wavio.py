"""Minimal RIFF/WAVE reader and writer for PCM16 and IEEE float32 audio."""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .dsp import Waveform

_PCM = 1
_IEEE_FLOAT = 3
_EXTENSIBLE = 0xFFFE


class AudioFileError(Exception):
    """Raised for malformed or unsupported WAV files."""


def read_wav(path) -> Waveform:
    """Read a mono or stereo WAV file as a normalized mono waveform.

    PCM16 samples are scaled by 1/32768; float32 samples pass through
    exactly. Stereo is downmixed by averaging the channels.
    """
    data = Path(path).read_bytes()
    if len(data) < 12 or data[:4] != b"RIFF" or data[8:12] != b"WAVE":
        raise AudioFileError(f"{path}: not a RIFF/WAVE file")

    fmt = None
    payload = None
    pos = 12
    while pos + 8 <= len(data):
        chunk_id = data[pos:pos + 4]
        (size,) = struct.unpack_from("<I", data, pos + 4)
        body = data[pos + 8:pos + 8 + size]
        if len(body) != size:
            raise AudioFileError(
                f"{path}: truncated file in chunk {chunk_id.decode('ascii', 'replace')!r}")
        if chunk_id == b"fmt ":
            fmt = body
        elif chunk_id == b"data":
            payload = body
        pos += 8 + size + (size & 1)  # chunks are word-aligned

    if fmt is None:
        raise AudioFileError(f"{path}: missing 'fmt ' chunk")
    if payload is None:
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
    if len(payload) % frame_bytes != 0:
        raise AudioFileError(f"{path}: truncated file in chunk 'data'")

    samples = np.frombuffer(payload, dtype=dtype).astype(np.float64) * scale
    if channels == 2:
        samples = samples.reshape(-1, 2).mean(axis=1)
    try:
        return Waveform(samples, sample_rate)
    except ValueError as exc:  # a zero sample rate or non-finite float samples
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
