"""Line-based file formats: manifests, correction coefficients, FIR filters, feature tensors, and simulator ground-truth responses.

Floating-point values are written with 17 significant digits, which
round-trips 64-bit floats losslessly, so write -> read -> write is
byte-identical.
"""

from __future__ import annotations

import csv
import functools
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .correction import CorrectionCoefficients
from .features import FeatureTensor
from .fir import FirFilter

COEFFS_MAGIC = "speccor-coefficients-v1"
FILTER_MAGIC = "speccor-filter-v1"
FEATURES_MAGIC = "speccor-features-v1"
RESPONSES_MAGIC = "speccor-responses-v1"
MANIFEST_COLUMNS = ("path", "device", "group")


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _check_token(value: str, what: str) -> str:
    if not value or any(ch.isspace() for ch in value):
        raise ValueError(f"{what} must be a non-empty token without whitespace, "
                         f"got {value!r}")
    return value


def _names_file(read):
    """Prefix every ValueError a reader raises with the path it was reading."""
    @functools.wraps(read)
    def wrapper(path):
        try:
            return read(path)
        except (ValueError, csv.Error) as exc:
            raise ValueError(f"{path}: {exc}") from exc
    return wrapper


def _count(value: str, key: str) -> int:
    count = int(value)
    if count < 0:
        raise ValueError(f"field {key!r} must not be negative, got {count}")
    return count


class _LineReader:
    def __init__(self, path, magic: str):
        self.lines = iter(Path(path).read_text().splitlines())
        if self.next() != magic:
            raise ValueError(f"expected header {magic!r}")

    def next(self) -> str:
        line = next(self.lines, None)
        if line is None:
            raise ValueError("unexpected end of file")
        return line

    def field(self, key: str) -> str:
        line = self.next()
        name, _, value = line.partition(" ")
        if name != key or not value:
            raise ValueError(f"expected field {key!r}, got {line!r}")
        return value

    def floats(self, count: int) -> np.ndarray:
        values = [float(self.next()) for _ in range(count)]
        return np.asarray(values, dtype=np.float64)


# -- manifests ---------------------------------------------------------------

@dataclass(frozen=True)
class ManifestRow:
    path: str
    device: str
    group: Optional[str] = None


def write_manifest(path, rows: Sequence[ManifestRow]) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle, delimiter="\t", lineterminator="\n")
        writer.writerow(MANIFEST_COLUMNS)
        for row in rows:
            writer.writerow([row.path, row.device, row.group or ""])


@_names_file
def read_manifest(path) -> list:
    with open(path, newline="") as handle:
        reader = csv.reader(handle, delimiter="\t")
        header = next(reader, None)
        if header is None:
            raise ValueError("empty manifest")
        if tuple(header) != MANIFEST_COLUMNS:
            raise ValueError(f"manifest header must be "
                             f"{' / '.join(MANIFEST_COLUMNS)}, got {header}")
        rows = []
        for lineno, record in enumerate(reader, start=2):
            if not record:
                continue
            if len(record) != 3:
                raise ValueError(f"line {lineno}: expected 3 columns, got {len(record)}")
            rows.append(ManifestRow(record[0], record[1], record[2] or None))

    seen = set()
    group_devices: dict = {}
    for row in rows:
        if row.path in seen:
            raise ValueError(f"duplicate path {row.path!r}")
        seen.add(row.path)
        if not row.device:
            raise ValueError(f"empty device for {row.path!r}")
        if row.group:
            group_devices.setdefault(row.group, set()).add(row.device)
    for group, devices in group_devices.items():
        if len(devices) < 2:
            raise ValueError(f"group {group!r} must span at least two devices")
    if not rows:
        raise ValueError("empty manifest")
    return rows


# -- correction coefficients --------------------------------------------------

def write_coefficients(path, c: CorrectionCoefficients) -> None:
    lines = [
        COEFFS_MAGIC,
        f"estimator {_check_token(c.estimator, 'estimator')}",
        f"source_device {_check_token(c.source_device, 'source_device')}",
        f"reference_device {_check_token(c.reference_device, 'reference_device')}",
        f"sample_rate {c.sample_rate}",
        f"n_fft {c.n_fft}",
        f"num_recordings {c.num_recordings}",
        f"gains {c.gains.size}",
    ]
    lines.extend(_fmt(g) for g in c.gains)
    Path(path).write_text("\n".join(lines) + "\n")


@_names_file
def read_coefficients(path) -> CorrectionCoefficients:
    reader = _LineReader(path, COEFFS_MAGIC)
    estimator = reader.field("estimator")
    source = reader.field("source_device")
    reference = reader.field("reference_device")
    sample_rate = int(reader.field("sample_rate"))
    n_fft = int(reader.field("n_fft"))
    num_recordings = int(reader.field("num_recordings"))
    gains = reader.floats(_count(reader.field("gains"), "gains"))
    return CorrectionCoefficients(gains, n_fft, sample_rate, source, reference,
                                  num_recordings, estimator)


# -- FIR filters ---------------------------------------------------------------

def write_filter(path, fir: FirFilter) -> None:
    lines = [
        FILTER_MAGIC,
        f"sample_rate {fir.sample_rate}",
        f"num_taps {fir.num_taps}",
        f"group_delay {fir.group_delay}",
        f"target_bins {fir.target_bins}",
        f"taps {fir.num_taps}",
    ]
    lines.extend(_fmt(t) for t in fir.taps)
    Path(path).write_text("\n".join(lines) + "\n")


@_names_file
def read_filter(path) -> FirFilter:
    reader = _LineReader(path, FILTER_MAGIC)
    sample_rate = int(reader.field("sample_rate"))
    num_taps = int(reader.field("num_taps"))
    group_delay = int(reader.field("group_delay"))
    target_bins = int(reader.field("target_bins"))
    count = _count(reader.field("taps"), "taps")
    if count != num_taps:
        raise ValueError(f"tap count {count} disagrees with num_taps {num_taps}")
    taps = reader.floats(count)
    fir = FirFilter(taps, sample_rate, target_bins)
    if fir.group_delay != group_delay:
        raise ValueError(f"group_delay {group_delay} disagrees with "
                         f"tap length {num_taps}")
    return fir


# -- feature tensors -----------------------------------------------------------

def write_features(path, feat: FeatureTensor) -> None:
    header = "\n".join([
        FEATURES_MAGIC,
        f"frames {feat.frames}",
        f"mels {feat.n_mels}",
        f"normalization {feat.normalization}",
        f"stats_id {feat.stats_id or '-'}",
        f"correction {feat.correction}",
        "dtype float64-le",
        "",
    ])
    with open(path, "wb") as handle:
        handle.write(header.encode("ascii"))
        handle.write(feat.values.astype("<f8").tobytes())


@_names_file
def read_features(path) -> FeatureTensor:
    data = Path(path).read_bytes()
    try:
        split = data.index(b"dtype float64-le\n") + len(b"dtype float64-le\n")
    except ValueError:
        raise ValueError("missing dtype header line") from None
    header = data[:split].decode("ascii").splitlines()
    if header[0] != FEATURES_MAGIC:
        raise ValueError(f"expected header {FEATURES_MAGIC!r}")
    fields = {}
    for line in header[1:-1]:
        name, sep, value = line.partition(" ")
        if not sep:
            raise ValueError(f"header field {name!r} has no value")
        fields[name] = value
    for name in ("frames", "mels", "normalization", "stats_id"):
        if name not in fields:
            raise ValueError(f"header lacks field {name!r}")
    frames = _count(fields["frames"], "frames")
    mels = _count(fields["mels"], "mels")
    payload = data[split:]
    if len(payload) != frames * mels * 8:
        raise ValueError(f"payload holds {len(payload)} bytes, "
                         f"expected {frames * mels * 8}")
    values = np.frombuffer(payload, dtype="<f8").reshape(frames, mels)
    stats_id = fields["stats_id"]
    return FeatureTensor(values, fields["normalization"],
                         "" if stats_id == "-" else stats_id,
                         fields.get("correction", "none"))


# -- simulator ground truth ------------------------------------------------------

def write_responses(path, sample_rate: int, n_fft: int,
                    devices: dict, environments: Optional[dict] = None) -> None:
    """Persist named per-bin gain curves (device and environment truth)."""
    environments = environments or {}
    lines = [
        RESPONSES_MAGIC,
        f"sample_rate {sample_rate}",
        f"n_fft {n_fft}",
        f"devices {len(devices)}",
    ]
    for name, gains in devices.items():
        lines.append(f"device {_check_token(name, 'device id')} {len(gains)}")
        lines.extend(_fmt(g) for g in gains)
    lines.append(f"environments {len(environments)}")
    for name, gains in environments.items():
        lines.append(f"environment {_check_token(name, 'scene id')} {len(gains)}")
        lines.extend(_fmt(g) for g in gains)
    Path(path).write_text("\n".join(lines) + "\n")


@_names_file
def read_responses(path):
    """Read ground-truth curves; returns (sample_rate, n_fft, devices, environments)."""
    reader = _LineReader(path, RESPONSES_MAGIC)
    sample_rate = int(reader.field("sample_rate"))
    n_fft = int(reader.field("n_fft"))
    bins = n_fft // 2 + 1

    def read_block(kind: str) -> dict:
        out = {}
        for _ in range(_count(reader.field(f"{kind}s"), f"{kind}s")):
            line = reader.next()
            fields = line.split(" ")
            if len(fields) != 3 or fields[0] != kind or not fields[2].isdecimal():
                raise ValueError(f"expected a '{kind} <name> <bins>' entry, got {line!r}")
            _, name, length = fields
            if int(length) != bins:
                raise ValueError(f"{kind} {name!r} has {length} gains, n_fft {n_fft} needs {bins}")
            out[name] = reader.floats(bins)
        return out

    return sample_rate, n_fft, read_block("device"), read_block("environment")
