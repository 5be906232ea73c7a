"""Line-based file formats (manifests, coefficients, filters, feature tensors, simulator ground truth) and the commit of a run's outputs.

Floating-point values are written with 17 significant digits, which
round-trips 64-bit floats losslessly, so write -> read -> write is
byte-identical.
"""

from __future__ import annotations

import contextlib
import csv
import errno
import functools
import os
import reprlib
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

if TYPE_CHECKING:  # imported where they are built, so a reader of one format loads no other
    from .correction import CorrectionCoefficients
    from .features import FeatureTensor
    from .fir import FirFilter

COEFFS_MAGIC = "speccor-coefficients-v1"
FILTER_MAGIC = "speccor-filter-v1"
FEATURES_MAGIC = "speccor-features-v1"
RESPONSES_MAGIC = "speccor-responses-v1"
MANIFEST_COLUMNS = ("path", "device", "group")

# Each format's header fields in file order, walked by its writer and its
# reader; every value is a token (``_check_token``) on write and on read. A
# ``.coeffs``/``.filt`` field pairs the attribute its value comes from with its
# type, and a ``gains``/``taps`` count and that many floats follow the header.
# A ``.feat`` header is followed by ``_DTYPE_LINE`` and the raw rows.
COEFFS_FIELDS = (("estimator", str), ("source_device", str), ("reference_device", str),
                 ("sample_rate", int), ("n_fft", int), ("num_recordings", int))
FILTER_FIELDS = (("sample_rate", int), ("num_taps", int), ("group_delay", int),
                 ("target_bins", int))
FEATURE_FIELDS = ("frames", "mels", "normalization", "stats_id", "correction")
_DTYPE_LINE = "dtype float64-le"
# The curve kinds of responses.txt in file order, and what their names are.
_RESPONSE_KINDS = (("device", "device id"), ("environment", "scene id"))


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _check_token(value: str, what: str) -> str:
    if not value or not value.isascii() or any(ch.isspace() for ch in value):
        raise ValueError(f"{what} must be a non-empty ASCII token without whitespace, "
                         f"got {value!r}")
    return value


def parse_int(value: str, what: str, signed: bool = False) -> int:
    """``value`` as an int, written as ``str`` writes it (no '+', '_', space,
    leading zero or non-ASCII digit, nor more digits than ``int`` converts)
    and, unless ``signed``, not negative."""
    try:
        number = int(value) if value.isascii() and value.removeprefix("-").isdigit() else None
    except ValueError:  # past sys.get_int_max_str_digits()
        number = None
    if number is None or str(number) != value:
        raise ValueError(f"{what} must be a decimal integer, got {reprlib.repr(value)}")
    if number < 0 and not signed:
        raise ValueError(f"{what} must not be negative, got {number}")
    return number


def _names_file(read):
    """Prefix every ValueError a reader raises with the path it was reading."""
    @functools.wraps(read)
    def wrapper(path):
        try:
            return read(path)
        except (ValueError, csv.Error) as exc:
            raise ValueError(f"{path}: {exc}") from exc
    return wrapper


def _field_line(name: str, value) -> str:
    return f"{name} {_check_token(str(value), name)}"


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

    def field(self, key: str, kind=str):
        line = self.next()
        name, _, value = line.partition(" ")
        if name != key or not value:
            raise ValueError(f"expected field {key!r}, got {line!r}")
        _check_token(value, key)
        return parse_int(value, f"field {key!r}", signed=True) if kind is int else value

    def floats(self, count: int) -> np.ndarray:
        values = [float(self.next()) for _ in range(count)]
        return np.asarray(values, dtype=np.float64)


def _write_text(path, magic: str, fields, source, key: str) -> None:
    """Write ``magic``, a line per header field with ``source``'s attribute of
    that name, then a ``key count`` line and one line per float of ``source.key``."""
    floats = getattr(source, key)
    lines = [magic, *(_field_line(name, getattr(source, name)) for name, _ in fields),
             f"{key} {len(floats)}", *map(_fmt, floats)]
    with staged([path]) as part, open(part(path), "w") as handle:
        handle.write("\n".join(lines) + "\n")


def _read_text(path, magic: str, fields, key: str) -> tuple:
    """A ``_write_text`` file's header fields by name, its float count, and a
    reader at its first float."""
    reader = _LineReader(path, magic)
    values = {name: reader.field(name, kind) for name, kind in fields}
    return values, parse_int(reader.field(key), f"field {key!r}"), reader


# -- a run's outputs -----------------------------------------------------------

class _Part(type(Path())):
    """A name ``staged`` hands out; staging it again writes it in place."""


@contextlib.contextmanager
def staged(paths):
    """Yield ``part``: ``part(path)``, made once per path, is ``<path>.part``,
    the name to write each of ``paths`` under (a part staged again is its own
    part). A clean exit renames the parts to their paths in the order of
    ``paths``; an exception removes them, so each path keeps what it held, and
    makes an OSError on a part name its path. A directory path is refused."""
    paths = list(paths)
    for path in filter(os.path.isdir, paths):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
    own = {str(_Part(f"{path}.part")): str(path) for path in paths if not isinstance(path, _Part)}
    try:
        yield functools.cache(lambda p: p if isinstance(p, _Part) else _Part(f"{p}.part"))
        for part, path in own.items():
            os.replace(part, path)
    except BaseException as error:
        for part in own:
            Path(part).unlink(missing_ok=True)
        if isinstance(error, OSError) and error.filename in own:
            error.filename = own[error.filename]
        raise


# -- manifests ---------------------------------------------------------------

@dataclass(frozen=True)
class ManifestRow:
    path: str
    device: str
    group: Optional[str] = None


def write_manifest(path, rows: Sequence[ManifestRow]) -> None:
    with staged([path]) as part, open(part(path), "w", newline="") as handle:
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
        rows, names, group_devices = [], set(), {}
        for lineno, record in enumerate(reader, start=2):
            if not record:
                continue
            if len(record) != 3:
                raise ValueError(f"line {lineno}: expected 3 columns, got {len(record)}")
            name, device, group = record
            if not name:
                raise ValueError(f"line {lineno}: empty path")
            _check_token(device, f"line {lineno}: device of {name!r}")
            if name in names:
                raise ValueError(f"line {lineno}: duplicate path {name!r}")
            names.add(name)
            if group:
                group_devices.setdefault(group, set()).add(device)
            rows.append(ManifestRow(name, device, group or None))
    for group, devices in group_devices.items():
        if len(devices) < 2:
            raise ValueError(f"group {group!r} must span at least two devices")
    if not rows:
        raise ValueError("empty manifest")
    return rows


# -- correction coefficients --------------------------------------------------

def write_coefficients(path, c: CorrectionCoefficients) -> None:
    _write_text(path, COEFFS_MAGIC, COEFFS_FIELDS, c, "gains")


@_names_file
def read_coefficients(path) -> CorrectionCoefficients:
    from .correction import CorrectionCoefficients

    fields, count, reader = _read_text(path, COEFFS_MAGIC, COEFFS_FIELDS, "gains")
    return CorrectionCoefficients(reader.floats(count), **fields)


# -- FIR filters ---------------------------------------------------------------

def write_filter(path, fir: FirFilter) -> None:
    _write_text(path, FILTER_MAGIC, FILTER_FIELDS, fir, "taps")


@_names_file
def read_filter(path) -> FirFilter:
    from .fir import FirFilter

    fields, count, reader = _read_text(path, FILTER_MAGIC, FILTER_FIELDS, "taps")
    if count != fields["num_taps"]:
        raise ValueError(f"tap count {count} disagrees with num_taps {fields['num_taps']}")
    fir = FirFilter(reader.floats(count), fields["sample_rate"], fields["target_bins"])
    if fir.group_delay != fields["group_delay"]:
        raise ValueError(f"group_delay {fields['group_delay']} disagrees with tap length {count}")
    return fir


# -- feature tensors -----------------------------------------------------------

def write_features(path, feat: FeatureTensor) -> None:
    write_feature_blocks(path, feat.values.shape, [feat.values], feat.normalization,
                         feat.stats_id, feat.correction)


def write_feature_blocks(path, shape: tuple, blocks, normalization: str = "raw",
                         stats_id: str = "", correction: str = "none") -> int:
    """``write_features`` for a (frames x mels) tensor given as its consecutive
    row blocks, so it is never held whole; returns the byte offset of the
    payload (``read_feature_rows``). A header value that is not a token, or a
    ``stats_id`` of "-", raises ValueError before the file is opened. Blocks
    that do not fill ``shape`` exactly raise ValueError. The file is written
    through ``staged``, so on any error ``path`` keeps what it held."""
    frames, mels = shape
    if stats_id == "-":
        raise ValueError("stats_id '-' is reserved: it stands for an empty stats_id")
    values = (frames, mels, normalization, stats_id or "-", correction)
    header = "\n".join([FEATURES_MAGIC, *map(_field_line, FEATURE_FIELDS, values),
                        _DTYPE_LINE, ""]).encode("ascii")
    with staged([path]) as part, open(part(path), "wb") as handle:
        handle.write(header)
        written = 0
        for block in blocks:
            if block.shape[1:] != (mels,) or written + len(block) > frames:
                raise ValueError(f"{path}: block of shape {block.shape} does not fit "
                                 f"rows {written}.. of a {frames} x {mels} tensor")
            handle.write(np.ascontiguousarray(block, "<f8"))
            written += len(block)
        if written != frames:
            raise ValueError(f"{path}: blocks hold {written} of {frames} rows")
    return len(header)


def _feature_rows_io(path, offset: int, rows: np.ndarray, first: int, flags: int, io) -> None:
    """Run ``io`` (``os.preadv`` or ``os.pwritev``) on the bytes of ``rows``, at
    rows ``first`` on of the payload of ``path``, which starts at ``offset``."""
    if rows.ndim != 2 or rows.dtype != np.dtype("<f8") or not rows.flags.c_contiguous:
        raise ValueError(f"expected a C-contiguous float64 matrix, got {rows.dtype} {rows.shape}")
    view, pos = memoryview(rows).cast("B"), offset + first * rows.shape[1] * 8
    fd = os.open(path, flags)
    try:
        if pos + view.nbytes > os.fstat(fd).st_size:
            raise ValueError(f"{path}: payload ends before row {first + len(rows)}")
        while view:
            done = io(fd, [view], pos)
            view, pos = view[done:], pos + done
    finally:
        os.close(fd)


def read_feature_rows(path, offset: int, out: np.ndarray, first: int = 0) -> np.ndarray:
    """Read rows ``first`` on of the feature file ``path``, whose payload starts
    at byte ``offset``, into the C-contiguous float64 matrix ``out``; return it."""
    _feature_rows_io(path, offset, out, first, os.O_RDONLY, os.preadv)
    return out


def overwrite_feature_rows(path, offset: int, rows: np.ndarray, first: int = 0) -> None:
    """Write ``rows`` over the rows that ``read_feature_rows`` would read into
    them, in place: the file keeps its header and length."""
    _feature_rows_io(path, offset, rows, first, os.O_WRONLY, os.pwritev)


@_names_file
def read_features(path) -> FeatureTensor:
    from .features import FeatureTensor

    data, dtype = Path(path).read_bytes(), f"{_DTYPE_LINE}\n".encode("ascii")
    if dtype not in data:
        raise ValueError("missing dtype header line")
    split = data.index(dtype) + len(dtype)
    header = data[:split].decode("utf-8", "replace").splitlines()
    if header[0] != FEATURES_MAGIC:
        raise ValueError(f"expected header {FEATURES_MAGIC!r}")
    fields = {}
    for line in header[1:-1]:
        name, sep, value = line.partition(" ")
        if name not in FEATURE_FIELDS or name in fields:
            raise ValueError(f"{'repeated' if name in fields else 'unknown'} header field {name!r}")
        if not sep:
            raise ValueError(f"header field {name!r} has no value")
        fields[name] = _check_token(value, name)
    fields.setdefault("correction", "none")
    for name in FEATURE_FIELDS:
        if name not in fields:
            raise ValueError(f"header lacks field {name!r}")
    frames, mels = (parse_int(fields[name], f"field {name!r}") for name in FEATURE_FIELDS[:2])
    payload = data[split:]
    if len(payload) != frames * mels * 8:
        raise ValueError(f"payload holds {len(payload)} bytes, "
                         f"expected {frames * mels * 8}")
    values = np.frombuffer(payload, dtype="<f8").reshape(frames, mels)
    stats_id = fields["stats_id"]
    return FeatureTensor(values, fields["normalization"],
                         "" if stats_id == "-" else stats_id, fields["correction"])


# -- simulator ground truth ------------------------------------------------------

def write_responses(path, sample_rate: int, n_fft: int,
                    devices: dict, environments: Optional[dict] = None) -> None:
    """Persist named per-bin gain curves (device and environment truth)."""
    curves = {"device": devices, "environment": environments or {}}
    lines = [RESPONSES_MAGIC, _field_line("sample_rate", sample_rate), _field_line("n_fft", n_fft)]
    for kind, what in _RESPONSE_KINDS:
        lines.append(f"{kind}s {len(curves[kind])}")
        for name, gains in curves[kind].items():
            lines.append(f"{kind} {_check_token(name, what)} {len(gains)}")
            lines.extend(map(_fmt, gains))
    with staged([path]) as part, open(part(path), "w") as handle:
        handle.write("\n".join(lines) + "\n")


@_names_file
def read_responses(path):
    """Read ground-truth curves; returns (sample_rate, n_fft, devices, environments)."""
    reader = _LineReader(path, RESPONSES_MAGIC)
    sample_rate, n_fft = reader.field("sample_rate", int), reader.field("n_fft", int)
    bins = n_fft // 2 + 1

    def read_block(kind: str, what: str) -> dict:
        out = {}
        for _ in range(parse_int(reader.field(f"{kind}s"), f"field '{kind}s'")):
            line = reader.next()
            fields = line.split(" ")
            if len(fields) != 3 or fields[0] != kind or not fields[2].isdecimal():
                raise ValueError(f"expected a '{kind} <name> <bins>' entry, got {line!r}")
            _, name, length = fields
            if parse_int(length, f"{kind} {name!r} gain count") != bins:
                raise ValueError(f"{kind} {name!r} has {length} gains, n_fft {n_fft} needs {bins}")
            gains = out[_check_token(name, what)] = reader.floats(bins)
            if not np.all((gains > 0) & (gains < np.inf)):
                raise ValueError(f"{kind} {name!r} gains must be finite and > 0")
        return out

    return (sample_rate, n_fft, *(read_block(kind, what) for kind, what in _RESPONSE_KINDS))
