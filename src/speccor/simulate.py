"""Synthetic recording-device oracle: known smooth gain curves applied to generated sources, with aligned or unaligned dataset construction."""

from __future__ import annotations

import configparser
from dataclasses import dataclass, fields
from functools import cached_property
from numbers import Integral, Real
from pathlib import Path
from typing import Optional

import numpy as np

from . import dsp, files
from .correction import RecordingSet
from .dsp import DB_PER_NAT, Waveform
from .wavio import MAX_FLOAT32_SAMPLES

SOURCES = ("white", "pink", "speechlike-modulated")

RESPONSE_BOUND_DB = 40.0
# Largest natural-log gain step between adjacent bins a response may have.
MAX_LOG_STEP = 0.1
# Recording ids number a dataset's recordings with four digits (g0000, a_0000).
MAX_RECORDINGS = 10000


@dataclass(frozen=True)
class Response:
    """Ground-truth per-bin linear gain curve of a simulated device or environment."""

    gains: np.ndarray
    name: str
    n_fft: int
    sample_rate: int

    def __post_init__(self):
        object.__setattr__(self, "sample_rate", dsp.check_grid(self.n_fft, None, self.sample_rate))
        what = f"response {self.name!r}"
        gains = dsp.check_bins(f"{what} gains", self.gains, self.n_fft)
        bound = 10.0 ** (RESPONSE_BOUND_DB / 20.0)
        if not np.all(np.isfinite(gains)) or np.any(gains <= 0):
            raise ValueError(f"{what} gains must be finite and positive")
        if np.any(gains > bound * (1 + 1e-9)) or np.any(gains < (1 - 1e-9) / bound):
            raise ValueError(f"{what} gains must stay within +/-{RESPONSE_BOUND_DB} dB")
        steps = np.abs(np.diff(np.log(gains)))
        if steps.max() > MAX_LOG_STEP * (1 + 1e-9):
            raise ValueError(
                f"{what} is not smooth: adjacent-bin log-gain step {steps.max():.4f} "
                f"exceeds {MAX_LOG_STEP}")
        object.__setattr__(self, "gains", gains)

    # Read-only names of the response in its device or environment role.
    device_id = scene_id = property(lambda self: self.name)


DeviceResponse = EnvironmentResponse = Response


def _require(ok: bool, field: str, value, need: str) -> None:
    """Raise a ValueError that starts with the field's name unless ok."""
    if not ok:
        raise ValueError(f"{field}: must be {need}, got {value!r}")


def check_grid(seed, sample_rate, n_fft, hop, duration) -> int:
    """Check the fields that fix a dataset's random draws, length and STFT grid
    (``dsp.check_grid``), as ``SimConfig`` does, and return the sample rate as
    ``int``; responses can be drawn from them then. A recording must hold one
    frame, so n_fft is bounded before the window of the hop check is built."""
    _require(isinstance(seed, Integral) and seed >= 0, "seed", seed, "an integer >= 0")
    sample_rate = dsp.check_grid(n_fft, hop, sample_rate)
    _require(isinstance(duration, Real) and np.isfinite(duration) and duration > 0,
             "duration", duration, "finite and > 0")
    if duration * sample_rate < n_fft:
        raise ValueError(f"duration: {duration} s at {sample_rate} Hz is shorter than one "
                         f"analysis frame (n_fft={n_fft})")
    if duration * sample_rate > MAX_FLOAT32_SAMPLES:
        raise ValueError(f"duration: {duration} s at {sample_rate} Hz is more than the "
                         f"{MAX_FLOAT32_SAMPLES} samples a float32 WAV file can hold")
    _require(dsp.overlap_add_invertible(dsp.hann(n_fft), hop), "hop", hop,
             f"a hop in 1..{n_fft} whose Hann overlap-add inverts stably")
    return sample_rate


@dataclass(frozen=True)
class SimConfig:
    """Everything that determines a synthetic dataset; the seed fixes all outputs.

    Every field is checked on construction; each error starts with the name
    of the field at fault.
    """

    seed: int
    num_recordings: int
    duration: float
    source: str
    aligned: bool
    devices: tuple
    environments: tuple = ()
    sample_rate: int = 44100
    n_fft: int = 2048
    hop: int = 512

    def __post_init__(self):
        object.__setattr__(self, "devices", tuple(self.devices))
        object.__setattr__(self, "environments", tuple(self.environments))
        object.__setattr__(self, "sample_rate", check_grid(
            self.seed, self.sample_rate, self.n_fft, self.hop, self.duration))
        _require(self.source in SOURCES, "source", self.source, f"one of {SOURCES}")
        _require(isinstance(self.num_recordings, Integral)
                 and 1 <= self.num_recordings <= MAX_RECORDINGS, "num_recordings",
                 self.num_recordings, f"an integer in 1..{MAX_RECORDINGS}")
        if not self.devices:
            raise ValueError("devices: at least one device response is required")
        ids = [d.name for d in self.devices]
        if len(set(ids)) != len(ids):
            raise ValueError(f"devices: duplicate device names: {ids}")
        for name in ids:
            # Device names become file stems (g0000_<name>.wav) and ASCII manifest labels.
            if "/" in name or "\0" in name or not name.isascii():
                raise ValueError(f"devices: device {name!r} is not a plain ASCII file stem")
        for field in ("devices", "environments"):
            for resp in getattr(self, field):
                with files.named(field):
                    dsp.check_match(("n_fft", "sample_rate"), ("dataset", self),
                                    (f"response {resp.name!r}", resp))
        if self.aligned and len(self.devices) < 2:
            # read_manifest rejects a group of one device, so no corpus could be read.
            raise ValueError(f"devices: an aligned dataset needs at least two devices, "
                             f"got {len(self.devices)}")


# Every [sim] key of a config file and its default; a key is read as its
# default's type, and hop's default is n_fft // 4.
CONFIG_DEFAULTS = {"seed": 0, "sample_rate": 44100, "n_fft": 2048, "hop": 512,
                   "num_recordings": 4, "duration": 3.0, "response_db": 20.0,
                   "environments": 0, "environment_db": 6.0, "aligned": True,
                   "devices": "a b", "source": "white"}


def _read_sim_section(path) -> configparser.SectionProxy:
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(Path(path).read_text(), source=str(path))
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from None
    except configparser.MissingSectionHeaderError as exc:
        raise ValueError(f"{path}: [sim]: line {exc.lineno} {exc.line.strip()!r} comes "
                         "before any section header") from None
    except configparser.DuplicateSectionError as exc:
        raise ValueError(f"{path}: [{exc.section}]: section repeated at line "
                         f"{exc.lineno}") from None
    except configparser.DuplicateOptionError as exc:
        raise ValueError(f"{path}: [{exc.section}] {exc.option}: set again at line "
                         f"{exc.lineno}") from None
    except configparser.ParsingError as exc:
        raise ValueError(f"{path}: line {exc.errors[0][0]}: expected 'key = value' or "
                         "a [section] header") from None
    if not parser.has_section("sim"):
        raise ValueError(f"{path}: config needs a [sim] section")
    return parser["sim"]


def read_config(path) -> SimConfig:
    """The SimConfig of a config file's [sim] section (keys: CONFIG_DEFAULTS), with
    ``devices`` (names) and ``environments`` (a count) drawn as responses. Every
    error names the file, and the key if it has one."""
    sec = _read_sim_section(path)
    get = {bool: sec.getboolean, int: sec.getint, float: sec.getfloat, str: sec.get}
    try:  # not files.named: "[sim]" and the key are joined by a space, not ": "
        for key in sec:
            if key not in CONFIG_DEFAULTS:
                raise ValueError(f"{key}: unknown key; the keys are {', '.join(CONFIG_DEFAULTS)}")
        v = {}
        for key, default in CONFIG_DEFAULTS.items():
            default = v["n_fft"] // 4 if key == "hop" else default
            with files.named(key):
                v[key] = get[type(default)](key, default)
        # SimConfig checks its fields; these keys are not fields as they are read.
        for key in ("response_db", "environment_db"):
            _require(np.isfinite(v[key]), key, v[key], "finite")
        # Recording i is in environment i mod environments, so num_recordings bounds the draw.
        _require(1 <= v["num_recordings"] <= MAX_RECORDINGS, "num_recordings",
                 v["num_recordings"], f"an integer in 1..{MAX_RECORDINGS}")
        _require(0 <= v["environments"] <= v["num_recordings"], "environments",
                 v["environments"], f"in 0..num_recordings = {v['num_recordings']}")
        seed, sample_rate, n_fft = v["seed"], v["sample_rate"], v["n_fft"]
        # The responses are drawn from the grid, so it is checked first.
        check_grid(seed, sample_rate, n_fft, v["hop"], v["duration"])
        with files.named("response_db"):
            v["devices"] = tuple(
                make_smooth_response(seed * 1000003 + 7 + i, v["response_db"], n_fft,
                                     sample_rate, device_id=name) if v["response_db"] > 0
                else flat_response(name, n_fft, sample_rate)
                for i, name in enumerate(v["devices"].replace(",", " ").split()))
        with files.named("environment_db"):
            v["environments"] = tuple(
                make_smooth_environment(seed * 7919 + 13 + j, v["environment_db"], n_fft,
                                        sample_rate, scene_id=f"e{j}")
                for j in range(v["environments"]))
        return SimConfig(**{field.name: v[field.name] for field in fields(SimConfig)})
    except ValueError as exc:
        raise ValueError(f"{path}: [sim] {exc}") from None


@dataclass(frozen=True)
class SimRecording:
    recording_id: str
    device_id: str
    group_id: Optional[str]
    waveform: Waveform


@dataclass(frozen=True)
class SimDataset:
    """A generated dataset: its waveforms and the config that fixes them."""

    waveforms: tuple
    config: SimConfig

    @cached_property
    def recordings(self) -> RecordingSet:
        """The waveforms' amplitude spectrograms, analyzed on first access."""
        cfg = self.config
        items = [(rec.recording_id, rec.device_id,
                  dsp.amplitude(dsp.stft(rec.waveform, cfg.n_fft, cfg.hop)))
                 for rec in self.waveforms]
        groups = ({rec.recording_id: rec.group_id for rec in self.waveforms}
                  if cfg.aligned else None)
        return RecordingSet(items, groups)


def _smooth_log_gains(rng: np.random.Generator, max_db: float, n_bins: int) -> np.ndarray:
    """Random smooth log-gain curve: a few low-order cosine terms, rescaled
    so the extreme value is exactly max_db, with the adjacent-bin step kept
    under MAX_LOG_STEP."""
    max_nat = max_db / DB_PER_NAT
    budget = 0.9 * MAX_LOG_STEP
    order_cap = min(6.0, budget * (n_bins - 1) / (np.pi * max_nat))
    x = np.linspace(0.0, 1.0, n_bins)
    for _ in range(256):
        k = int(rng.integers(3, 9))
        orders = rng.uniform(0.0, order_cap, size=k)
        amps = rng.standard_normal(k)
        phases = rng.uniform(0.0, 2.0 * np.pi, size=k)
        curve = np.zeros(n_bins)
        for order, amp, phase in zip(orders, amps, phases):
            curve += amp * np.cos(np.pi * order * x + phase)
        peak = np.max(np.abs(curve))
        if peak < 1e-12:
            continue
        log_gain = curve * (max_nat / peak)
        if np.max(np.abs(np.diff(log_gain))) <= MAX_LOG_STEP - 1e-6:
            return log_gain
    # Degenerate geometry (tiny n_bins at a large max_db): fall back to a
    # single gentle term, which always satisfies the step bound.
    curve = np.cos(np.pi * min(order_cap, 0.5) * x)
    return curve * (max_nat / np.max(np.abs(curve)))


def make_smooth_response(seed: int, max_db: float, n_fft: int, sample_rate: int,
                         device_id: str = "dev") -> Response:
    """Deterministic random smooth response with peak gain max_db."""
    if not 0 < max_db <= RESPONSE_BOUND_DB:
        raise ValueError(f"max_db must lie in (0, {RESPONSE_BOUND_DB}], got {max_db}")
    rng = np.random.default_rng(seed)
    gains = np.exp(_smooth_log_gains(rng, max_db, n_fft // 2 + 1))
    return Response(gains, device_id, n_fft, sample_rate)


def make_smooth_environment(seed: int, max_db: float, n_fft: int, sample_rate: int,
                            scene_id: str = "env") -> Response:
    return make_smooth_response(seed, max_db, n_fft, sample_rate, scene_id)


def flat_response(device_id: str, n_fft: int, sample_rate: int) -> Response:
    """Identity device or environment: unit gain in every bin."""
    return Response(np.ones(n_fft // 2 + 1), device_id, n_fft, sample_rate)


flat_environment = flat_response


def record(clean: Waveform, env: Optional[Response],
           dev: Response, hop: Optional[int] = None) -> Waveform:
    """Pass a clean waveform through environment and device gain curves.

    The gains multiply STFT magnitudes with phases kept (zero-phase
    distortion), so the true per-bin ratios are exactly known. The output has
    the input's length; its frames run over zeros past either end
    (``dsp.shaped_blocks``), so the edges are shaped as a signal that starts
    and stops there.
    """
    dsp.check_match(("sample_rate",), ("waveform", clean), ("device", dev))
    if env is not None:
        dsp.check_match(("n_fft", "sample_rate"), ("device", dev), ("environment", env))
    if hop is None:
        hop = dev.n_fft // 4
    gains = dev.gains if env is None else dev.gains * env.gains
    return dsp.apply_gains(clean, [gains], dev.n_fft, hop)[0]


def _pink_curve(n_fft: int) -> np.ndarray:
    """1/sqrt(k) per bin k (bin 0 takes bin 1's value), scaled to a two-sided
    mean square of 1, so white noise shaped by it keeps its mean square."""
    curve = 1.0 / np.sqrt(np.maximum(np.arange(n_fft // 2 + 1), 1))
    return curve / np.sqrt((2.0 * np.sum(curve ** 2) - curve[0] ** 2 - curve[-1] ** 2) / n_fft)


# A source's spectral tilt, a gain per bin of n_fft in each of its recordings.
_SHAPES = {"pink": _pink_curve}


class _NoiseSource(dsp.ForwardReader):
    """A simulator source, ``0.1 * standard_normal(len)`` from its seed, drawn
    as it is read forward (``dsp.ForwardReader``); no full-length array exists.

    For "speechlike-modulated" the generator first draws knots at a slow
    (~4 Hz) rate, and sample i is then multiplied by exp(0.5 * env), env
    interpolating the knots at i / (len - 1). (Pink's tilt shapes its
    recordings: ``_SHAPES``.) A generator drawn in chunks gives the stream of
    one call, and every step is pointwise, so the samples are drawn once, in
    one forward pass; a gap between ranges is drawn and dropped at most 32768
    samples at a time.
    """

    def __init__(self, seed, kind: str, num_samples: int, sample_rate: int):
        super().__init__(f"{kind} source")
        self.sample_rate, self._len = sample_rate, num_samples
        self._rng, self._pos = np.random.default_rng(seed), 0
        self._knots = None
        if kind == "speechlike-modulated":
            knots = max(2, int(round(4.0 * num_samples / sample_rate)) + 1)
            self._knots = (np.linspace(0.0, 1.0, knots), self._rng.standard_normal(knots))

    def __len__(self) -> int:
        return self._len

    def _fill(self, out: np.ndarray) -> None:
        self._rng.standard_normal(out=out)
        out *= 0.1
        if self._knots is not None:
            x = np.arange(self._pos, self._pos + out.size) / (self._len - 1)
            out *= np.exp(0.5 * np.interp(x, *self._knots))
        self._pos += out.size

    def _skip(self, samples: int) -> None:
        scratch = np.empty(min(samples, 1 << 15))
        for start in range(0, samples, scratch.size):
            self._rng.standard_normal(out=scratch[:samples - start])
        self._pos += samples


def dataset_units(cfg: SimConfig) -> list:
    """The independent pieces of ``generate_dataset``, in its output order:
    one per alignment group in aligned mode, one per recording otherwise."""
    if cfg.aligned:
        return [(None, i) for i in range(cfg.num_recordings)]
    return [(d_idx, i) for d_idx in range(len(cfg.devices))
            for i in range(cfg.num_recordings)]


def unit_recordings(cfg: SimConfig, unit) -> list:
    """(recording id, device id, group id) of each recording of a unit."""
    d_idx, i = unit
    if d_idx is None:
        return [(f"g{i:04d}_{dev.name}", dev.name, f"g{i:04d}") for dev in cfg.devices]
    return [(f"{cfg.devices[d_idx].name}_{i:04d}", cfg.devices[d_idx].name, None)]


def unit_plan(cfg: SimConfig, unit) -> tuple:
    """(clean source, ``unit_recordings``, gain curves) of one of ``dataset_units(cfg)``.

    The source is a ``_NoiseSource`` drawn from the unit's seed as it is
    read; a plan draws no sample but speechlike's knots. Recording k is the
    source shaped by device k's gains times the source's tilt (``_SHAPES``;
    none for white) and the environment's gains. An aligned group records
    every device, an unaligned unit one device and a fresh source. Seeds
    derive from (seed, indices), so units can be generated in any order.
    """
    d_idx, i = unit
    env = cfg.environments[i % len(cfg.environments)].gains if cfg.environments else 1.0
    seed = [cfg.seed, i] if d_idx is None else [cfg.seed, d_idx, i]
    clean = _NoiseSource(seed, cfg.source, int(round(cfg.duration * cfg.sample_rate)),
                         cfg.sample_rate)
    shape = _SHAPES.get(cfg.source, lambda n_fft: 1.0)(cfg.n_fft) * env
    gains, recordings = {dev.name: dev.gains for dev in cfg.devices}, unit_recordings(cfg, unit)
    return clean, recordings, [gains[device] * shape for _, device, _ in recordings]


def generate_dataset(cfg: SimConfig) -> SimDataset:
    """Produce a deterministic dataset of recordings with known ground truth.

    Aligned mode records every clean source through all devices (same signal
    and environment per alignment group). Unaligned mode draws a fresh,
    independent source for each device/recording from the same generator.
    """
    recordings = []
    for clean, ids, curves in (unit_plan(cfg, unit) for unit in dataset_units(cfg)):
        waves = dsp.apply_gains(clean, curves, cfg.n_fft, cfg.hop)
        recordings += [SimRecording(*rec, wave) for rec, wave in zip(ids, waves)]
    return SimDataset(tuple(recordings), cfg)


def truth_error_db(coeffs, sample_rate: int, n_fft: int, device_truth: dict) -> float:
    """Largest mid-band error in dB of ``coeffs`` against the true gains of a
    dataset at ``sample_rate`` and ``n_fft`` (``device_truth``: device -> gains).
    Reference-free gains are defined up to scale; their shape is compared."""
    if coeffs.n_fft != n_fft or coeffs.sample_rate != sample_rate:
        raise ValueError(f"coefficients are for n_fft={coeffs.n_fft}@{coeffs.sample_rate} Hz, "
                         f"ground truth is n_fft={n_fft}@{sample_rate} Hz")
    if coeffs.source_device not in device_truth:
        raise ValueError(f"device {coeffs.source_device!r} has no ground-truth response")
    band = dsp.band_bins(n_fft, sample_rate)
    if not band.size:
        raise ValueError(f"the mid band, MIDBAND_HZ = {dsp.MIDBAND_HZ} Hz, holds no bin of "
                         f"n_fft={n_fft} at {sample_rate} Hz")
    est, src = coeffs.gains[band], device_truth[coeffs.source_device][band]
    if coeffs.reference_device == "none":
        est, true = est / dsp.geometric_mean(est), 1.0 / src / dsp.geometric_mean(1.0 / src)
    elif coeffs.reference_device in device_truth:
        true = device_truth[coeffs.reference_device][band] / src
    else:
        raise ValueError(f"reference {coeffs.reference_device!r} has no ground-truth response")
    return float(np.max(np.abs(dsp.to_db(est / true))))
