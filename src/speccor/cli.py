"""Command-line interface: estimate, apply, design-fir, filter, simulate, features, verify.

Exit codes: 0 on success, 1 for validation problems, 2 for I/O problems.
The SPECCOR_THREADS environment variable caps the number of worker threads
used for per-file work (0 or unset picks the CPU count); reductions always
run in manifest order, so results are deterministic either way.
"""

from __future__ import annotations

import argparse
import configparser
import os
import re
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from . import correction, dsp, files, fir, simulate, wavio
from .features import extract, mel_filterbank, standardize
from .wavio import AudioFileError


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def worker_count() -> int:
    raw = os.environ.get("SPECCOR_THREADS", "0").strip()
    try:
        n = int(raw)
    except ValueError:
        n = 0
    return n if n > 0 else (os.cpu_count() or 1)


def _map_ordered(fn, items):
    items = list(items)
    workers = min(worker_count(), len(items))
    if workers <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


def _resolve(manifest_path, row_path) -> Path:
    p = Path(row_path)
    return p if p.is_absolute() else Path(manifest_path).parent / p


def _on_file(manifest_path, row, fn):
    """fn(waveform) for one manifest row's file; a ValueError names the file."""
    path = _resolve(manifest_path, row.path)
    try:
        return fn(wavio.read_wav(path))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _map_files(manifest_path, rows, fn):
    """fn(row, waveform) for each manifest row, in order; a ValueError names its file."""
    def run(row):
        return _on_file(manifest_path, row, lambda wave: fn(row, wave))
    return _map_ordered(run, rows)


def _manifest_devices(rows) -> list:
    devices = []
    for row in rows:
        if row.device not in devices:
            devices.append(row.device)
    return devices


# -- estimate -----------------------------------------------------------------

def _aligned_groups(rows, reference, devices) -> dict:
    """Map group -> {device: row}, checked before any audio is read."""
    groups: dict = {}
    for row in rows:
        if row.group:
            members = groups.setdefault(row.group, {})
            if row.device in members:
                raise ValueError(f"group {row.group!r} lists device {row.device!r} twice")
            members[row.device] = row
    if not groups:
        raise ValueError("manifest has no alignment groups; --aligned needs the "
                         "group column filled in")
    for group, members in groups.items():
        if reference not in members:
            raise ValueError(f"group {group!r} is missing reference-device {reference!r}")
    grouped = {device for members in groups.values() for device in members}
    for device in devices:
        if device not in grouped:
            raise ValueError(f"device {device!r} shares no alignment group "
                             f"with {reference!r}")
    return groups


def cmd_estimate(args) -> int:
    rows = files.read_manifest(args.manifest)
    reference = args.reference_device
    if args.aligned and reference == "none":
        raise ValueError("conflicting flags: --aligned requires a concrete "
                         "--reference-device, not 'none'")
    devices = _manifest_devices(rows)
    if reference != "none" and reference not in devices:
        raise ValueError(f"reference-device {reference!r} not present in the manifest")

    # Each worker reduces its audio to per-bin log sums, so no spectrogram
    # outlives the worker that made it; the sums are folded in manifest order.
    def amplitude(wave):
        return dsp.amplitude(dsp.stft(wave, args.n_fft, args.hop))

    if args.aligned:
        groups = _aligned_groups(rows, reference, devices)

        def group_sums(item):
            group, members = item
            ref = correction.AlignedReference(
                _on_file(args.manifest, members[reference], amplitude))

            def ratio_sum(device, row):
                spec = _on_file(args.manifest, row, amplitude)
                if spec.frames != ref.frames:
                    raise ValueError(f"group {group!r} is unaligned: device {device!r} has "
                                     f"{spec.frames} frames, reference-device {reference!r} "
                                     f"has {ref.frames}")
                return ref.ratio_sum(spec)
            return {device: ratio_sum(device, row)
                    for device, row in members.items() if device != reference}

        per_group = _map_ordered(group_sums, groups.items())
        results = [correction.aligned_from_sums(
                       [sums[device] for sums in per_group if device in sums],
                       reference, device)
                   for device in devices if device != reference]
    else:
        sums = _map_files(args.manifest, rows, lambda row, wave:
                          correction.log_amplitude_sum(amplitude(wave)))
        by_device = {device: [] for device in devices}
        for row, item_sum in zip(rows, sums):
            by_device[row.device].append(item_sum)
        stats = {device: correction.stats_from_sums(device_sums, device)
                 for device, device_sums in by_device.items()}
        if reference == "none":
            results = [correction.simplified_coefficients(stats[d]) for d in devices]
        else:
            results = [correction.estimate_unaligned(stats[reference], stats[d])
                       for d in devices if d != reference]

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for coeffs in results:
        path = out_dir / f"{coeffs.source_device}.coeffs"
        files.write_coefficients(path, coeffs)
        print(f"wrote {path} ({coeffs.estimator}, {coeffs.num_recordings} recordings)")
    return 0


# -- apply / design-fir / filter -----------------------------------------------

def cmd_apply(args) -> int:
    coeffs = files.read_coefficients(args.coeffs)
    wave = wavio.read_wav(args.input)
    if wave.sample_rate != coeffs.sample_rate:
        raise ValueError(f"sample_rate mismatch: audio is {wave.sample_rate} Hz, "
                         f"coefficients are for {coeffs.sample_rate} Hz")
    hop = args.hop if args.hop else coeffs.n_fft // 4
    spec = dsp.stft(wave, coeffs.n_fft, hop)
    out = dsp.istft(correction.apply_to_complex(coeffs, spec)).samples
    if out.size < len(wave):
        out = np.concatenate([out, np.zeros(len(wave) - out.size)])
    wavio.write_wav(args.out, dsp.Waveform(out, wave.sample_rate))
    print(f"wrote {args.out}")
    return 0


def cmd_design_fir(args) -> int:
    coeffs = files.read_coefficients(args.coeffs)
    filt = fir.design_ls(coeffs, args.taps)
    files.write_filter(args.out, filt)
    print(f"wrote {args.out} ({filt.num_taps} taps, group delay {filt.group_delay})")
    return 0


def cmd_filter(args) -> int:
    filt = files.read_filter(args.filter)
    wave = wavio.read_wav(args.input)
    out = fir.apply_filter(filt, wave, compensate_delay=not args.no_delay_compensation)
    wavio.write_wav(args.out, out)
    print(f"wrote {args.out}")
    return 0


# -- simulate --------------------------------------------------------------------

def _parse_sim_config(path) -> simulate.SimConfig:
    parser = configparser.ConfigParser()
    parser.read_string(Path(path).read_text(), source=str(path))
    if not parser.has_section("sim"):
        raise ValueError(f"{path}: config needs a [sim] section")
    sec = parser["sim"]

    seed = sec.getint("seed", 0)
    sample_rate = sec.getint("sample_rate", 44100)
    n_fft = sec.getint("n_fft", 2048)
    hop = sec.getint("hop", n_fft // 4)
    response_db = sec.getfloat("response_db", 20.0)
    names = [t for t in re.split(r"[,\s]+", sec.get("devices", "a b").strip()) if t]
    if len(set(names)) != len(names):
        raise ValueError(f"{path}: duplicate device names in 'devices'")

    def device(i, name):
        if response_db <= 0:
            return simulate.flat_response(name, n_fft, sample_rate)
        return simulate.make_smooth_response(seed * 1000003 + 7 + i, response_db,
                                             n_fft, sample_rate, device_id=name)

    num_envs = sec.getint("environments", 0)
    environment_db = sec.getfloat("environment_db", 6.0)
    environments = tuple(
        simulate.make_smooth_environment(seed * 7919 + 13 + j, environment_db,
                                         n_fft, sample_rate, scene_id=f"e{j}")
        for j in range(num_envs))

    return simulate.SimConfig(
        seed=seed,
        num_recordings=sec.getint("num_recordings", 4),
        duration=sec.getfloat("duration", 3.0),
        source=sec.get("source", "white"),
        aligned=sec.getboolean("aligned", True),
        devices=tuple(device(i, name) for i, name in enumerate(names)),
        environments=environments,
        sample_rate=sample_rate,
        n_fft=n_fft,
        hop=hop,
    )


def cmd_simulate(args) -> int:
    cfg = _parse_sim_config(args.config)
    dataset = simulate.generate_dataset(cfg)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    rows = []
    for rec in dataset.waveforms:
        name = f"{rec.recording_id}.wav"
        wavio.write_wav(out_dir / name, rec.waveform)
        rows.append(files.ManifestRow(name, rec.device_id, rec.group_id))
    files.write_manifest(out_dir / "manifest.tsv", rows)
    files.write_responses(
        out_dir / "responses.txt", cfg.sample_rate, cfg.n_fft,
        {d.name: d.gains for d in cfg.devices},
        {e.name: e.gains for e in cfg.environments})
    mode = "aligned" if cfg.aligned else "unaligned"
    print(f"wrote {len(rows)} recordings ({mode}) to {out_dir}")
    return 0


# -- features ---------------------------------------------------------------------

def cmd_features(args) -> int:
    rows = files.read_manifest(args.manifest)

    coeffs_by_device: dict = {}
    if args.coeffs_dir:
        for device in _manifest_devices(rows):
            path = Path(args.coeffs_dir) / f"{device}.coeffs"
            if path.exists():
                coeffs_by_device[device] = files.read_coefficients(path)
            else:
                print(f"note: no coefficients for device {device!r}, leaving it "
                      "uncorrected", file=sys.stderr)

    fb_cache = {}
    fb_lock = threading.Lock()

    def process(row, wave):
        # One filterbank per sample rate, even when workers need it at once.
        with fb_lock:
            if wave.sample_rate not in fb_cache:
                fb_cache[wave.sample_rate] = mel_filterbank(
                    wave.sample_rate, args.n_fft, args.n_mels)
            fb = fb_cache[wave.sample_rate]
        spec = dsp.amplitude(dsp.stft(wave, args.n_fft, args.hop))
        return extract(spec, fb, coeffs_by_device.get(row.device))

    feats = _map_files(args.manifest, rows, process)

    if args.standardize:
        grouping = "per_device" if args.standardize == "per-device" else "global"
        feats, _ = standardize(feats, grouping, [row.device for row in rows])

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    names = set()
    for row, feat in zip(rows, feats):
        name = Path(row.path).stem + ".feat"
        if name in names:
            raise ValueError(f"duplicate output name {name!r}; manifest stems must "
                             "be unique")
        names.add(name)
        files.write_features(out_dir / name, feat)
    print(f"wrote {len(feats)} feature files to {out_dir}")
    return 0


# -- verify ------------------------------------------------------------------------

def cmd_verify(args) -> int:
    sample_rate, n_fft, device_truth, _ = files.read_responses(
        Path(args.sim_dir) / "responses.txt")
    coeff_paths = sorted(Path(args.coeffs_dir).glob("*.coeffs"))
    if not coeff_paths:
        raise ValueError(f"no *.coeffs files found in {args.coeffs_dir}")
    band = dsp.band_bins(n_fft, sample_rate)

    all_ok = True
    for path in coeff_paths:
        coeffs = files.read_coefficients(path)
        if coeffs.n_fft != n_fft or coeffs.sample_rate != sample_rate:
            raise ValueError(f"{path}: coefficients are for n_fft={coeffs.n_fft}@"
                             f"{coeffs.sample_rate} Hz, ground truth is "
                             f"n_fft={n_fft}@{sample_rate} Hz")
        if coeffs.source_device not in device_truth:
            raise ValueError(f"{path}: device {coeffs.source_device!r} has no "
                             "ground-truth response")
        est = coeffs.gains[band]
        if coeffs.reference_device == "none":
            # Reference-free gains are defined up to scale; compare shapes.
            true = 1.0 / device_truth[coeffs.source_device][band]
            est = est / dsp.geometric_mean(est)
            true = true / dsp.geometric_mean(true)
        else:
            if coeffs.reference_device not in device_truth:
                raise ValueError(f"{path}: reference {coeffs.reference_device!r} has "
                                 "no ground-truth response")
            true = (device_truth[coeffs.reference_device][band]
                    / device_truth[coeffs.source_device][band])
        err = float(np.max(np.abs(dsp.to_db(est / true))))
        ok = err <= args.tolerance_db
        all_ok &= ok
        print(f"device {coeffs.source_device}: max mid-band error {err:.3f} dB "
              f"(tolerance {args.tolerance_db:g} dB) {'PASS' if ok else 'FAIL'}")
    return 0 if all_ok else 1


# -- parser --------------------------------------------------------------------------

def _build_parser() -> _Parser:
    parser = _Parser(prog="speccor", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("estimate", help="estimate correction coefficients from a manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--reference-device", required=True,
                   help="device id, or 'none' for reference-free coefficients")
    p.add_argument("--aligned", action="store_true",
                   help="use alignment groups instead of per-device averages")
    p.add_argument("--n-fft", type=int, default=2048)
    p.add_argument("--hop", type=int, default=512)
    p.add_argument("--out", required=True, help="output directory for .coeffs files")
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("apply", help="apply coefficients to audio in the STFT domain")
    p.add_argument("--coeffs", required=True)
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--hop", type=int, default=0, help="default: n_fft/4")
    p.set_defaults(func=cmd_apply)

    p = sub.add_parser("design-fir", help="realize coefficients as a linear-phase FIR filter")
    p.add_argument("--coeffs", required=True)
    p.add_argument("--taps", type=int, default=1025)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_design_fir)

    p = sub.add_parser("filter", help="apply a designed FIR filter in the time domain")
    p.add_argument("--filter", required=True)
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--no-delay-compensation", action="store_true")
    p.set_defaults(func=cmd_filter)

    p = sub.add_parser("simulate", help="generate a synthetic dataset with known responses")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("features", help="extract log-mel features for a manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--coeffs-dir", default=None)
    p.add_argument("--standardize", choices=["global", "per-device"], default=None)
    p.add_argument("--n-fft", type=int, default=2048)
    p.add_argument("--hop", type=int, default=512)
    p.add_argument("--n-mels", type=int, default=256)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_features)

    p = sub.add_parser("verify", help="score estimated coefficients against simulator truth")
    p.add_argument("--sim-dir", required=True)
    p.add_argument("--coeffs-dir", required=True)
    p.add_argument("--tolerance-db", type=float, default=1.0)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except AudioFileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
