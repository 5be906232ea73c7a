"""Command-line interface: estimate, apply, design-fir, filter, simulate, features, verify.

Exit codes: 0 on success, 1 for validation problems, 2 for I/O problems.
The SPECCOR_THREADS environment variable caps the number of worker threads
used for per-file work and for simulate's groups or recordings (0 or unset
picks the CPU count, anything but an integer >= 0 exits 1); reductions and
outputs always follow manifest order, so results are deterministic either way.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
from pathlib import Path

import numpy as np

# Only what every subcommand runs is imported here; correction, features, fir
# and simulate are imported by the subcommands that use them, which keeps the
# start-up of a short call such as design-fir, apply or filter to what it needs.
from . import dsp, files, wavio
from .wavio import AudioFileError


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def worker_count() -> int:
    raw = os.environ.get("SPECCOR_THREADS", "0")
    try:
        return files.parse_int(raw.strip(), "SPECCOR_THREADS") or os.cpu_count() or 1
    except ValueError:
        raise ValueError(f"SPECCOR_THREADS must be an integer >= 0, got {raw!r}") from None


def _map_ordered(fn, items):
    items = list(items)
    workers = min(worker_count(), len(items))
    if workers <= 1:
        return [fn(item) for item in items]
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


def _resolve(manifest_path, row_path) -> Path:
    p = Path(row_path)
    return p if p.is_absolute() else Path(manifest_path).parent / p


def _map_files(manifest_path, rows, fn):
    """fn(row, audio) for each manifest row, in order. ``audio`` is the row's WAV,
    opened by the worker as a stream (``wavio.open_wav``) and closed when fn
    returns or raises, so a worker holds one read chunk, not the recording."""
    def one(row):
        with wavio.open_wav(_resolve(manifest_path, row.path)) as audio:
            return fn(row, audio)
    return _map_ordered(one, rows)


# -- estimate -----------------------------------------------------------------

def _estimate_plan(rows, reference, aligned) -> dict:
    """Map each device to estimate to (reference rows or None, own rows), checked
    before any audio is read. With ``aligned``, item i of both lists is one group."""
    devices = dict.fromkeys(row.device for row in rows)
    if reference != "none" and reference not in devices:
        raise ValueError(f"reference-device {reference!r} not present in the manifest")
    if not aligned:
        own = {d: [row for row in rows if row.device == d] for d in devices}
        ref_rows = None if reference == "none" else own[reference]
        plan = {d: (ref_rows, own[d]) for d in devices if ref_rows is None or d != reference}
    else:
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
        plan = {}
        for d in devices:
            shared = [members for members in groups.values() if d in members]
            if not shared:
                raise ValueError(f"device {d!r} shares no alignment group with {reference!r}")
            if d != reference:
                plan[d] = ([m[reference] for m in shared], [m[d] for m in shared])
    return plan


def _check_stft_flags(n_fft, hop, n_mels=1) -> None:
    """--n-fft, --hop and features' --n-mels, checked once before any file is read."""
    if n_fft < 16 or n_fft % 2 != 0:
        raise ValueError(f"--n-fft must be an even integer >= 16, got {n_fft}")
    if hop < 1:
        raise ValueError(f"--hop must be >= 1, got {hop}")
    if n_mels < 1:
        raise ValueError(f"--n-mels must be >= 1, got {n_mels}")
    if n_mels > n_fft // 2 + 1:  # a projection of F bins has rank at most F
        raise ValueError(f"--n-mels must be <= n_fft/2 + 1 = {n_fft // 2 + 1} for "
                         f"--n-fft {n_fft}, got {n_mels}")


def _read_headers(manifest_path, rows, n_fft, hop) -> dict:
    """Map each row to (STFT frame count, sample rate), read once from its file's
    header before any audio; a file too short for one frame is named."""
    headers = {}
    for row in rows:
        path = _resolve(manifest_path, row.path)
        info = wavio.read_wav_info(path)
        try:
            headers[row] = (dsp.frame_count(info.samples, n_fft, hop), info.sample_rate)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from exc
    return headers


def _check_one_rate(manifest_path, headers, per_device) -> None:
    """The files must share one sample rate (with per_device, one per device);
    a file that differs is named with its device and group."""
    first = {}
    for row, (_, rate) in headers.items():
        anchor, want = first.setdefault(row.device if per_device else None, (row, rate))
        if rate != want:
            group = f" in group {row.group!r}" if row.group else ""
            raise ValueError(f"{_resolve(manifest_path, row.path)}: mixed sample rates: "
                             f"device {row.device!r}{group} is at {rate} Hz, {anchor.path} "
                             f"(device {anchor.device!r}) at {want} Hz")


def cmd_estimate(args) -> int:
    from . import correction

    _check_stft_flags(args.n_fft, args.hop)
    rows = files.read_manifest(args.manifest)
    reference = args.reference_device
    if args.aligned and reference == "none":
        raise ValueError("conflicting flags: --aligned requires a concrete "
                         "--reference-device, not 'none'")
    try:
        plan = _estimate_plan(rows, reference, args.aligned)
    except ValueError as exc:
        raise ValueError(f"{args.manifest}: {exc}") from None
    paths = [Path(args.out) / f"{device}.coeffs" for device in plan]

    # Headers are checked before any audio is read. Each worker then reduces
    # one file to its per-bin log sum a block of frames at a time; each
    # device's sums are merged in the plan's order.
    used = [row for row in rows if row.group] if args.aligned else rows
    headers = _read_headers(args.manifest, used, args.n_fft, args.hop)
    _check_one_rate(args.manifest, headers, per_device=reference == "none")
    if not plan:  # after the header pass, so an unreadable file still exits 2
        raise ValueError(f"{args.manifest}: manifest has no device besides "
                         f"reference-device {reference!r}")
    if args.aligned:  # item i of a device's two row lists is one group
        for device, (ref_rows, own_rows) in plan.items():
            for ref_row, row in zip(ref_rows, own_rows):
                frames, ref_frames = headers[row][0], headers[ref_row][0]
                if frames != ref_frames:
                    raise ValueError(f"{_resolve(args.manifest, row.path)}: group "
                                     f"{row.group!r} is unaligned: device {device!r} "
                                     f"has {frames} frames, reference-device {reference!r} "
                                     f"has {ref_frames}")

    sums = dict(zip(used, _map_files(args.manifest, used, lambda row, audio:
                    correction.waveform_log_sum(audio, args.n_fft, args.hop, row.device))))
    results = []
    for ref_rows, own_rows in plan.values():
        own = [sums[row] for row in own_rows]
        if ref_rows is None:
            results.append(correction.simplified_coefficients(correction.merge_stats(own)))
        elif args.aligned:
            results.append(correction.aligned_from_sums([sums[r] for r in ref_rows], own))
        else:
            results.append(correction.estimate_unaligned(
                correction.merge_stats([sums[r] for r in ref_rows]),
                correction.merge_stats(own)))

    Path(args.out).mkdir(parents=True, exist_ok=True)
    with files.staged(paths) as part:
        for path, coeffs in zip(paths, results):
            files.write_coefficients(part(path), coeffs)
    for path, coeffs in zip(paths, results):
        print(f"wrote {path} ({coeffs.estimator}, {coeffs.num_recordings} recordings)")
    return 0


# -- apply / design-fir / filter -----------------------------------------------

def cmd_apply(args) -> int:
    if args.hop < 0:
        raise ValueError(f"--hop must be >= 1, or 0 for n_fft/4, got {args.hop}")
    coeffs = files.read_coefficients(args.coeffs)
    if coeffs.n_fft % 2 != 0:
        raise ValueError(f"--coeffs {args.coeffs}: n_fft must be an even integer >= 16, "
                         f"got {coeffs.n_fft}")
    hop = args.hop or coeffs.n_fft // 4
    # Every check is made before --out is created; the output is then written
    # while the input is read, a block of frames at a time.
    with wavio.open_wav(args.input) as audio:
        if audio.sample_rate != coeffs.sample_rate:
            raise ValueError(f"sample_rate mismatch: audio is {audio.sample_rate} Hz, "
                             f"coefficients are for {coeffs.sample_rate} Hz "
                             f"(--in {args.input}, --coeffs {args.coeffs})")
        try:
            dsp.frame_count(len(audio), coeffs.n_fft, hop)
        except ValueError as exc:
            raise ValueError(f"{args.input}: {exc}") from None
        try:  # with n_fft and the length checked, only the hop can fail to invert
            blocks = dsp.shaped_blocks(audio, [coeffs.gains], coeffs.n_fft, hop)
        except ValueError as exc:
            raise ValueError(f"--hop {hop}: {exc}") from None
        with wavio.create_wav(args.out, audio.sample_rate, len(audio)) as out:
            for block in blocks:
                out.write(block[0])
    print(f"wrote {args.out}")
    return 0


def cmd_design_fir(args) -> int:
    from . import fir

    # design_ls makes the same checks; these name the flag and the file.
    if args.taps < 3 or args.taps % 2 == 0:
        raise ValueError(f"--taps must be odd and >= 3, got {args.taps}")
    coeffs = files.read_coefficients(args.coeffs)
    if args.taps > coeffs.n_fft + 1:
        raise ValueError(f"--taps {args.taps} exceeds n_fft + 1 = {coeffs.n_fft + 1} of "
                         f"--coeffs {args.coeffs}: its {coeffs.freq_bins} bins do not "
                         "determine more taps")
    filt = fir.design_ls(coeffs, args.taps)
    files.write_filter(args.out, filt)
    print(f"wrote {args.out} ({filt.num_taps} taps, group delay {filt.group_delay})")
    return 0


def cmd_filter(args) -> int:
    from . import fir

    filt = files.read_filter(args.filter)
    compensate = not args.no_delay_compensation
    # As in apply, every check is made before --out is created; the output is
    # then written while the input is read, a segment at a time.
    with wavio.open_wav(args.input) as audio:
        if audio.sample_rate != filt.sample_rate:
            raise ValueError(f"sample_rate mismatch: audio is {audio.sample_rate} Hz, "
                             f"filter is for {filt.sample_rate} Hz "
                             f"(--in {args.input}, --filter {args.filter})")
        try:
            blocks = fir.filter_blocks(filt, audio, compensate)
        except ValueError as exc:
            raise ValueError(f"--in {args.input}: {exc}") from None
        length = fir.filtered_length(filt, len(audio), compensate)
        with wavio.create_wav(args.out, audio.sample_rate, length) as out:
            for block in blocks:
                out.write(block[0])
    print(f"wrote {args.out}")
    return 0


# -- simulate --------------------------------------------------------------------

def cmd_simulate(args) -> int:
    from . import simulate

    cfg = simulate.read_config(args.config)
    out_dir = Path(args.out)
    units = simulate.dataset_units(cfg)
    rows = [files.ManifestRow(f"{recording_id}.wav", device, group) for unit in units
            for recording_id, device, group in simulate.unit_recordings(cfg, unit)]
    manifest, responses = out_dir / "manifest.tsv", out_dir / "responses.txt"
    out_dir.mkdir(parents=True, exist_ok=True)

    # Each worker draws one unit's source (an aligned group or one recording) and
    # streams its WAVs block by block; the manifest and responses publish last.
    with files.staged([*(out_dir / row.path for row in rows), manifest, responses]) as part:
        def write_unit(unit):
            clean, recordings, curves = simulate.unit_plan(cfg, unit)
            with contextlib.ExitStack() as stack:
                wavs = [stack.enter_context(wavio.create_wav(
                    part(out_dir / f"{rid}.wav"), cfg.sample_rate, len(clean)))
                    for rid, _, _ in recordings]
                for block in dsp.shaped_blocks(clean, curves, cfg.n_fft, cfg.hop):
                    for wav, samples in zip(wavs, block):
                        wav.write(samples)

        _map_ordered(write_unit, units)
        files.write_manifest(part(manifest), rows)
        files.write_responses(part(responses), cfg.sample_rate, cfg.n_fft,
                              {d.name: d.gains for d in cfg.devices},
                              {e.name: e.gains for e in cfg.environments})
    mode = "aligned" if cfg.aligned else "unaligned"
    print(f"wrote {len(rows)} recordings ({mode}) to {out_dir}")
    return 0


# -- features ---------------------------------------------------------------------

def cmd_features(args) -> int:
    from . import features

    _check_stft_flags(args.n_fft, args.hop, args.n_mels)
    rows = files.read_manifest(args.manifest)
    # Workers write their own files, so two rows must never share an output
    # name: checked before any audio is read or --out is created.
    out_dir = Path(args.out)
    paths, seen = {row: out_dir / f"{Path(row.path).stem}.feat" for row in rows}, set()
    for row, path in paths.items():
        if path in seen:
            raise ValueError(f"{_resolve(args.manifest, row.path)}: duplicate output name "
                             f"{path.name!r}; manifest stems must be unique")
        seen.add(path)

    coeffs_by_device: dict = {}
    if args.coeffs_dir:
        if not Path(args.coeffs_dir).is_dir():
            raise NotADirectoryError(f"--coeffs-dir {args.coeffs_dir}: no such directory")
        for device in dict.fromkeys(row.device for row in rows):
            path = Path(args.coeffs_dir) / f"{device}.coeffs"
            if path.exists():
                coeffs = files.read_coefficients(path)
                if coeffs.n_fft != args.n_fft:
                    raise ValueError(f"{path}: coefficients are for n_fft={coeffs.n_fft}, "
                                     f"--n-fft is {args.n_fft}")
                if coeffs.source_device != device:
                    raise ValueError(f"{path}: coefficients are for device "
                                     f"{coeffs.source_device!r}, not {device!r}")
                coeffs_by_device[device] = coeffs
            else:
                print(f"note: no coefficients for device {device!r}, leaving it "
                      "uncorrected", file=sys.stderr)

    # Every header and coefficient sample rate is checked, and one filterbank
    # built per sample rate, before any audio is read or --out is created.
    headers = _read_headers(args.manifest, rows, args.n_fft, args.hop)
    for row, (_, rate) in headers.items():
        coeffs = coeffs_by_device.get(row.device)
        if coeffs is not None and coeffs.sample_rate != rate:
            path = Path(args.coeffs_dir) / f"{row.device}.coeffs"
            raise ValueError(f"{path}: coefficients are for {coeffs.sample_rate} Hz, "
                             f"{_resolve(args.manifest, row.path)} is at {rate} Hz")
    fbs = {rate: features.mel_filterbank(rate, args.n_fft, args.n_mels)
           for rate in {rate for _, rate in headers.values()}}

    # One pass writes every .feat part once, under its final header (with
    # --standardize, its normalization and statistics group); the statistics
    # then read the rows back in manifest order, each worker scales its own
    # part in place, a block at a time, and only then are the parts published.
    grouping = args.standardize and args.standardize.replace("-", "_")
    keys = dict(zip(rows, features.group_keys(grouping, [row.device for row in rows], len(rows))
                    if grouping else [""] * len(rows)))
    shapes = {row: (headers[row][0], args.n_mels) for row in rows}

    out_dir.mkdir(parents=True, exist_ok=True)
    with files.staged(paths.values()) as part:
        def write_raw(row, audio):
            tag, blocks = features.log_mel_blocks(audio, fbs[audio.sample_rate],
                                                  coeffs_by_device.get(row.device), args.hop)
            return files.write_feature_blocks(part(paths[row]), shapes[row], blocks,
                                              grouping or "raw", keys[row], tag)

        offsets = dict(zip(rows, _map_files(args.manifest, rows, write_raw)))
        if grouping:
            stats = features.group_stats(
                list(keys.values()), list(shapes.values()), lambda i, out, first:
                files.read_feature_rows(part(paths[rows[i]]), offsets[rows[i]], out, first))

            def scale(row):
                buffer = np.empty((dsp.BLOCK_FRAMES, args.n_mels))
                for first in range(0, shapes[row][0], dsp.BLOCK_FRAMES):
                    values = files.read_feature_rows(part(paths[row]), offsets[row],
                                                     buffer[:shapes[row][0] - first], first)
                    features.scale_rows(values, stats[keys[row]], out=values)
                    files.overwrite_feature_rows(part(paths[row]), offsets[row], values, first)

            _map_ordered(scale, rows)
    print(f"wrote {len(rows)} feature files to {out_dir}")
    return 0


# -- verify ------------------------------------------------------------------------

def cmd_verify(args) -> int:
    from . import simulate

    if not 0 <= args.tolerance_db < np.inf:
        raise ValueError(f"--tolerance-db must be finite and >= 0, got {args.tolerance_db}")
    sample_rate, n_fft, device_truth, _ = files.read_responses(
        Path(args.sim_dir) / "responses.txt")
    if not Path(args.coeffs_dir).is_dir():
        raise NotADirectoryError(f"--coeffs-dir {args.coeffs_dir}: no such directory")
    coeff_paths = sorted(Path(args.coeffs_dir).glob("*.coeffs"))
    if not coeff_paths:
        raise ValueError(f"no *.coeffs files found in {args.coeffs_dir}")
    all_ok = True
    for path in coeff_paths:
        coeffs = files.read_coefficients(path)
        try:
            err = simulate.truth_error_db(coeffs, sample_rate, n_fft, device_truth)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
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
        worker_count()  # a bad SPECCOR_THREADS fails before anything is written
        return args.func(args)
    except (_UsageError, ValueError, AudioFileError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, (_UsageError, ValueError)) else 2


if __name__ == "__main__":
    sys.exit(main())
