import ast
import contextlib
import errno
import io
import os
import shutil
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import speccor as sc
from speccor import cli, files, wavio
from speccor.cli import main

from conftest import SR, N_FFT, HOP, wav_file, white_waveform

SIM_CFG = """\
[sim]
seed = 3
num_recordings = 3
duration = 1.5
source = white
aligned = true
sample_rate = 44100
n_fft = 2048
hop = 512
devices = a b
response_db = 20
"""


@pytest.fixture(scope="module")
def sim_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    cfg = root / "sim.cfg"
    cfg.write_text(SIM_CFG)
    out = root / "simdir"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    return out


def test_simulate_outputs(sim_dir):
    rows = files.read_manifest(sim_dir / "manifest.tsv")
    assert len(rows) == 6
    assert {r.device for r in rows} == {"a", "b"}
    assert all(r.group for r in rows)
    sr, n_fft, devices, _ = files.read_responses(sim_dir / "responses.txt")
    assert (sr, n_fft) == (SR, N_FFT)
    assert set(devices) == {"a", "b"}
    wave = sc.read_wav(sim_dir / rows[0].path)
    assert wave.sample_rate == SR


def test_estimate_and_verify_aligned(sim_dir, tmp_path):
    coeffs_dir = tmp_path / "coeffs"
    assert main(["estimate", "--manifest", str(sim_dir / "manifest.tsv"),
                 "--reference-device", "a", "--aligned",
                 "--out", str(coeffs_dir)]) == 0
    assert main(["verify", "--sim-dir", str(sim_dir),
                 "--coeffs-dir", str(coeffs_dir),
                 "--tolerance-db", "1.0"]) == 0
    # An absurdly tight tolerance must flip the exit code.
    assert main(["verify", "--sim-dir", str(sim_dir),
                 "--coeffs-dir", str(coeffs_dir),
                 "--tolerance-db", "0.0001"]) == 1


def test_estimate_reference_free_writes_all_devices(sim_dir, tmp_path):
    coeffs_dir = tmp_path / "simplified"
    assert main(["estimate", "--manifest", str(sim_dir / "manifest.tsv"),
                 "--reference-device", "none", "--out", str(coeffs_dir)]) == 0
    produced = sorted(p.name for p in coeffs_dir.glob("*.coeffs"))
    assert produced == ["a.coeffs", "b.coeffs"]
    c = files.read_coefficients(coeffs_dir / "a.coeffs")
    assert c.estimator == "simplified"
    assert c.reference_device == "none"
    # Shape comparison against ground truth: reference-free gains carry the
    # source-spectrum sample mean, so the noise floor at this tiny dataset
    # size sits above 1 dB; the +/-20 dB device curves are still clearly
    # resolved at 2.5 dB.
    assert main(["verify", "--sim-dir", str(sim_dir),
                 "--coeffs-dir", str(coeffs_dir), "--tolerance-db", "2.5"]) == 0


def test_estimate_is_byte_deterministic(sim_dir, tmp_path):
    first = tmp_path / "c1"
    second = tmp_path / "c2"
    for out in (first, second):
        assert main(["estimate", "--manifest", str(sim_dir / "manifest.tsv"),
                     "--reference-device", "a", "--out", str(out)]) == 0
    assert (first / "b.coeffs").read_bytes() == (second / "b.coeffs").read_bytes()


def test_estimate_validation_errors(sim_dir, tmp_path, capsys):
    out = str(tmp_path / "c")
    manifest = str(sim_dir / "manifest.tsv")
    assert main(["estimate", "--manifest", manifest,
                 "--reference-device", "zz", "--out", out]) == 1
    assert "zz" in capsys.readouterr().err
    assert main(["estimate", "--manifest", manifest,
                 "--reference-device", "none", "--aligned", "--out", out]) == 1
    assert "conflicting flags" in capsys.readouterr().err
    assert main(["estimate", "--manifest", str(tmp_path / "missing.tsv"),
                 "--reference-device", "a", "--out", out]) == 2


def test_estimate_aligned_rejects_group_without_reference(sim_dir, tmp_path,
                                                          capsys):
    # Relabel one group's devices so it spans two devices but not the
    # reference; the aligned path must name the offending group.
    manifest = tmp_path / "culled.tsv"
    files.write_manifest(manifest, [
        files.ManifestRow(str(sim_dir / "g0000_a.wav"), "a", "g0"),
        files.ManifestRow(str(sim_dir / "g0000_b.wav"), "b", "g0"),
        files.ManifestRow(str(sim_dir / "g0001_a.wav"), "b", "g1"),
        files.ManifestRow(str(sim_dir / "g0001_b.wav"), "c", "g1"),
    ])
    assert main(["estimate", "--manifest", str(manifest),
                 "--reference-device", "a", "--aligned",
                 "--out", str(tmp_path / "c")]) == 1
    err = capsys.readouterr().err
    assert "g1" in err and "reference-device" in err


def test_estimate_names_the_aligned_group_whose_frames_differ(sim_dir, tmp_path,
                                                             capsys):
    short = tmp_path / "short_b.wav"
    sc.write_wav(short, white_waveform(93, seconds=0.5))
    manifest = tmp_path / "uneven.tsv"
    files.write_manifest(manifest, [
        files.ManifestRow(str(sim_dir / "g0000_a.wav"), "a", "g0"),
        files.ManifestRow(str(sim_dir / "g0000_b.wav"), "b", "g0"),
        files.ManifestRow(str(sim_dir / "g0001_a.wav"), "a", "g1"),
        files.ManifestRow(str(short), "b", "g1"),
    ])
    assert main(["estimate", "--manifest", str(manifest),
                 "--reference-device", "a", "--aligned",
                 "--out", str(tmp_path / "c")]) == 1
    err = capsys.readouterr().err
    assert "'g1'" in err and "frames" in err


def test_estimate_rejects_an_unaligned_group_before_reading_audio(sim_dir, tmp_path,
                                                                 monkeypatch, capsys):
    short = tmp_path / "short_b.wav"
    sc.write_wav(short, white_waveform(93, seconds=0.5))
    manifest = tmp_path / "uneven.tsv"
    files.write_manifest(manifest, [
        files.ManifestRow(str(sim_dir / "g0000_a.wav"), "a", "g0"),
        files.ManifestRow(str(short), "b", "g0"),
    ])
    monkeypatch.setattr(wavio.open_wav, "_read_raw", lambda self: pytest.fail(f"read {self.path}"))
    assert main(["estimate", "--manifest", str(manifest),
                 "--reference-device", "a", "--aligned",
                 "--out", str(tmp_path / "c")]) == 1
    err = capsys.readouterr().err
    assert "group 'g0' is unaligned: device 'b' has 40 frames" in err, err


def test_estimate_rejects_a_reference_only_manifest_before_reading_audio(sim_dir, tmp_path,
                                                                       monkeypatch, capsys):
    manifest = tmp_path / "only_a.tsv"
    files.write_manifest(manifest, [files.ManifestRow(str(sim_dir / f"g000{k}_a.wav"), "a")
                                    for k in range(2)])
    monkeypatch.setattr(wavio.open_wav, "_read_raw", lambda self: pytest.fail(f"read {self.path}"))
    out = tmp_path / "c"
    assert main(["estimate", "--manifest", str(manifest), "--reference-device", "a",
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "manifest has no device besides reference-device 'a'" in err, err
    assert not out.exists()


@pytest.mark.parametrize("command,label", [
    ("estimate", "x\ny"), ("features", "x\ny"), ("estimate", "\u00fc"), ("features", "\u00fc")],
    ids=["estimate", "features", "estimate-non-ascii", "features-non-ascii"])
def test_a_device_label_with_whitespace_is_named_before_reading_audio(command, label, sim_dir,
                                                                     tmp_path, monkeypatch,
                                                                     capsys):
    # The label would be written into a .coeffs or .feat header, whose
    # readers split fields at whitespace and whose .feat header is ASCII.
    manifest = tmp_path / "m.tsv"
    files.write_manifest(manifest, [files.ManifestRow(str(sim_dir / "g0000_a.wav"), "a", "g0"),
                                    files.ManifestRow(str(sim_dir / "g0000_b.wav"), label, "g0")])
    monkeypatch.setattr(wavio.open_wav, "_read_raw", lambda self: pytest.fail(f"read {self.path}"))
    out = tmp_path / "out"
    flags = {"estimate": ["--reference-device", "a", "--aligned"],
             "features": ["--standardize", "per-device"]}[command]
    assert main([command, "--manifest", str(manifest), *flags, "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"error: {manifest}: line 3: device of {str(sim_dir / 'g0000_b.wav')!r} must be a "
        f"non-empty ASCII token without whitespace, got {label!r}\n")
    assert not out.exists()


@pytest.mark.parametrize("command", ["estimate", "features"])
def test_an_empty_manifest_path_is_named_before_reading_audio(command, sim_dir, tmp_path,
                                                              monkeypatch, capsys):
    manifest = tmp_path / "m.tsv"
    files.write_manifest(manifest, [files.ManifestRow(str(sim_dir / "g0000_a.wav"), "a"),
                                    files.ManifestRow("", "b")])
    monkeypatch.setattr(wavio.open_wav, "_read_raw", lambda self: pytest.fail(f"read {self.path}"))
    out = tmp_path / "out"
    flags = {"estimate": ["--reference-device", "a"], "features": []}[command]
    assert main([command, "--manifest", str(manifest), *flags, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {manifest}: line 3: empty path\n"
    assert not out.exists()


@pytest.mark.parametrize("reference", ["a", "none"])
def test_estimate_equals_per_file_shards_merged_in_manifest_order(reference, sim_dir,
                                                                 tmp_path):
    # The library route for sharded estimation: one waveform_log_sum per file,
    # merged per device in manifest order, gives the bits the CLI writes.
    stats = {}
    for row in files.read_manifest(sim_dir / "manifest.tsv"):
        shard = sc.waveform_log_sum(sc.read_wav(sim_dir / row.path), N_FFT, HOP, row.device)
        stats[row.device] = stats[row.device].merge(shard) if row.device in stats else shard
    out = tmp_path / "out"
    assert main(["estimate", "--manifest", str(sim_dir / "manifest.tsv"),
                 "--reference-device", reference, "--out", str(out)]) == 0
    for device, device_stats in stats.items():
        if reference == "none":
            want = sc.simplified_coefficients(device_stats)
        elif device != reference:
            want = sc.estimate_unaligned(stats[reference], device_stats)
        else:
            assert not (out / f"{device}.coeffs").exists()
            continue
        got = files.read_coefficients(out / f"{device}.coeffs")
        assert np.array_equal(got.gains, want.gains), device
        assert got.num_recordings == device_stats.num_recordings == 3


@pytest.mark.parametrize("command", ["estimate", "features"])
def test_per_file_errors_name_the_file(command, tmp_path, capsys):
    long_path, short_path = tmp_path / "long.wav", tmp_path / "short.wav"
    sc.write_wav(long_path, white_waveform(94, seconds=0.2))
    sc.write_wav(short_path, sc.Waveform(np.zeros(1000), SR))
    manifest = tmp_path / "m.tsv"
    files.write_manifest(manifest, [files.ManifestRow("long.wav", "a"),
                                    files.ManifestRow("short.wav", "b")])
    extra = ["--reference-device", "a"] if command == "estimate" else []
    assert main([command, "--manifest", str(manifest), *extra,
                 "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert "short.wav" in err and "input too short" in err and "long.wav" not in err


def test_unreadable_file_still_exits_2(tmp_path, capsys):
    (tmp_path / "bad.wav").write_bytes(b"not a wav file")
    manifest = tmp_path / "m.tsv"
    files.write_manifest(manifest, [files.ManifestRow("bad.wav", "a")])
    assert main(["estimate", "--manifest", str(manifest), "--reference-device", "a",
                 "--out", str(tmp_path / "out")]) == 2
    assert "bad.wav" in capsys.readouterr().err


def _fresh_modules(code, **env):
    """The names in sys.modules after a fresh interpreter runs ``code``, whose
    stdout the list follows on the last line."""
    src = Path(sc.__file__).resolve().parents[1]
    result = subprocess.run(
        [sys.executable, "-c", f"{code}\nimport sys; print(sorted(sys.modules))"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src), **env})
    assert result.returncode == 0, result.stderr
    return ast.literal_eval(result.stdout.splitlines()[-1])


def test_cli_import_loads_no_scipy():
    assert [m for m in _fresh_modules("import speccor.cli") if m.split(".")[0] == "scipy"] == []


def test_package_import_loads_no_submodule_and_no_scipy():
    assert [m for m in _fresh_modules("import speccor")
            if m.startswith("speccor.") or m.split(".")[0] == "scipy"] == []


# Modules a subcommand must not load: each short call pays only for what it runs.
_NOT_IN_ONE_FILE_CALLS = {"speccor.simulate", "speccor.features", "configparser",
                          "concurrent.futures"}
UNUSED_MODULES = {"design-fir": _NOT_IN_ONE_FILE_CALLS, "apply": _NOT_IN_ONE_FILE_CALLS,
                  "filter": _NOT_IN_ONE_FILE_CALLS | {"speccor.correction"},
                  "estimate": {"speccor.simulate", "speccor.features"}}


@pytest.mark.parametrize("command", sorted(UNUSED_MODULES))
def test_a_subcommand_loads_only_the_modules_it_runs(command, sim_dir, tmp_path):
    coeffs = _random_coefficients(tmp_path / "c.coeffs")
    filt = tmp_path / "f.filt"
    assert main(["design-fir", "--coeffs", str(coeffs), "--taps", "65", "--out", str(filt)]) == 0
    wav = tmp_path / "in.wav"
    sc.write_wav(wav, white_waveform(97, seconds=0.2))
    out = str(tmp_path / "out")
    argv = {"design-fir": ["--coeffs", str(coeffs), "--out", out],
            "apply": ["--coeffs", str(coeffs), "--in", str(wav), "--out", out],
            "filter": ["--filter", str(filt), "--in", str(wav), "--out", out],
            "estimate": ["--manifest", str(sim_dir / "manifest.tsv"),
                         "--reference-device", "a", "--out", out]}[command]
    code = f"import speccor.cli; assert speccor.cli.main({[command, *argv]!r}) == 0"
    loaded = _fresh_modules(code, SPECCOR_THREADS="2")
    assert sorted(UNUSED_MODULES[command] & set(loaded)) == []
    assert Path(out).exists()


def test_apply_identity_round_trips_audio(tmp_path):
    gains = np.ones(N_FFT // 2 + 1)
    c = sc.CorrectionCoefficients(gains, N_FFT, SR, "b", "a", 1, "aligned")
    coeffs_path = tmp_path / "id.coeffs"
    files.write_coefficients(coeffs_path, c)
    w = white_waveform(90, seconds=0.8)
    in_path = tmp_path / "in.wav"
    out_path = tmp_path / "out.wav"
    sc.write_wav(in_path, w)
    assert main(["apply", "--coeffs", str(coeffs_path),
                 "--in", str(in_path), "--out", str(out_path)]) == 0
    got = sc.read_wav(out_path)
    want = sc.read_wav(in_path)
    assert len(got) == len(want)
    interior = slice(N_FFT, len(want) - N_FFT)
    assert np.abs(got.samples[interior] - want.samples[interior]).max() < 1e-6


def test_apply_rejects_sample_rate_mismatch(tmp_path, capsys):
    c = sc.CorrectionCoefficients(np.ones(N_FFT // 2 + 1), N_FFT, 48000,
                                  "b", "a", 1, "aligned")
    coeffs_path = tmp_path / "c.coeffs"
    files.write_coefficients(coeffs_path, c)
    in_path = tmp_path / "in.wav"
    sc.write_wav(in_path, white_waveform(91, seconds=0.1))
    assert main(["apply", "--coeffs", str(coeffs_path),
                 "--in", str(in_path), "--out", str(tmp_path / "o.wav")]) == 1
    assert "sample_rate mismatch" in capsys.readouterr().err


def _random_coefficients(path, sample_rate=SR, n_fft=N_FFT):
    gains = np.exp(np.random.default_rng(92).uniform(-1.0, 1.0, n_fft // 2 + 1))
    files.write_coefficients(path, sc.CorrectionCoefficients(gains, n_fft, sample_rate, "b",
                                                             "a", 1, "aligned"))
    return path


def _filter_flags(tmp_path, coeffs):
    assert main(["design-fir", "--coeffs", str(coeffs), "--out", str(tmp_path / "f.filt")]) == 0
    return ["filter", "--filter", str(tmp_path / "f.filt")]


# flags, input seconds, the coefficients' (sample rate, n_fft), the error.
APPLY_ERRORS = {
    "hop-negative": (["--hop=-5"], 0.1, (SR, N_FFT),
                     "--hop must be >= 1, or 0 for n_fft/4, got -5"),
    "hop-not-invertible": (["--hop", str(N_FFT)], 0.1, (SR, N_FFT),
                           "--hop 2048: reconstruction condition violated"),
    "hop-barely-overlapping": (["--hop", "2044"], 0.1, (SR, N_FFT),
                               "--hop 2044: reconstruction condition violated"),
    "hop-beyond-n-fft": (["--hop", "5000"], 0.2, (SR, N_FFT),
                         "--hop 5000: reconstruction condition violated"),
    "n-fft-odd": ([], 0.1, (SR, N_FFT + 1),
                  "c.coeffs: n_fft must be an even integer >= 16, got 2049"),
    "sample-rate": ([], 0.1, (48000, N_FFT), "sample_rate mismatch: audio is 44100 Hz, "
                                             "coefficients are for 48000 Hz"),
    "too-short": ([], 0.01, (SR, N_FFT), "in.wav: input too short: 441 samples < n_fft=2048"),
}


@pytest.mark.parametrize("name", sorted(APPLY_ERRORS))
def test_apply_checks_everything_before_creating_out(name, tmp_path, capsys):
    flags, seconds, (coeffs_rate, n_fft), message = APPLY_ERRORS[name]
    coeffs = _random_coefficients(tmp_path / "c.coeffs", coeffs_rate, n_fft)
    sc.write_wav(tmp_path / "in.wav", white_waveform(93, seconds=seconds))
    assert main(["apply", "--coeffs", str(coeffs), "--in", str(tmp_path / "in.wav"),
                 "--out", str(tmp_path / "out.wav"), *flags]) == 1
    err = capsys.readouterr().err
    assert message in err, err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.coeffs", "in.wav"]


def test_apply_takes_a_hop_of_three_quarters_of_n_fft(tmp_path):
    # Refused hops start above 0.83 n_fft (1697 here); at 2044 a +/-1 neper
    # curve swelled this input to an RMS of 75.
    coeffs = _random_coefficients(tmp_path / "c.coeffs")
    sc.write_wav(tmp_path / "in.wav", white_waveform(93, seconds=1.0))
    assert main(["apply", "--coeffs", str(coeffs), "--in", str(tmp_path / "in.wav"),
                 "--out", str(tmp_path / "out.wav"), "--hop", "1536"]) == 0
    samples = sc.read_wav(tmp_path / "out.wav").samples
    assert np.sqrt(np.mean(samples ** 2)) < 0.2


@pytest.mark.parametrize("command", ["apply", "filter"])
def test_a_sample_rate_mismatch_names_both_files_before_reading_audio(command, tmp_path,
                                                                     capsys, monkeypatch):
    coeffs = _random_coefficients(tmp_path / "c.coeffs", 48000)
    assert main(["design-fir", "--coeffs", str(coeffs), "--taps", "65",
                 "--out", str(tmp_path / "f.filt")]) == 0
    wav = tmp_path / "in.wav"
    sc.write_wav(wav, white_waveform(96, seconds=0.2))
    # Every read of audio, read_wav's too, goes through an open_wav stream.
    monkeypatch.setattr(wavio.open_wav, "_read_raw", lambda self: pytest.fail(f"read {self.path}"))
    flags, rates = {
        "apply": (["--coeffs", str(coeffs)], "coefficients are for 48000 Hz"),
        "filter": (["--filter", str(tmp_path / "f.filt")], "filter is for 48000 Hz"),
    }[command]
    capsys.readouterr()
    assert main([command, *flags, "--in", str(wav), "--out", str(tmp_path / "out.wav")]) == 1
    assert capsys.readouterr().err == (f"error: sample_rate mismatch: audio is {SR} Hz, "
                                       f"{rates} (--in {wav}, {flags[0]} {flags[1]})\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.coeffs", "f.filt", "in.wav"]


def test_apply_in_place_writes_the_bytes_of_another_path(tmp_path):
    coeffs = _random_coefficients(tmp_path / "c.coeffs")
    sc.write_wav(tmp_path / "x.wav", white_waveform(94, seconds=2.0))
    sc.write_wav(tmp_path / "y.wav", white_waveform(94, seconds=2.0))
    for target in ("other.wav", "x.wav"):
        assert main(["apply", "--coeffs", str(coeffs), "--in", str(tmp_path / "x.wav"),
                     "--out", str(tmp_path / target)]) == 0
    assert (tmp_path / "x.wav").read_bytes() == (tmp_path / "other.wav").read_bytes()
    assert (tmp_path / "x.wav").read_bytes() != (tmp_path / "y.wav").read_bytes()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.coeffs", "other.wav", "x.wav",
                                                          "y.wav"]


@pytest.mark.parametrize("target", ["missing-dir", "directory"])
@pytest.mark.parametrize("command", ["apply", "filter"])
def test_an_out_that_cannot_be_created_is_named_and_leaves_no_part_file(command, target,
                                                                        tmp_path, capsys):
    coeffs = _random_coefficients(tmp_path / "c.coeffs")
    assert main(["design-fir", "--coeffs", str(coeffs), "--taps", "65",
                 "--out", str(tmp_path / "f.filt")]) == 0
    sc.write_wav(tmp_path / "in.wav", white_waveform(95, seconds=0.2))
    (tmp_path / "taken").mkdir()
    out, code = {"missing-dir": (tmp_path / "nodir" / "x.wav", errno.ENOENT),
                 "directory": (tmp_path / "taken", errno.EISDIR)}[target]
    flags = {"apply": ["--coeffs", str(coeffs)],
             "filter": ["--filter", str(tmp_path / "f.filt")]}[command]
    capsys.readouterr()
    assert main([command, *flags, "--in", str(tmp_path / "in.wav"), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: [Errno {code}] {os.strerror(code)}: '{out}'\n"
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["c.coeffs", "f.filt", "in.wav",
                                                          "taken"]


@pytest.mark.parametrize("command,flags,message", [
    ("features", ["--hop", "0"], "--hop must be >= 1, got 0"),
    ("features", ["--n-fft", "1001"], "--n-fft must be an even integer >= 16, got 1001"),
    ("estimate", ["--hop", "0"], "--hop must be >= 1, got 0"),
    ("features", ["--n-mels", "0"], "--n-mels must be >= 1, got 0"),
    ("features", ["--n-mels", "1026"],
     "--n-mels must be <= n_fft/2 + 1 = 1025 for --n-fft 2048, got 1026"),
    ("features", ["--n-mels", str(10**12)],
     f"--n-mels must be <= n_fft/2 + 1 = 1025 for --n-fft 2048, got {10**12}"),
], ids=["features-hop", "features-n-fft", "estimate-hop", "features-n-mels",
        "features-n-mels-1026", "features-n-mels-1e12"])
def test_bad_stft_flags_are_named_not_blamed_on_a_file(command, flags, message, sim_dir,
                                                         tmp_path, capsys, monkeypatch):
    out = tmp_path / "out"
    # The flags are checked before any header is read.
    monkeypatch.setattr(cli.wavio, "read_wav_info", lambda path: pytest.fail(f"read {path}"))
    extra = ["--reference-device", "a"] if command == "estimate" else []
    code = main([command, "--manifest", str(sim_dir / "manifest.tsv"), *extra, *flags,
                 "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_design_fir_rejects_even_taps(sim_dir, tmp_path, capsys):
    coeffs_dir = tmp_path / "c"
    assert main(["estimate", "--manifest", str(sim_dir / "manifest.tsv"),
                 "--reference-device", "a", "--out", str(coeffs_dir)]) == 0
    code = main(["design-fir", "--coeffs", str(coeffs_dir / "b.coeffs"),
                 "--taps", "1024", "--out", str(tmp_path / "f.filt")])
    assert code == 1
    assert "odd" in capsys.readouterr().err


def test_design_fir_rejects_more_taps_than_n_fft_plus_one(sim_dir, tmp_path, capsys):
    coeffs_dir = tmp_path / "c"
    assert main(["estimate", "--manifest", str(sim_dir / "manifest.tsv"),
                 "--reference-device", "a", "--out", str(coeffs_dir)]) == 0
    filt_path = tmp_path / "f.filt"
    code = main(["design-fir", "--coeffs", str(coeffs_dir / "b.coeffs"),
                 "--taps", str(2 * N_FFT + 1), "--out", str(filt_path)])
    assert code == 1
    assert (f"--taps {2 * N_FFT + 1} exceeds n_fft + 1 = {N_FFT + 1} of --coeffs "
            f"{coeffs_dir / 'b.coeffs'}") in capsys.readouterr().err
    assert not filt_path.exists()


@pytest.mark.parametrize("taps,message", [
    (4, "--taps must be odd and >= 3, got 4"),
    (5001, f"--taps 5001 exceeds n_fft + 1 = {N_FFT + 1} of --coeffs {{coeffs}}: its "
           f"{N_FFT // 2 + 1} bins do not determine more taps"),
], ids=["4", "5001"])
def test_design_fir_names_the_taps_flag_and_the_coeffs_file(taps, message, tmp_path, capsys):
    coeffs = _random_coefficients(tmp_path / "c.coeffs")
    assert main(["design-fir", "--coeffs", str(coeffs), "--taps", str(taps),
                 "--out", str(tmp_path / "f.filt")]) == 1
    assert capsys.readouterr().err == f"error: {message.format(coeffs=coeffs)}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.coeffs"]


def test_design_and_filter_pipeline(sim_dir, tmp_path):
    coeffs_dir = tmp_path / "c"
    assert main(["estimate", "--manifest", str(sim_dir / "manifest.tsv"),
                 "--reference-device", "a", "--out", str(coeffs_dir)]) == 0
    filt_path = tmp_path / "b.filt"
    assert main(["design-fir", "--coeffs", str(coeffs_dir / "b.coeffs"),
                 "--taps", "257", "--out", str(filt_path)]) == 0
    in_path = tmp_path / "in.wav"
    sc.write_wav(in_path, white_waveform(92, seconds=0.3))
    out_path = tmp_path / "f.wav"
    assert main(["filter", "--filter", str(filt_path),
                 "--in", str(in_path), "--out", str(out_path)]) == 0
    assert len(sc.read_wav(out_path)) == len(sc.read_wav(in_path))
    raw_path = tmp_path / "raw.wav"
    assert main(["filter", "--filter", str(filt_path), "--in", str(in_path),
                 "--out", str(raw_path), "--no-delay-compensation"]) == 0
    assert len(sc.read_wav(raw_path)) == len(sc.read_wav(in_path)) + 257 - 1


def test_features_subcommand(sim_dir, tmp_path):
    coeffs_dir = tmp_path / "c"
    assert main(["estimate", "--manifest", str(sim_dir / "manifest.tsv"),
                 "--reference-device", "a", "--out", str(coeffs_dir)]) == 0
    feats_dir = tmp_path / "feats"
    assert main(["features", "--manifest", str(sim_dir / "manifest.tsv"),
                 "--coeffs-dir", str(coeffs_dir),
                 "--standardize", "per-device",
                 "--n-mels", "32", "--out", str(feats_dir)]) == 0
    produced = sorted(feats_dir.glob("*.feat"))
    assert len(produced) == 6
    feat = files.read_features(produced[0])
    assert feat.n_mels == 32
    assert feat.normalization == "per_device"


ESTIMATE_MODES = {
    "aligned": ["--reference-device", "a", "--aligned"],
    "unaligned": ["--reference-device", "a"],
    "none": ["--reference-device", "none"],
}


def _library_coefficients(manifest, mode):
    """The coefficients each estimate mode writes, computed by the library."""
    rows = files.read_manifest(manifest)
    specs = [sc.amplitude(sc.stft(sc.read_wav(manifest.parent / row.path), N_FFT, HOP))
             for row in rows]
    if mode == "aligned":
        groups = {}
        for row, spec in zip(rows, specs):
            groups.setdefault(row.group, {})[row.device] = spec
        pairs = [(members["a"], members["b"]) for members in groups.values()]
        return {"b": sc.estimate_aligned(pairs, reference_device="a", source_device="b")}
    stats = {d: sc.accumulate_stats([s for row, s in zip(rows, specs) if row.device == d], d)
             for d in ("a", "b")}
    if mode == "none":
        return {d: sc.simplified_coefficients(stats[d]) for d in ("a", "b")}
    return {"b": sc.estimate_unaligned(stats["a"], stats["b"])}


def test_estimate_is_deterministic_across_thread_counts(sim_dir, tmp_path,
                                                         monkeypatch):
    manifest = sim_dir / "manifest.tsv"
    for mode, flags in ESTIMATE_MODES.items():
        expected = _library_coefficients(manifest, mode)
        outputs = []
        for threads in ("1", "4"):
            monkeypatch.setenv("SPECCOR_THREADS", threads)
            out = tmp_path / f"{mode}{threads}"
            assert main(["estimate", "--manifest", str(manifest), *flags,
                         "--out", str(out)]) == 0
            assert sorted(p.stem for p in out.glob("*.coeffs")) == sorted(expected)
            for device, coeffs in expected.items():
                got = files.read_coefficients(out / f"{device}.coeffs")
                assert np.array_equal(got.gains, coeffs.gains), (mode, threads, device)
                assert got.num_recordings == coeffs.num_recordings
            outputs.append({p.name: p.read_bytes() for p in out.glob("*.coeffs")})
        assert outputs[0] == outputs[1], mode


def test_estimate_aligned_pools_each_device_over_the_groups_it_shares(tmp_path,
                                                                     monkeypatch):
    # c skips g1; its ungrouped row names no file, so exit 0 shows it is never read.
    monkeypatch.setenv("SPECCOR_THREADS", "2")
    rows = [files.ManifestRow("missing_c.wav", "c")]
    specs = {}
    for g, devices in enumerate(["abc", "ab"]):
        for k, device in enumerate(devices):
            name = f"g{g}_{device}.wav"
            sc.write_wav(tmp_path / name, white_waveform(300 + 3 * g + k, seconds=0.5))
            wave = sc.read_wav(tmp_path / name)
            specs[f"g{g}", device] = sc.amplitude(sc.stft(wave, N_FFT, HOP))
            rows.append(files.ManifestRow(name, device, f"g{g}"))
    manifest = tmp_path / "skips.tsv"
    files.write_manifest(manifest, rows)
    out = tmp_path / "out"
    assert main(["estimate", "--manifest", str(manifest), "--reference-device", "a",
                 "--aligned", "--out", str(out)]) == 0
    for device, groups in (("b", ["g0", "g1"]), ("c", ["g0"])):
        want = sc.estimate_aligned([(specs[g, "a"], specs[g, device]) for g in groups],
                                   reference_device="a", source_device=device)
        got = files.read_coefficients(out / f"{device}.coeffs")
        assert np.array_equal(got.gains, want.gains), device
        assert got.num_recordings == len(groups)
        assert (got.estimator, got.reference_device) == ("aligned", "a")


@pytest.fixture(scope="module")
def group_manifests(tmp_path_factory):
    """Manifests of 2 and of 6 aligned groups of 1 s recordings by devices a and b."""
    root = tmp_path_factory.mktemp("groups")
    rows = []
    for g in range(6):
        for k, device in enumerate("ab"):
            name = f"g{g}_{device}.wav"
            sc.write_wav(root / name, white_waveform(200 + 2 * g + k, seconds=1.0))
            rows.append(files.ManifestRow(name, device, f"g{g}"))
    manifests = {}
    for groups in (2, 6):
        manifests[groups] = root / f"groups{groups}.tsv"
        files.write_manifest(manifests[groups], rows[:2 * groups])
    return manifests


@pytest.mark.parametrize("mode", sorted(ESTIMATE_MODES))
def test_estimate_peak_memory_does_not_grow_with_the_corpus(group_manifests, mode,
                                                            tmp_path, monkeypatch):
    monkeypatch.setenv("SPECCOR_THREADS", "1")
    flags = ESTIMATE_MODES[mode]
    # Warm-up: lazy imports and caches must not count against the small corpus.
    assert main(["estimate", "--manifest", str(group_manifests[2]), *flags,
                 "--out", str(tmp_path / "warm")]) == 0
    peaks = {}
    for groups, manifest in group_manifests.items():
        tracemalloc.start()
        try:
            assert main(["estimate", "--manifest", str(manifest), *flags,
                         "--out", str(tmp_path / str(groups))]) == 0
            peaks[groups] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    frames = (SR - N_FFT) // HOP + 1
    spectrogram_bytes = frames * (N_FFT // 2 + 1) * 8
    assert peaks[6] - peaks[2] < spectrogram_bytes, peaks


@pytest.mark.parametrize("mode", sorted(ESTIMATE_MODES))
def test_estimate_names_the_file_at_another_sample_rate(sim_dir, tmp_path, mode,
                                                       monkeypatch, capsys):
    odd = tmp_path / "odd_b.wav"
    sc.write_wav(odd, sc.Waveform(sc.read_wav(sim_dir / "g0001_b.wav").samples, 48000))
    manifest = tmp_path / "rates.tsv"
    files.write_manifest(manifest, [
        files.ManifestRow(str(sim_dir / "g0000_a.wav"), "a", "g0"),
        files.ManifestRow(str(sim_dir / "g0000_b.wav"), "b", "g0"),
        files.ManifestRow(str(sim_dir / "g0001_a.wav"), "a", "g1"),
        files.ManifestRow(str(odd), "b", "g1"),
    ])
    # The rates are compared before any audio is read.
    monkeypatch.setattr(wavio.open_wav, "_read_raw", lambda self: pytest.fail(f"read {self.path}"))
    assert main(["estimate", "--manifest", str(manifest), *ESTIMATE_MODES[mode],
                 "--out", str(tmp_path / "c")]) == 1
    err = capsys.readouterr().err
    assert f"{odd}: mixed sample rates: device 'b' in group 'g1' is at 48000 Hz" in err, err
    first = "g0000_b.wav" if mode == "none" else "g0000_a.wav"
    assert first in err and "44100 Hz" in err, err


SIM_THREAD_CONFIGS = {
    "aligned-environments": "[sim]\nseed = 4\nnum_recordings = 3\nduration = 0.5\n"
                            "source = pink\naligned = true\ndevices = a b c\n"
                            "environments = 2\n",
    "unaligned-hop-384": "[sim]\nseed = 5\nnum_recordings = 2\nduration = 0.5\n"
                         "aligned = false\ndevices = a b\nenvironments = 1\nhop = 384\n",
}


@pytest.mark.parametrize("name", sorted(SIM_THREAD_CONFIGS))
def test_simulate_is_byte_identical_across_thread_counts(name, tmp_path, monkeypatch):
    config = tmp_path / "sim.cfg"
    config.write_text(SIM_THREAD_CONFIGS[name])
    trees = {}
    for threads in ("1", "2", "4"):
        monkeypatch.setenv("SPECCOR_THREADS", threads)
        out = tmp_path / threads
        assert main(["simulate", "--config", str(config), "--out", str(out)]) == 0
        trees[threads] = {p.name: p.read_bytes() for p in out.iterdir()}
    assert trees["2"] == trees["1"] and trees["4"] == trees["1"]
    dataset = sc.generate_dataset(sc.simulate.read_config(config))
    rows = files.read_manifest(tmp_path / "1" / "manifest.tsv")
    assert [row.path for row in rows] == [f"{r.recording_id}.wav" for r in dataset.waveforms]
    for rec in dataset.waveforms:
        got = sc.read_wav(tmp_path / "1" / f"{rec.recording_id}.wav").samples
        assert np.array_equal(got, rec.waveform.samples.astype(np.float32))


def test_simulate_peak_memory_does_not_grow_with_the_groups(tmp_path, monkeypatch):
    monkeypatch.setenv("SPECCOR_THREADS", "1")

    def simulate(groups, out):
        config = tmp_path / f"sim{groups}.cfg"
        config.write_text(f"[sim]\nseed = 7\nnum_recordings = {groups}\nduration = 1.0\n"
                          "aligned = true\ndevices = a b\n")
        assert main(["simulate", "--config", str(config), "--out", str(tmp_path / out)]) == 0

    simulate(2, "warm")  # lazy imports and caches must not count against 2 groups
    peaks = {}
    for groups in (2, 6):
        tracemalloc.start()
        try:
            simulate(groups, str(groups))
            peaks[groups] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    recording_bytes = SR * 8
    assert peaks[6] - peaks[2] < recording_bytes, peaks


def test_simulate_gives_the_same_bytes_on_every_run(tmp_path, monkeypatch):
    config = tmp_path / "sim.cfg"
    config.write_text(SIM_THREAD_CONFIGS["aligned-environments"])
    monkeypatch.setenv("SPECCOR_THREADS", "2")
    trees = []
    for run in range(3):
        out = tmp_path / str(run)
        assert main(["simulate", "--config", str(config), "--out", str(out)]) == 0
        trees.append({p.name: p.read_bytes() for p in out.iterdir()})
    assert trees[1] == trees[0] and trees[2] == trees[0]
    assert len(trees[0]) == 3 * 3 + 2 and not any(name.endswith(".part") for name in trees[0])


def test_simulate_streams_each_device_to_its_file(tmp_path, monkeypatch):
    """A group of 4 devices holds one block set per extra device over a group
    of 2, not its full-length outputs (a 20 s float64 recording is 7 MB)."""
    monkeypatch.setenv("SPECCOR_THREADS", "1")

    def simulate(devices, out):
        config = tmp_path / f"sim{out}.cfg"
        config.write_text(f"[sim]\nseed = 8\nnum_recordings = 1\nduration = 20.0\n"
                          f"aligned = true\ndevices = {devices}\n")
        assert main(["simulate", "--config", str(config), "--out", str(tmp_path / out)]) == 0

    simulate("a b", "warm")
    peaks = {}
    for devices in ("a b", "a b c d"):
        tracemalloc.start()
        try:
            simulate(devices, str(len(devices)))
            peaks[devices] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    block_set = sc.dsp.BLOCK_FRAMES * 8 * (2 * N_FFT + 2 * 2 * (N_FFT // 2 + 1))
    assert peaks["a b c d"] - peaks["a b"] < 2 * block_set, peaks


@pytest.mark.parametrize("source", ["white", "pink", "speechlike-modulated"])
def test_simulate_peak_memory_is_independent_of_recording_length(source, tmp_path,
                                                                 monkeypatch):
    """A worker draws its source as it is read, so a 30 s group peaks within
    1 MB of a 3 s group (the whole 30 s source is 10.6 MB as float64)."""
    monkeypatch.setenv("SPECCOR_THREADS", "1")

    def simulate(seconds, out):
        config = tmp_path / f"sim{out}.cfg"
        config.write_text(f"[sim]\nseed = 8\nnum_recordings = 1\nduration = {seconds}\n"
                          f"source = {source}\naligned = true\ndevices = a b\n")
        assert main(["simulate", "--config", str(config), "--out", str(tmp_path / out)]) == 0

    simulate(3.0, "warm")
    peaks = {}
    for seconds in (3.0, 30.0):
        tracemalloc.start()
        try:
            simulate(seconds, str(seconds))
            peaks[seconds] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[30.0] - peaks[3.0] < 1 << 20, peaks


BAD_SIM_CONFIGS = {
    "no-section-header": ("seed = 1\n", "[sim]:"),
    "duplicate-section": ("[sim]\nseed = 1\n[sim]\nseed = 2\n", "[sim]:"),
    "duplicate-key": ("[sim]\nseed = 1\nseed = 2\n", "[sim] seed:"),
    "num-recordings-not-an-integer": ("[sim]\nnum_recordings = x\n", "[sim] num_recordings:"),
    "duration-nan": ("[sim]\nduration = nan\n", "[sim] duration:"),
    "duration-infinite": ("[sim]\nduration = inf\n", "[sim] duration:"),
    "duration-1e308": ("[sim]\nduration = 1e308\n", "[sim] duration:"),
    "duration-1e6": ("[sim]\nduration = 1e6\n", "[sim] duration:"),
    "n-fft-2**31": ("[sim]\nn_fft = 2147483648\nduration = 0.2\n", "[sim] duration:"),
    "seed-negative": ("[sim]\nseed = -1\n", "[sim] seed:"),
    "environments-negative": ("[sim]\nenvironments = -2\n", "[sim] environments:"),
    "environments-above-num-recordings": ("[sim]\nnum_recordings = 2\nenvironments = 3\n",
                                          "[sim] environments: must be in 0..num_recordings"),
    "environments-2**31": ("[sim]\nenvironments = 2147483648\n", "[sim] environments:"),
    "num-recordings-2**31": ("[sim]\nnum_recordings = 2147483648\nenvironments = 2147483648\n",
                             "[sim] num_recordings:"),
    "response-db-infinite": ("[sim]\nresponse_db = -inf\n", "[sim] response_db:"),
    "environment-db-nan": ("[sim]\nenvironments = 1\nenvironment_db = nan\n",
                           "[sim] environment_db:"),
    "aligned-not-a-boolean": ("[sim]\naligned = maybe\n", "[sim] aligned:"),
    "hop-not-invertible": ("[sim]\nhop = 2048\n", "[sim] hop:"),
    "hop-barely-overlapping": ("[sim]\nhop = 2044\n", "[sim] hop:"),
    "device-name-with-slash": ("[sim]\ndevices = a/b c\n", "[sim] devices: device 'a/b'"),
    "device-name-not-ascii": ("[sim]\ndevices = \u00fc c\n", "[sim] devices: device '\u00fc'"),
    "aligned-one-device": ("[sim]\naligned = true\ndevices = a\n",
                           "[sim] devices: an aligned dataset needs at least two devices"),
    "line-without-equals": ("[sim]\nseed = 1\njunk\n", "line 3:"),
    "unknown-key": ("[sim]\nnum_recording = 1\ndevicse = x y z\nsorce = pink\n",
                    "[sim] num_recording: unknown key"),
}


@pytest.mark.parametrize("name", sorted(BAD_SIM_CONFIGS))
def test_simulate_rejects_bad_config_naming_file_and_key(name, tmp_path, capsys):
    text, prefix = BAD_SIM_CONFIGS[name]
    config = tmp_path / "sim.cfg"
    config.write_text(text)
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(config), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {config}: {prefix}")
    assert not out.exists()


def test_simulate_reads_percent_signs_literally(tmp_path):
    config = tmp_path / "sim.cfg"
    config.write_text("[sim]\nnum_recordings = 1\nduration = 0.1\ndevices = a%b c\n")
    assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "out")]) == 0
    assert (tmp_path / "out" / "g0000_a%b.wav").exists()


def test_cli_usage_error_exits_1(capsys):
    assert main(["estimate", "--manifest"]) == 1
    assert main(["no-such-command"]) == 1


def test_cli_module_entry_point(tmp_path):
    src = Path(sc.__file__).resolve().parents[1]
    result = subprocess.run([sys.executable, "-m", "speccor", "--help"],
                            capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": str(src)})
    assert result.returncode == 0
    assert "estimate" in result.stdout


def test_features_builds_one_filterbank_per_sample_rate(tmp_path, monkeypatch):
    rows = []
    for k in range(8):
        rate = (44100, 48000)[k % 2]
        name = f"r{k}.wav"
        sc.write_wav(tmp_path / name, white_waveform(300 + k, seconds=0.2, sample_rate=rate))
        rows.append(files.ManifestRow(name, "ab"[k // 4]))
    manifest = tmp_path / "mixed.tsv"
    files.write_manifest(manifest, rows)

    calls = []
    mel_filterbank = sc.mel_filterbank  # the package name follows the patch below

    def counting_filterbank(sample_rate, n_fft, n_mels):
        calls.append(sample_rate)
        time.sleep(0.05)  # widen the window in which a second worker could miss
        return mel_filterbank(sample_rate, n_fft, n_mels)

    monkeypatch.setattr("speccor.features.mel_filterbank", counting_filterbank)
    monkeypatch.setenv("SPECCOR_THREADS", "4")
    out = tmp_path / "feats"
    assert main(["features", "--manifest", str(manifest), "--n-mels", "32",
                 "--out", str(out)]) == 0
    assert sorted(calls) == [44100, 48000]
    for row in rows:
        wave = sc.read_wav(tmp_path / row.path)
        want = sc.extract(sc.amplitude(sc.stft(wave, N_FFT, HOP)),
                          mel_filterbank(wave.sample_rate, N_FFT, 32))
        got = files.read_features(out / (Path(row.path).stem + ".feat"))
        assert np.array_equal(got.values, want.values)


def _library_features(manifest, coeffs_dir, standardize):
    """What features writes per output name, computed by the whole-matrix library path."""
    rows = files.read_manifest(manifest)
    fb = sc.mel_filterbank(SR, N_FFT, 32)
    feats = []
    for row in rows:
        path = coeffs_dir / f"{row.device}.coeffs"
        coeffs = files.read_coefficients(path) if path.exists() else None
        spec = sc.amplitude(sc.stft(sc.read_wav(manifest.parent / row.path), N_FFT, HOP))
        feats.append(sc.extract(spec, fb, coeffs))
    if standardize:
        feats, _ = sc.standardize(feats, "per_device", [row.device for row in rows])
    return {Path(row.path).stem + ".feat": feat for row, feat in zip(rows, feats)}


@pytest.mark.parametrize("standardize", [False, True], ids=["raw", "per-device"])
def test_features_is_byte_identical_across_thread_counts(standardize, sim_dir, tmp_path,
                                                         monkeypatch):
    manifest = sim_dir / "manifest.tsv"
    coeffs_dir = tmp_path / "c"
    assert main(["estimate", "--manifest", str(manifest), "--reference-device", "a",
                 "--aligned", "--out", str(coeffs_dir)]) == 0
    flags = ["--standardize", "per-device"] if standardize else []
    expected = _library_features(manifest, coeffs_dir, standardize)
    trees = {}
    for threads in ("1", "2", "4"):
        monkeypatch.setenv("SPECCOR_THREADS", threads)
        out = tmp_path / threads
        assert main(["features", "--manifest", str(manifest), "--coeffs-dir", str(coeffs_dir),
                     *flags, "--n-mels", "32", "--out", str(out)]) == 0
        trees[threads] = {p.name: p.read_bytes() for p in out.iterdir()}
    assert trees["2"] == trees["1"] and trees["4"] == trees["1"]
    assert sorted(trees["1"]) == sorted(expected)
    for name, feat in expected.items():
        got = files.read_features(tmp_path / "1" / name)
        assert np.array_equal(got.values, feat.values), name
        assert (got.normalization, got.stats_id, got.correction) == (
            feat.normalization, feat.stats_id, feat.correction)


@pytest.mark.parametrize("standardize", [False, True], ids=["raw", "per-device"])
def test_features_peak_memory_does_not_grow_with_the_corpus(standardize, group_manifests,
                                                            tmp_path, monkeypatch):
    monkeypatch.setenv("SPECCOR_THREADS", "1")
    flags = ["--standardize", "per-device"] if standardize else []
    assert main(["features", "--manifest", str(group_manifests[2]), *flags,
                 "--out", str(tmp_path / "warm")]) == 0
    peaks = {}
    for groups, manifest in group_manifests.items():
        tracemalloc.start()
        try:
            assert main(["features", "--manifest", str(manifest), *flags,
                         "--out", str(tmp_path / str(groups))]) == 0
            peaks[groups] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    tensor_bytes = ((SR - N_FFT) // HOP + 1) * 256 * 8
    # Standardizing keeps the raw log-mel tensors on disk, not in memory.
    assert peaks[6] - peaks[2] < tensor_bytes, peaks


def test_features_standardize_leaves_only_the_feature_files(sim_dir, tmp_path):
    out = tmp_path / "f"
    assert main(["features", "--manifest", str(sim_dir / "manifest.tsv"), "--standardize",
                 "global", "--n-mels", "32", "--out", str(out)]) == 0
    rows = files.read_manifest(sim_dir / "manifest.tsv")
    assert sorted(p.name for p in out.iterdir()) == sorted(
        Path(row.path).stem + ".feat" for row in rows)


def test_features_standardize_leaves_empty_out_for_a_bad_last_file(tmp_path, monkeypatch,
                                                                    capsys):
    rows = []
    for k in range(3):
        sc.write_wav(tmp_path / f"r{k}.wav", white_waveform(420 + k, seconds=0.2))
        rows.append(files.ManifestRow(f"r{k}.wav", "ab"[k % 2]))
    # A float WAV whose header is sound but whose audio holds a NaN: only
    # reading the samples finds it, after the header pass.
    sc.write_wav(tmp_path / "nan.wav", white_waveform(423, seconds=0.2))
    raw = bytearray((tmp_path / "nan.wav").read_bytes())
    raw[-4:] = np.array([np.nan], dtype="<f4").tobytes()
    (tmp_path / "nan.wav").write_bytes(bytes(raw))
    manifest = tmp_path / "m.tsv"
    files.write_manifest(manifest, rows + [files.ManifestRow("nan.wav", "b")])
    monkeypatch.setenv("SPECCOR_THREADS", "2")
    out = tmp_path / "f"
    assert main(["features", "--manifest", str(manifest), "--standardize", "per-device",
                 "--n-mels", "32", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {tmp_path / 'nan.wav'}: "), err
    assert list(out.iterdir()) == []


def test_features_standardize_leaves_empty_out_when_scaling_fails(sim_dir, tmp_path,
                                                                  monkeypatch, capsys):
    """The in-place write of the last file's second block of scaled rows fails
    after every raw file exists, under its part name, and its first block is
    scaled: no .feat file and no part is left."""
    rows = files.read_manifest(sim_dir / "manifest.tsv")
    parts = [Path(row.path).stem + ".feat.part" for row in rows]
    out = tmp_path / "f"
    overwrite = files.overwrite_feature_rows

    def full_disk(path, offset, values, first=0):
        if path.name == parts[-1] and first > 0:
            assert sorted(p.name for p in out.iterdir()) == sorted(parts)  # the raw pass is done
            raise OSError(28, "No space left on device")
        return overwrite(path, offset, values, first)

    monkeypatch.setattr(files, "overwrite_feature_rows", full_disk)
    monkeypatch.setenv("SPECCOR_THREADS", "2")
    assert main(["features", "--manifest", str(sim_dir / "manifest.tsv"), "--standardize",
                 "per-device", "--n-mels", "32", "--out", str(out)]) == 2
    assert "No space left on device" in capsys.readouterr().err
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("grouping", ["global", "per-device"])
def test_features_standardize_writes_each_file_once(grouping, sim_dir, tmp_path, monkeypatch):
    """Every .feat file is written once, under its final header and its part
    name, and scaled in place: no second file is written, and each part is
    renamed once to its .feat name, in manifest order, after every part is
    scaled."""
    write, overwrite, replace = files.write_feature_blocks, files.overwrite_feature_rows, os.replace
    written, events = [], []

    def counted_write(path, *args, **kwargs):
        written.append(path.name)
        return write(path, *args, **kwargs)

    def counted_overwrite(path, *args, **kwargs):
        events.append(("scale", path.name))
        return overwrite(path, *args, **kwargs)

    def counted_replace(src, dst):
        events.append(("rename", Path(src).name, Path(dst).name))
        return replace(src, dst)

    monkeypatch.setattr(files, "write_feature_blocks", counted_write)
    monkeypatch.setattr(files, "overwrite_feature_rows", counted_overwrite)
    monkeypatch.setattr(os, "replace", counted_replace)
    monkeypatch.setenv("SPECCOR_THREADS", "2")
    out = tmp_path / "f"
    assert main(["features", "--manifest", str(sim_dir / "manifest.tsv"), "--standardize",
                 grouping, "--n-mels", "32", "--out", str(out)]) == 0
    names = [Path(row.path).stem + ".feat" for row in files.read_manifest(sim_dir / "manifest.tsv")]
    assert sorted(written) == sorted(name + ".part" for name in names)
    renames = [event[1:] for event in events if event[0] == "rename"]
    assert renames == [(name + ".part", name) for name in names]
    scaled = events[:len(events) - len(renames)]
    assert set(scaled) == {("scale", name + ".part") for name in names}
    for name in names:
        assert files.read_features(out / name).normalization == grouping.replace("-", "_")


# Runs the CLI on argv[3:] in this process, killed with SIGKILL at call argv[2]
# of argv[1]: a speccor.files function, or os.replace.
KILL_AT_CALL = """
import os, signal, sys
from speccor import cli, files

owner = os if sys.argv[1] == "replace" else files
real, calls = getattr(owner, sys.argv[1]), [0]

def kill_at(*args, **kwargs):
    calls[0] += 1
    if calls[0] == int(sys.argv[2]):
        os.kill(os.getpid(), signal.SIGKILL)
    return real(*args, **kwargs)

setattr(owner, sys.argv[1], kill_at)
sys.exit(cli.main(sys.argv[3:]))
"""


@pytest.mark.parametrize("call,at", [("write_feature_blocks", 4), ("overwrite_feature_rows", 1),
                                     ("overwrite_feature_rows", 5), ("replace", 3)],
                         ids=["raw-pass", "first-scale", "mid-scale", "publish"])
def test_features_standardize_killed_leaves_only_finished_feature_files(call, at, sim_dir,
                                                                        tmp_path):
    """A run killed by SIGKILL leaves each .feat file with the bytes that an
    exit-0 run gives it, or no such file; only .part files may hold rows that
    their header does not describe."""
    flags = ["features", "--manifest", str(sim_dir / "manifest.tsv"), "--standardize",
             "per-device", "--n-mels", "32"]
    env = {**os.environ, "PYTHONPATH": str(Path(sc.__file__).resolve().parents[1]),
           "SPECCOR_THREADS": "1"}
    assert main([*flags, "--out", str(tmp_path / "whole")]) == 0
    want = _tree(tmp_path / "whole")
    out = tmp_path / "killed"
    result = subprocess.run([sys.executable, "-c", KILL_AT_CALL, call, str(at), *flags,
                             "--out", str(out)], env=env, capture_output=True, text=True)
    assert result.returncode == -9, result.stderr
    left = _tree(out)
    finished = {name: data for name, data in left.items() if name.suffix == ".feat"}
    assert finished == {name: want[name] for name in finished}
    assert len(finished) == (2 if call == "replace" else 0)
    assert all(name.suffix == ".part" and Path(name.stem) in want
               for name in left if name not in finished), sorted(left)


@pytest.mark.parametrize("flags", [[], ["--standardize", "global"]], ids=["plain", "global"])
def test_features_failure_keeps_unrelated_files_in_out(flags, nan_manifest, tmp_path,
                                                      monkeypatch):
    monkeypatch.setenv("SPECCOR_THREADS", "2")
    out = tmp_path / "out"
    out.mkdir()
    for name in ("notes.txt", "other.feat"):
        (out / name).write_text("kept\n")
    assert main(["features", "--n-mels", "32", *flags,
                 "--manifest", str(nan_manifest), "--out", str(out)]) == 2
    assert sorted(p.name for p in out.iterdir()) == ["notes.txt", "other.feat"]
    assert (out / "other.feat").read_text() == "kept\n"


@pytest.fixture(scope="module")
def length_manifests(tmp_path_factory):
    """Manifests of one 3 s and of one 30 s recording by each of devices a and b."""
    root = tmp_path_factory.mktemp("lengths")
    manifests = {}
    for seconds in (3, 30):
        rows = []
        for k, device in enumerate("ab"):
            name = f"{device}{seconds}.wav"
            sc.write_wav(root / name, white_waveform(300 + seconds + k, seconds=seconds))
            rows.append(files.ManifestRow(name, device))
        manifests[seconds] = root / f"s{seconds}.tsv"
        files.write_manifest(manifests[seconds], rows)
    return manifests


LENGTH_COMMANDS = {
    "estimate": ["estimate", "--reference-device", "a"],
    "features-standardize": ["features", "--standardize", "per-device"],
}


@pytest.mark.parametrize("command", sorted(LENGTH_COMMANDS))
def test_peak_memory_is_independent_of_recording_length(command, length_manifests,
                                                        tmp_path, monkeypatch):
    monkeypatch.setenv("SPECCOR_THREADS", "1")
    flags = LENGTH_COMMANDS[command]
    assert main([*flags, "--manifest", str(length_manifests[3]),
                 "--out", str(tmp_path / "warm")]) == 0
    peaks = {}
    for seconds, manifest in length_manifests.items():
        tracemalloc.start()
        try:
            assert main([*flags, "--manifest", str(manifest),
                         "--out", str(tmp_path / str(seconds))]) == 0
            peaks[seconds] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    # A 30 s float32 file holds 5.3 MB of samples, 10.6 MB as float64.
    assert peaks[30] - peaks[3] < wavio.READ_CHUNK_BYTES, peaks


@pytest.mark.parametrize("command", ["apply", "filter"])
def test_output_peak_memory_is_independent_of_recording_length(command, length_manifests,
                                                               tmp_path):
    coeffs = _random_coefficients(tmp_path / "c.coeffs")
    flags = (["apply", "--coeffs", str(coeffs)] if command == "apply"
             else _filter_flags(tmp_path, coeffs))

    def run(seconds, out):
        wav = length_manifests[seconds].parent / f"b{seconds}.wav"
        assert main([*flags, "--in", str(wav), "--out", str(tmp_path / out)]) == 0

    run(3, "warm.wav")
    peaks = {}
    for seconds in (3, 30):
        tracemalloc.start()
        try:
            run(seconds, f"{seconds}.wav")
            peaks[seconds] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[30] - peaks[3] < wavio.READ_CHUNK_BYTES, peaks


def _open_fds():
    return len(os.listdir("/proc/self/fd"))


@pytest.fixture
def nan_manifest(tmp_path):
    """Four 4 s recordings by devices a, b, a, b; the second holds a NaN past
    its first read chunk, where only reading its samples finds it."""
    rows = []
    for k, device in enumerate("abab"):
        sc.write_wav(tmp_path / f"r{k}.wav", white_waveform(430 + k, seconds=4.0))
        rows.append(files.ManifestRow(f"r{k}.wav", device))
    raw = bytearray((tmp_path / "r1.wav").read_bytes())
    at = 44 + 4 * (wavio.READ_CHUNK_BYTES // 4 + 1000)
    raw[at:at + 4] = np.array([np.nan], dtype="<f4").tobytes()
    (tmp_path / "r1.wav").write_bytes(bytes(raw))
    manifest = tmp_path / "m.tsv"
    files.write_manifest(manifest, rows)
    return manifest


@pytest.mark.parametrize("command", ["estimate", "features", "features-standardize"])
def test_a_non_finite_sample_mid_stream_exits_2_and_writes_nothing(command, nan_manifest,
                                                                   tmp_path, monkeypatch,
                                                                   capsys):
    monkeypatch.setenv("SPECCOR_THREADS", "2")
    flags = {"estimate": ["estimate", "--reference-device", "a"],
             "features": ["features", "--n-mels", "32"],
             "features-standardize": ["features", "--n-mels", "32", "--standardize",
                                      "per-device"]}[command]
    out = tmp_path / "out"
    before = _open_fds()
    assert main([*flags, "--manifest", str(nan_manifest), "--out", str(out)]) == 2
    assert _open_fds() == before
    err = capsys.readouterr().err
    assert err == f"error: {tmp_path / 'r1.wav'}: waveform samples must be finite\n", err
    if command == "estimate":
        assert not out.exists()
    else:
        assert list(out.iterdir()) == []


def test_apply_of_a_non_finite_sample_mid_stream_leaves_no_out(nan_manifest, tmp_path,
                                                               capsys):
    coeffs = _random_coefficients(tmp_path / "c.coeffs")
    out = tmp_path / "out.wav"
    before = _open_fds()
    assert main(["apply", "--coeffs", str(coeffs), "--in", str(tmp_path / "r1.wav"),
                 "--out", str(out)]) == 2
    assert _open_fds() == before
    assert capsys.readouterr().err == (f"error: {tmp_path / 'r1.wav'}: waveform samples "
                                       "must be finite\n")
    assert not out.exists() and not (tmp_path / "out.wav.part").exists()


def _tree(root) -> dict:
    return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.fixture(scope="module")
def full_disk_inputs(tmp_path_factory):
    """A small [sim] config, and a .coeffs and a .filt file at 44.1 kHz."""
    root = tmp_path_factory.mktemp("full-disk")
    (root / "sim.cfg").write_text("[sim]\nseed = 2\nnum_recordings = 2\nduration = 0.5\n"
                                  "sample_rate = 8000\nn_fft = 256\ndevices = a b\n")
    coeffs = _random_coefficients(root / "b.coeffs")
    assert main(["design-fir", "--coeffs", str(coeffs), "--taps", "65",
                 "--out", str(root / "b.filt")]) == 0
    return root


# Each writing subcommand, as (argv after the subcommand with {out} for --out's
# directory, the files --out holds before the run); every run writes into {out}.
FULL_DISK_RUNS = {
    "estimate": (["--manifest", "{sim}/manifest.tsv", "--reference-device", "none",
                  "--out", "{out}"], ["a.coeffs"]),
    "features": (["--manifest", "{sim}/manifest.tsv", "--n-mels", "32", "--out", "{out}"],
                 ["g0000_a.feat"]),
    "features-standardize": (["--manifest", "{sim}/manifest.tsv", "--n-mels", "32",
                              "--standardize", "per-device", "--out", "{out}"],
                             ["g0001_b.feat"]),
    "simulate": (["--config", "{inputs}/sim.cfg", "--out", "{out}"],
                 ["manifest.tsv", "g0000_a.wav"]),
    "apply": (["--coeffs", "{inputs}/b.coeffs", "--in", "{sim}/g0000_b.wav",
               "--out", "{out}/x.wav"], ["x.wav"]),
    "filter": (["--filter", "{inputs}/b.filt", "--in", "{sim}/g0000_b.wav",
                "--out", "{out}/x.wav"], ["x.wav"]),
    "design-fir": (["--coeffs", "{inputs}/b.coeffs", "--taps", "65", "--out", "{out}/x.filt"],
                   ["x.filt"]),
}


@pytest.mark.parametrize("name", sorted(FULL_DISK_RUNS))
def test_a_full_disk_exits_2_and_leaves_out_as_it_was(name, sim_dir, full_disk_inputs,
                                                      tmp_path, disk_writes, monkeypatch,
                                                      capsys):
    """A write that fails with ENOSPC, at the first, second, middle or last of
    a run's writes, exits 2 and leaves --out as it was: no output name that
    was not there, no part, and the old bytes of each file that was."""
    monkeypatch.setenv("SPECCOR_THREADS", "1")
    flags, kept = FULL_DISK_RUNS[name]

    def argv(out):
        command = name.replace("-standardize", "")
        return [command] + [flag.format(sim=sim_dir, inputs=full_disk_inputs, out=out)
                            for flag in flags]

    (tmp_path / "fresh").mkdir()
    disk_writes.count = 0
    assert main(argv(tmp_path / "fresh")) == 0
    total = disk_writes.count
    out = tmp_path / "out"
    out.mkdir()
    for stem in [*kept, "notes.txt"]:
        (out / stem).write_bytes(f"old {stem}\n".encode())
    before = _tree(out)
    for fail_at in sorted({1, 2, (total + 1) // 2, total} & set(range(1, total + 1))):
        capsys.readouterr()
        disk_writes.count, disk_writes.fail_at = 0, fail_at
        assert main(argv(out)) == 2, fail_at
        disk_writes.fail_at = None
        assert "No space left on device" in capsys.readouterr().err
        assert _tree(out) == before, fail_at


@pytest.mark.parametrize("command", ["apply", "filter"])
def test_an_output_that_overflows_float32_exits_1_and_leaves_no_out(command, tmp_path,
                                                                    capsys):
    # A legal float32 file near full float32 range, raised by 6 dB.
    coeffs = tmp_path / "c.coeffs"
    files.write_coefficients(coeffs, sc.CorrectionCoefficients(
        np.full(N_FFT // 2 + 1, 10.0 ** (6.0 / 20.0)), N_FFT, SR, "b", "a", 1, "aligned"))
    signs = np.random.default_rng(97).choice([-1.0, 1.0], 8192)
    sc.write_wav(tmp_path / "in.wav", sc.Waveform(signs * 3e38, SR))
    flags = (["apply", "--coeffs", str(coeffs)] if command == "apply"
             else _filter_flags(tmp_path, coeffs))
    out = tmp_path / "out.wav"
    capsys.readouterr()
    assert main([*flags, "--in", str(tmp_path / "in.wav"), "--out", str(out)]) == 1
    assert capsys.readouterr().err == (f"error: {out}: samples must be finite to be written "
                                       "as float32\n")
    assert not out.exists() and not (tmp_path / "out.wav.part").exists()


@pytest.mark.parametrize("extra", [[], ["--no-delay-compensation"]],
                         ids=["compensated", "no-delay-compensation"])
def test_filter_of_a_file_without_samples_names_in_before_creating_out(extra, tmp_path,
                                                                       capsys):
    flags = _filter_flags(tmp_path, _random_coefficients(tmp_path / "c.coeffs"))
    wav = tmp_path / "in.wav"
    sc.write_wav(wav, sc.Waveform(np.zeros(0), SR))
    capsys.readouterr()
    assert main([*flags, "--in", str(wav), "--out", str(tmp_path / "out.wav"), *extra]) == 1
    assert capsys.readouterr().err == f"error: --in {wav}: no samples to filter\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.coeffs", "f.filt", "in.wav"]


@pytest.mark.parametrize("command", [["estimate", "--reference-device", "a"],
                                     ["estimate", "--reference-device", "a", "--aligned"],
                                     ["features"],
                                     ["features", "--standardize", "global"]],
                         ids=["unaligned", "aligned", "features", "standardize"])
def test_estimate_and_features_close_every_file(command, sim_dir, tmp_path, monkeypatch):
    monkeypatch.setenv("SPECCOR_THREADS", "2")
    before = _open_fds()
    assert main([*command, "--manifest", str(sim_dir / "manifest.tsv"),
                 "--out", str(tmp_path / "out")]) == 0
    assert _open_fds() == before


def test_features_rejects_coefficients_of_another_sample_rate(sim_dir, tmp_path, capsys):
    coeffs_dir = tmp_path / "c"
    assert main(["estimate", "--manifest", str(sim_dir / "manifest.tsv"),
                 "--reference-device", "a", "--aligned", "--out", str(coeffs_dir)]) == 0
    path = coeffs_dir / "b.coeffs"
    path.write_text(path.read_text().replace(f"sample_rate {SR}\n", "sample_rate 48000\n"))
    assert files.read_coefficients(path).sample_rate == 48000
    capsys.readouterr()
    assert main(["features", "--manifest", str(sim_dir / "manifest.tsv"),
                 "--coeffs-dir", str(coeffs_dir), "--out", str(tmp_path / "f")]) == 1
    err = capsys.readouterr().err
    assert str(path) in err and "48000 Hz" in err and f"{SR} Hz" in err


def test_features_rejects_coefficients_of_another_device(sim_dir, tmp_path, capsys):
    coeffs_dir = tmp_path / "c"
    assert main(["estimate", "--manifest", str(sim_dir / "manifest.tsv"),
                 "--reference-device", "a", "--aligned", "--out", str(coeffs_dir)]) == 0
    path = coeffs_dir / "a.coeffs"
    path.write_bytes((coeffs_dir / "b.coeffs").read_bytes())
    capsys.readouterr()
    out = tmp_path / "f"
    assert main(["features", "--manifest", str(sim_dir / "manifest.tsv"),
                 "--coeffs-dir", str(coeffs_dir), "--out", str(out)]) == 1
    assert capsys.readouterr().err == (f"error: {path}: coefficients are for device 'b', "
                                       "not 'a'\n")
    assert not out.exists()


@pytest.mark.parametrize("kind", ["missing", "file"])
def test_features_rejects_a_coefficients_dir_that_is_not_a_directory(kind, sim_dir, tmp_path,
                                                                     capsys):
    coeffs_dir = tmp_path / "c"
    if kind == "file":
        coeffs_dir.write_text("")
    out = tmp_path / "f"
    assert main(["features", "--manifest", str(sim_dir / "manifest.tsv"),
                 "--coeffs-dir", str(coeffs_dir), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: --coeffs-dir {coeffs_dir}: no such directory\n"
    assert not out.exists()


def test_features_checks_coefficients_n_fft_before_reading_audio(tmp_path, capsys):
    (tmp_path / "x.wav").write_bytes(b"not a wav file")  # would exit 2 if read
    manifest = tmp_path / "m.tsv"
    files.write_manifest(manifest, [files.ManifestRow("x.wav", "b")])
    coeffs_dir = tmp_path / "c"
    coeffs_dir.mkdir()
    files.write_coefficients(coeffs_dir / "b.coeffs", sc.CorrectionCoefficients(
        np.ones(513), 1024, SR, "b", "a", 1, "aligned"))
    out = tmp_path / "f"
    assert main(["features", "--manifest", str(manifest), "--coeffs-dir", str(coeffs_dir),
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert str(coeffs_dir / "b.coeffs") in err and "n_fft=1024" in err and "x.wav" not in err
    assert not out.exists()


def test_features_rejects_duplicate_stems_before_writing(tmp_path, capsys):
    for sub in ("d1", "d2"):
        (tmp_path / sub).mkdir()
        sc.write_wav(tmp_path / sub / "x.wav", white_waveform(95, seconds=0.2))
    sc.write_wav(tmp_path / "y.wav", white_waveform(96, seconds=0.2))
    manifest = tmp_path / "m.tsv"
    files.write_manifest(manifest, [files.ManifestRow("y.wav", "a"),
                                    files.ManifestRow("d1/x.wav", "a"),
                                    files.ManifestRow("d2/x.wav", "b")])
    out = tmp_path / "f"
    assert main(["features", "--manifest", str(manifest), "--out", str(out)]) == 1
    assert "'x.feat'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("bad", ["two", "-3", "1.5", "", "+2", "1_0", "\u0662", "None"])
def test_bad_thread_count_exits_1_before_writing(bad, tmp_path, monkeypatch, capsys):
    config = tmp_path / "sim.cfg"
    config.write_text("[sim]\nnum_recordings = 1\nduration = 0.1\n")
    monkeypatch.setenv("SPECCOR_THREADS", bad)
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(config), "--out", str(out)]) == 1
    assert f"SPECCOR_THREADS must be an integer >= 0, got {bad!r}" in capsys.readouterr().err
    assert not out.exists()


def test_thread_count_zero_or_unset_uses_every_cpu(monkeypatch):
    monkeypatch.delenv("SPECCOR_THREADS", raising=False)
    assert cli.worker_count() == (os.cpu_count() or 1)
    monkeypatch.setenv("SPECCOR_THREADS", "0")
    assert cli.worker_count() == (os.cpu_count() or 1)
    monkeypatch.setenv("SPECCOR_THREADS", " 3 ")
    assert cli.worker_count() == 3


def test_features_leaves_no_output_for_a_short_last_file(tmp_path, monkeypatch, capsys):
    rows = []
    for k in range(3):
        sc.write_wav(tmp_path / f"r{k}.wav", white_waveform(400 + k, seconds=0.2))
        rows.append(files.ManifestRow(f"r{k}.wav", "a"))
    sc.write_wav(tmp_path / "short.wav", sc.Waveform(np.zeros(1000), SR))
    manifest = tmp_path / "m.tsv"
    files.write_manifest(manifest, rows + [files.ManifestRow("short.wav", "a")])
    monkeypatch.setenv("SPECCOR_THREADS", "1")
    out = tmp_path / "f"
    assert main(["features", "--manifest", str(manifest), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {tmp_path / 'short.wav'}: input too short"), err
    assert not out.exists()


def test_features_leaves_no_output_for_coefficients_at_another_rate(tmp_path, monkeypatch,
                                                                    capsys):
    rows = []
    for k, device in enumerate("aabb"):
        sc.write_wav(tmp_path / f"r{k}.wav", white_waveform(410 + k, seconds=0.2))
        rows.append(files.ManifestRow(f"r{k}.wav", device))
    manifest = tmp_path / "m.tsv"
    files.write_manifest(manifest, rows)
    coeffs_dir = tmp_path / "c"
    coeffs_dir.mkdir()
    for device, rate in (("a", SR), ("b", 48000)):
        files.write_coefficients(coeffs_dir / f"{device}.coeffs", sc.CorrectionCoefficients(
            np.ones(N_FFT // 2 + 1), N_FFT, rate, device, "a", 1, "aligned"))
    monkeypatch.setenv("SPECCOR_THREADS", "1")
    out = tmp_path / "f"
    assert main(["features", "--manifest", str(manifest), "--coeffs-dir", str(coeffs_dir),
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {coeffs_dir / 'b.coeffs'}: coefficients are for "
                          f"48000 Hz, {tmp_path / 'r2.wav'} is at {SR} Hz"), err
    assert not out.exists()


VERIFY_ERRORS = {
    "n-fft-1024": (sc.CorrectionCoefficients(np.ones(513), 1024, SR, "b", "a", 1, "aligned"),
                   "coefficients are for n_fft=1024"),
    "unknown-source": (sc.CorrectionCoefficients(np.ones(N_FFT // 2 + 1), N_FFT, SR, "zz",
                                                 "a", 1, "unaligned"),
                       "device 'zz' has no ground-truth response"),
    "unknown-reference": (sc.CorrectionCoefficients(np.ones(N_FFT // 2 + 1), N_FFT, SR, "b",
                                                    "zz", 1, "aligned"),
                          "reference 'zz' has no ground-truth response"),
}


@pytest.mark.parametrize("name", sorted(VERIFY_ERRORS))
def test_verify_names_the_coefficients_it_cannot_score(name, sim_dir, tmp_path, capsys):
    coeffs, message = VERIFY_ERRORS[name]
    path = tmp_path / "c" / "x.coeffs"
    path.parent.mkdir()
    files.write_coefficients(path, coeffs)
    assert main(["verify", "--sim-dir", str(sim_dir), "--coeffs-dir", str(path.parent)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {path}: {message}")


@pytest.mark.parametrize("tolerance", ["nan", "inf", "-inf", "-0.5"])
def test_verify_rejects_a_tolerance_that_is_not_finite_and_non_negative(tolerance, sim_dir,
                                                                        tmp_path, capsys):
    assert main(["verify", "--sim-dir", str(sim_dir), "--coeffs-dir", str(tmp_path),
                 f"--tolerance-db={tolerance}"]) == 1
    assert capsys.readouterr().err == ("error: --tolerance-db must be finite and >= 0, "
                                       f"got {float(tolerance)}\n")


@pytest.mark.parametrize("gain", ["nan", "inf", "0", "-0.5"])
def test_verify_refuses_truth_gains_that_are_not_finite_and_positive(gain, sim_dir, tmp_path,
                                                                    capsys):
    sim = tmp_path / "sim"
    shutil.copytree(sim_dir, sim)
    lines = (sim / "responses.txt").read_text().splitlines()
    lines[lines.index(f"device a {N_FFT // 2 + 1}") + 5] = gain
    (sim / "responses.txt").write_text("\n".join(lines) + "\n")
    coeffs = tmp_path / "c"
    coeffs.mkdir()
    files.write_coefficients(coeffs / "b.coeffs", sc.CorrectionCoefficients(
        np.ones(N_FFT // 2 + 1), N_FFT, SR, "b", "a", 1, "aligned"))
    assert main(["verify", "--sim-dir", str(sim), "--coeffs-dir", str(coeffs)]) == 1
    assert capsys.readouterr() == ("", f"error: {sim / 'responses.txt'}: device 'a' gains "
                                       "must be finite and > 0\n")


def test_verify_rejects_a_missing_coefficients_directory(sim_dir, tmp_path, capsys):
    missing = tmp_path / "missing"
    assert main(["verify", "--sim-dir", str(sim_dir), "--coeffs-dir", str(missing)]) == 2
    assert capsys.readouterr().err == f"error: --coeffs-dir {missing}: no such directory\n"


def test_verify_names_an_empty_coefficients_directory(sim_dir, tmp_path, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    assert main(["verify", "--sim-dir", str(sim_dir), "--coeffs-dir", str(empty)]) == 1
    assert f"no *.coeffs files found in {empty}" in capsys.readouterr().err


def _write_small_coefficients(path, n_fft, gains):
    """A .coeffs file of device b against a at SR, written by hand: its n_fft
    may be one that CorrectionCoefficients refuses."""
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join([files.COEFFS_MAGIC, "estimator aligned", "source_device b",
                               "reference_device a", f"sample_rate {SR}", f"n_fft {n_fft}",
                               "num_recordings 1", f"gains {len(gains)}",
                               *map(str, gains)]) + "\n")
    return path


def _write_n_fft_0_pair(root):
    """A responses.txt and a b.coeffs that both have n_fft 0 and one gain."""
    (root / "sim").mkdir(parents=True)
    files.write_responses(root / "sim" / "responses.txt", SR, 0, {"a": [1.0], "b": [1.0]})
    _write_small_coefficients(root / "coeffs" / "b.coeffs", 0, [1.0])
    return root / "sim", root / "coeffs"


@pytest.mark.parametrize("n_fft,gains,command", [
    (0, [1.0], "verify"), (2, [1.0, 1.0], "design-fir"), (-1, [], "design-fir")])
def test_coefficients_with_n_fft_below_16_are_named_and_exit_1(n_fft, gains, command, tmp_path,
                                                               capsys):
    if command == "verify":
        sim, coeffs_dir = _write_n_fft_0_pair(tmp_path)
        coeffs = coeffs_dir / "b.coeffs"
        argv = ["verify", "--sim-dir", str(sim), "--coeffs-dir", str(coeffs_dir)]
    else:
        coeffs = _write_small_coefficients(tmp_path / "b.coeffs", n_fft, gains)
        argv = ["design-fir", "--coeffs", str(coeffs), "--out", str(tmp_path / "b.filt"),
                "--taps", "3"]
    assert main(argv) == 1
    assert capsys.readouterr().err == (f"error: {coeffs}: n_fft must be >= 16, the smallest "
                                       f"STFT, got {n_fft}\n")
    assert not (tmp_path / "b.filt").exists()


def test_design_fir_refuses_coefficients_whose_device_is_not_a_token(tmp_path, capsys):
    # estimate could not have written this header: write_coefficients refuses it.
    coeffs = _write_small_coefficients(tmp_path / "b.coeffs", 16, [1.0] * 9)
    coeffs.write_text(coeffs.read_text().replace("source_device b\n", "source_device b c\n"))
    argv = ["design-fir", "--coeffs", str(coeffs), "--out", str(tmp_path / "b.filt")]
    assert main(argv + ["--taps", "9"]) == 1
    assert capsys.readouterr().err == (f"error: {coeffs}: source_device must be a non-empty "
                                       "ASCII token without whitespace, got 'b c'\n")
    assert not (tmp_path / "b.filt").exists()


@pytest.mark.parametrize("count", [0, -5])
def test_design_fir_refuses_coefficients_of_fewer_than_one_recording(count, tmp_path, capsys):
    coeffs = _write_small_coefficients(tmp_path / "b.coeffs", 16, [1.0] * 9)
    coeffs.write_text(coeffs.read_text().replace("num_recordings 1\n",
                                                 f"num_recordings {count}\n"))
    argv = ["design-fir", "--coeffs", str(coeffs), "--out", str(tmp_path / "b.filt")]
    assert main(argv + ["--taps", "9"]) == 1
    assert capsys.readouterr().err == (f"error: {coeffs}: num_recordings must be >= 1, "
                                       f"got {count}\n")
    assert not (tmp_path / "b.filt").exists()


@pytest.fixture(scope="module")
def low_rate_dir(tmp_path_factory):
    """A legal corpus at 150 Hz and n_fft 16, whose bins all lie below the mid
    band, with its aligned and reference-free coefficients (--hop 4)."""
    root = tmp_path_factory.mktemp("low-rate")
    (root / "sim.cfg").write_text("[sim]\nsample_rate = 150\nn_fft = 16\n")
    out = root / "sim"
    assert main(["simulate", "--config", str(root / "sim.cfg"), "--out", str(out)]) == 0
    for reference, extra in (("a", ["--aligned"]), ("none", [])):
        assert main(["estimate", "--manifest", str(out / "manifest.tsv"), "--reference-device",
                     reference, "--n-fft", "16", "--hop", "4",
                     "--out", str(root / f"coeffs-{reference}")] + extra) == 0
    return root


@pytest.mark.parametrize("reference", ["a", "none"])
def test_verify_says_that_the_mid_band_is_empty(reference, low_rate_dir, capsys):
    coeffs_dir = low_rate_dir / f"coeffs-{reference}"
    assert main(["verify", "--sim-dir", str(low_rate_dir / "sim"),
                 "--coeffs-dir", str(coeffs_dir)]) == 1
    first = sorted(coeffs_dir.glob("*.coeffs"))[0]
    assert capsys.readouterr().err == (
        f"error: {first}: the mid band, MIDBAND_HZ = {sc.dsp.MIDBAND_HZ} Hz, holds no bin "
        "of n_fft=16 at 150 Hz\n")


# -- the exit-code contract ------------------------------------------------------------

# Legal WAVs at the edges of what speccor reads, as (samples, sample rate); the
# stereo file is written as 16-bit PCM, the others as float32.
_NOISE = white_waveform(97, seconds=0.1).samples
DEGENERATE_WAVS = {
    "silent": (np.zeros(_NOISE.size), SR),
    "dc": (np.full(_NOISE.size, 0.5), SR),
    "8-hz": (_NOISE[:64], 8),
    "near-float32-max": (np.copysign(3e38, _NOISE), SR),
    "one-frame": (_NOISE[:N_FFT], SR),
    "stereo-pcm16": (_NOISE, SR),
}
# Integer flag values at the edges of what the flags accept; None leaves the flag out.
BOUNDARY_INTS = [None, 0, -1, 1, 15, 16, 1025, 2**31]


@pytest.fixture(scope="module")
def degenerate_inputs(tmp_path_factory):
    """The WAVs of DEGENERATE_WAVS, and a .coeffs and a .filt file at each of
    their sample rates for n_fft 16 and 2048."""
    root = tmp_path_factory.mktemp("degenerate")
    for name, (samples, rate) in DEGENERATE_WAVS.items():
        if name == "stereo-pcm16":
            wav_file(root / f"{name}.wav", np.repeat(samples[:, None], 2, axis=1), 2, "pcm16",
                     sample_rate=rate)
        else:
            sc.write_wav(root / f"{name}.wav", sc.Waveform(samples, rate))
    for rate in {rate for _, rate in DEGENERATE_WAVS.values()}:
        for n_fft in (16, N_FFT):
            gains = np.exp(np.random.default_rng(n_fft).uniform(-1.0, 1.0, n_fft // 2 + 1))
            coeffs = sc.CorrectionCoefficients(gains, n_fft, rate, "b", "a", 1, "aligned")
            files.write_coefficients(root / f"{rate}-{n_fft}.coeffs", coeffs)
            files.write_filter(root / f"{rate}-{n_fft}.filt", sc.design_ls(coeffs, n_fft // 2 + 1))
    return root


@settings(max_examples=80)
@given(command=st.sampled_from(["apply", "design-fir", "filter"]),
       wav=st.sampled_from(sorted(DEGENERATE_WAVS)), n_fft=st.sampled_from([16, N_FFT]),
       value=st.sampled_from(BOUNDARY_INTS), compensate=st.booleans())
def test_single_file_subcommands_keep_the_exit_code_contract(degenerate_inputs, command, wav,
                                                             n_fft, value, compensate):
    root = degenerate_inputs
    stem = root / f"{DEGENERATE_WAVS[wav][1]}-{n_fft}"
    wav = root / f"{wav}.wav"
    coeffs, filt = stem.with_suffix(".coeffs"), stem.with_suffix(".filt")
    out = root / ("out.filt" if command == "design-fir" else "out.wav")
    argv = {
        "apply": ["apply", "--coeffs", str(coeffs), "--in", str(wav), "--out", str(out)]
        + ([] if value is None else [f"--hop={value}"]),
        "design-fir": ["design-fir", "--coeffs", str(coeffs), "--out", str(out)]
        + ([] if value is None else [f"--taps={value}"]),
        "filter": ["filter", "--filter", str(filt), "--in", str(wav), "--out", str(out)]
        + ([] if compensate else ["--no-delay-compensation"]),
    }[command]
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    assert code in (0, 1, 2), (argv, code)
    if code:
        assert not out.exists() and not Path(f"{out}.part").exists(), argv
        if code == 1:
            named = [arg for arg in argv if arg.startswith("--") or arg.startswith(str(root))]
            assert any(name.split("=")[0] in err.getvalue() for name in named), \
                (argv, err.getvalue())
        return
    if command == "design-fir":
        files.read_filter(out)
    else:
        sc.read_wav(out)
    out.unlink()


@pytest.fixture(scope="module")
def verify_pool(sim_dir, low_rate_dir, tmp_path_factory):
    """Corpora and coefficient directories for verify: sim_dir with its aligned
    coefficients, the 150 Hz corpus with both of its own, the n_fft 0 pair, an
    empty directory and a missing one."""
    root = tmp_path_factory.mktemp("verify-pool")
    assert main(["estimate", "--manifest", str(sim_dir / "manifest.tsv"), "--aligned",
                 "--reference-device", "a", "--out", str(root / "sim-a")]) == 0
    zero_sim, zero_coeffs = _write_n_fft_0_pair(root / "n-fft-0")
    (root / "empty").mkdir()
    sims = {"sim": sim_dir, "low-rate": low_rate_dir / "sim", "n-fft-0": zero_sim,
            "missing": root / "missing"}
    coeffs = {"sim-a": root / "sim-a", "low-rate-a": low_rate_dir / "coeffs-a",
              "low-rate-none": low_rate_dir / "coeffs-none", "n-fft-0": zero_coeffs,
              "empty": root / "empty", "missing": root / "missing"}
    return sims, coeffs


# (corpus, coefficients) pairs of verify_pool: each corpus with its own, then crossed.
VERIFY_PAIRS = [("sim", "sim-a"), ("low-rate", "low-rate-a"), ("low-rate", "low-rate-none"),
                ("n-fft-0", "n-fft-0"), ("sim", "low-rate-a"), ("low-rate", "sim-a"),
                ("sim", "n-fft-0"), ("sim", "empty"), ("sim", "missing"), ("missing", "sim-a")]


@settings(max_examples=80)
@given(pair=st.sampled_from(VERIFY_PAIRS),
       tolerance=st.sampled_from(BOUNDARY_INTS + ["nan", "inf", "-0.0", "1e-9", "0.5"]))
def test_verify_keeps_the_exit_code_contract(verify_pool, pair, tolerance):
    sim, coeffs = verify_pool[0][pair[0]], verify_pool[1][pair[1]]
    argv = ["verify", "--sim-dir", str(sim), "--coeffs-dir", str(coeffs)] \
        + ([] if tolerance is None else [f"--tolerance-db={tolerance}"])

    def listing():
        return sorted(path for root in (sim, coeffs) if root.exists() for path in root.rglob("*"))
    before = listing()
    err, out = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(out):
        code = main(argv)
    assert code in (0, 1, 2), (argv, code)
    # verify only reads: whatever its exit, it leaves every file as it was.
    assert listing() == before, argv
    lines = out.getvalue().splitlines()
    if code == 0:
        assert lines and all(line.endswith("PASS") for line in lines), (argv, lines)
    elif code == 1 and not err.getvalue():
        # A score over the tolerance: each failing device is named.
        assert any(line.startswith("device ") and line.endswith("FAIL") for line in lines), \
            (argv, lines)
    else:
        named = [arg.split("=")[0] for arg in argv if arg.startswith("--")] + [str(sim),
                                                                               str(coeffs)]
        assert any(name in err.getvalue() for name in named), (argv, err.getvalue())


# Manifests over the WAVs of DEGENERATE_WAVS, as (file stem, device, group) rows:
# groups that align, groups of unequal length, groups without the reference
# device 'a' or with a device twice, mixed sample rates, one file twice and a
# device label that holds a newline.
CONTRACT_MANIFESTS = {
    "aligned": [("silent", "a", "g0"), ("near-float32-max", "b", "g0"),
                ("dc", "a", "g1"), ("stereo-pcm16", "b", "g1")],
    "unaligned": [("dc", "a", ""), ("one-frame", "a", ""), ("near-float32-max", "b", ""),
                  ("silent", "b", "")],
    "unequal-group": [("silent", "a", "g0"), ("one-frame", "b", "g0")],
    "no-reference": [("silent", "b", "g0"), ("dc", "c", "g0")],
    "device-twice": [("silent", "a", "g0"), ("dc", "a", "g0"), ("one-frame", "b", "g0")],
    "mixed-rates": [("8-hz", "a", ""), ("silent", "b", "")],
    "one-file-twice": [("8-hz", "a", "g0"), ("./8-hz", "b", "g0")],
    "device-with-newline": [("silent", "a", "g0"), ("dc", "x\ny", "g0")],
}
# A small [sim] file that validation accepts: at most 3 recordings of 0.2 s.
CONTRACT_SIM = {"seed": "1", "num_recordings": "2", "duration": "0.2", "sample_rate": "8000",
                "n_fft": "256", "devices": "a b", "aligned": "true", "source": "pink"}
# One [sim] key set to a boundary value, or None for CONTRACT_SIM itself. Values
# that validation accepts but that would make a large dataset are left out:
# more recordings, seconds of audio, a 2**31 Hz rate.
_LARGE = {"num_recordings": {15, 16, 1025}, "duration": {1, 15, 16, 1025},
          "sample_rate": {2**31}}
SIM_OVERRIDES = [None] + [
    (key, value) for key in sorted(set(CONTRACT_SIM) | {"hop", "environments", "response_db",
                                                        "environment_db"})
    for value in [v for v in BOUNDARY_INTS if v is not None] + ["nan", "inf", "x", ""]
    if value not in _LARGE.get(key, ())]


@pytest.fixture(scope="module")
def contract_pool(degenerate_inputs):
    """degenerate_inputs with a manifest per CONTRACT_MANIFESTS entry and
    coefficient directories holding b.coeffs for n_fft 16 and 2048."""
    root = degenerate_inputs
    for name, rows in CONTRACT_MANIFESTS.items():
        files.write_manifest(root / f"{name}.tsv", [
            files.ManifestRow(f"{stem}.wav", device, group) for stem, device, group in rows])
    for n_fft in (16, N_FFT):
        (root / f"coeffs-{n_fft}").mkdir()
        (root / f"coeffs-{n_fft}" / "b.coeffs").write_bytes(
            (root / f"{SR}-{n_fft}.coeffs").read_bytes())
    return root


def _read_back(out, command) -> None:
    """Read every file of --out through speccor's reader for its kind."""
    for path in out.iterdir():
        if path.suffix == ".wav":
            sc.read_wav(path)
        elif command == "simulate":
            read = {"manifest.tsv": files.read_manifest,
                    "responses.txt": files.read_responses}[path.name]
            read(path)
        else:
            {".coeffs": files.read_coefficients, ".feat": files.read_features}[path.suffix](path)


def _legal_or_boundary(legal):
    """Half of the draws from the values of BOUNDARY_INTS that the flag accepts,
    so that the runs also reach the audio."""
    return st.sampled_from(legal) | st.sampled_from(BOUNDARY_INTS)


@settings(max_examples=300)
@given(command=st.sampled_from(["estimate", "features", "simulate"]),
       manifest=st.sampled_from(sorted(CONTRACT_MANIFESTS)),
       form=st.sampled_from(["--reference-device=a", "--aligned", "--reference-device=none"]),
       standardize=st.sampled_from([None, "global", "per-device"]),
       coeffs=st.sampled_from([None, 16, N_FFT, "missing"]),
       n_fft=_legal_or_boundary([None, 16]), hop=_legal_or_boundary([None, 1, 1025]),
       n_mels=_legal_or_boundary([None, 1, 15]), sim=st.sampled_from(SIM_OVERRIDES))
def test_manifest_and_config_subcommands_keep_the_exit_code_contract(
        contract_pool, command, manifest, form, standardize, coeffs, n_fft, hop, n_mels, sim):
    root = contract_pool
    out = root / "out"
    stft = [f"{flag}={value}" for flag, value in
            [("--n-fft", n_fft), ("--hop", hop)] + [("--n-mels", n_mels)] * (command == "features")
            if value is not None]
    named = [str(root / f"{stem}.wav") for stem, _, _ in CONTRACT_MANIFESTS[manifest]]
    if command == "estimate":
        argv = ["estimate", f"--manifest={root / manifest}.tsv", "--out", str(out), *stft,
                *(["--reference-device=a", "--aligned"] if form == "--aligned" else [form])]
    elif command == "features":
        argv = ["features", f"--manifest={root / manifest}.tsv", "--out", str(out), *stft]
        argv += [] if standardize is None else [f"--standardize={standardize}"]
        argv += [] if coeffs is None else [f"--coeffs-dir={root / f'coeffs-{coeffs}'}"]
    else:
        keys = dict(CONTRACT_SIM, **dict([sim] if sim else []))
        config = root / "sim.cfg"
        config.write_text("[sim]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items()))
        argv = ["simulate", "--config", str(config), "--out", str(out)]
        named = [str(config)] + [f"{key}:" for key in keys]
    err = io.StringIO()
    try:
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(argv)
        assert code in (0, 1, 2), (argv, code)
        if code == 0:
            _read_back(out, command)
            return
        # out is new for each run, so whatever it holds was written by it.
        assert not out.exists() or list(out.iterdir()) == [], (argv, list(out.iterdir()))
        if code == 1:
            named += [part for arg in argv for part in arg.split("=", 1)
                      if part.startswith(("--", str(root)))]
            assert any(name in err.getvalue() for name in named), (argv, err.getvalue())
    finally:
        if out.exists():
            shutil.rmtree(out)
