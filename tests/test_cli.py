import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import speccor as sc
from speccor import files
from speccor.cli import main

from conftest import SR, N_FFT, HOP, white_waveform

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


def test_cli_import_loads_no_scipy():
    src = Path(sc.__file__).resolve().parents[1]
    result = subprocess.run(
        [sys.executable, "-c",
         "import sys, speccor.cli; print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)})
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


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


def test_design_fir_rejects_even_taps(sim_dir, tmp_path, capsys):
    coeffs_dir = tmp_path / "c"
    assert main(["estimate", "--manifest", str(sim_dir / "manifest.tsv"),
                 "--reference-device", "a", "--out", str(coeffs_dir)]) == 0
    code = main(["design-fir", "--coeffs", str(coeffs_dir / "b.coeffs"),
                 "--taps", "1024", "--out", str(tmp_path / "f.filt")])
    assert code == 1
    assert "odd" in capsys.readouterr().err


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

    def counting_filterbank(sample_rate, n_fft, n_mels):
        calls.append(sample_rate)
        time.sleep(0.05)  # widen the window in which a second worker could miss
        return sc.mel_filterbank(sample_rate, n_fft, n_mels)

    monkeypatch.setattr("speccor.cli.mel_filterbank", counting_filterbank)
    monkeypatch.setenv("SPECCOR_THREADS", "4")
    out = tmp_path / "feats"
    assert main(["features", "--manifest", str(manifest), "--n-mels", "32",
                 "--out", str(out)]) == 0
    assert sorted(calls) == [44100, 48000]
    for row in rows:
        wave = sc.read_wav(tmp_path / row.path)
        want = sc.extract(sc.amplitude(sc.stft(wave, N_FFT, HOP)),
                          sc.mel_filterbank(wave.sample_rate, N_FFT, 32))
        got = files.read_features(out / (Path(row.path).stem + ".feat"))
        assert np.array_equal(got.values, want.values)
