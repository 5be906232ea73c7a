"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.
"""

import time

import numpy as np
import pytest

import speccor as sc
from speccor import files
from speccor.cli import main
from speccor.simulate import truth_error_db

from conftest import (SR, N_FFT, HOP, aligned_pairs, max_db_error,
                      random_amplitude_spectrogram, white_waveform)

BAND = sc.band_bins(N_FFT, SR)


def report(number, description, value, limit, unit="dB", runtime=None):
    ok = value < limit
    line = f"[criterion {number}] {'PASS' if ok else 'FAIL'}: {description}: " \
           f"{value:.6g} {unit} (limit {limit:g} {unit})"
    if runtime is not None:
        line += f", runtime {runtime:.1f} s"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def devices():
    ref = sc.make_smooth_response(11, 20.0, N_FFT, SR, device_id="a")
    src = sc.make_smooth_response(12, 20.0, N_FFT, SR, device_id="b")
    return ref, src


@pytest.fixture(scope="module")
def aligned_10s(devices):
    cfg = sc.SimConfig(seed=5, num_recordings=4, duration=10.0, source="white",
                       aligned=True, devices=devices,
                       sample_rate=SR, n_fft=N_FFT, hop=HOP)
    start = time.perf_counter()
    dataset = sc.generate_dataset(cfg)
    return dataset, time.perf_counter() - start


def test_criterion_1_aligned_recovery(devices, aligned_10s):
    ref, src = devices
    dataset, gen_time = aligned_10s
    start = time.perf_counter()
    coeffs = sc.estimate_aligned(aligned_pairs(dataset, "a", "b"),
                                 reference_device="a", source_device="b")
    runtime = gen_time + (time.perf_counter() - start)
    err = max_db_error(coeffs.gains, ref.gains / src.gains, BAND)
    report(1, "aligned recovery, 4 x 10 s, max mid-band gain error", err, 0.5,
           runtime=runtime)
    assert runtime < 10.0, f"criterion 1 runtime {runtime:.1f} s exceeds 10 s"


def test_criterion_2_unaligned_recovery(devices):
    ref, src = devices
    start = time.perf_counter()
    cfg = sc.SimConfig(seed=6, num_recordings=16, duration=10.0, source="white",
                       aligned=False, devices=devices,
                       sample_rate=SR, n_fft=N_FFT, hop=HOP)
    dataset = sc.generate_dataset(cfg)
    by_dev = dataset.recordings.by_device()
    coeffs = sc.estimate_unaligned(sc.accumulate_stats(by_dev["a"], "a"),
                                   sc.accumulate_stats(by_dev["b"], "b"))
    runtime = time.perf_counter() - start
    err = max_db_error(coeffs.gains, ref.gains / src.gains, BAND)
    report(2, "unaligned recovery, 16 independent recordings per device", err,
           1.0, runtime=runtime)
    assert runtime < 30.0, f"criterion 2 runtime {runtime:.1f} s exceeds 30 s"


def test_criterion_3_few_shot_stability(devices):
    ref, src = devices
    true = ref.gains / src.gains
    cfg = sc.SimConfig(seed=9, num_recordings=128, duration=1.0, source="white",
                       aligned=True, devices=devices,
                       sample_rate=SR, n_fft=N_FFT, hop=HOP)
    pairs = aligned_pairs(sc.generate_dataset(cfg), "a", "b")
    err_1 = max_db_error(
        sc.estimate_aligned(pairs[:1], "a", "b").gains, true, BAND)
    err_128 = max_db_error(
        sc.estimate_aligned(pairs, "a", "b").gains, true, BAND)
    print(f"    1 recording: {err_1:.4f} dB, 128 recordings: {err_128:.4f} dB")
    report(3, "few-shot stability, error(1 rec) - error(128 recs)",
           err_1 - err_128, 1.0)


def _unaligned_error(seed, recordings, source):
    """Mid-band error in dB of unaligned gains from ``recordings`` 1 s recordings
    per device, of the two +/-20 dB devices that ``simulate`` draws for ``seed``."""
    devices = tuple(sc.make_smooth_response(seed * 1000003 + 7 + i, 20.0, N_FFT, SR, name)
                    for i, name in enumerate("ab"))
    cfg = sc.SimConfig(seed=seed, num_recordings=recordings, duration=1.0, source=source,
                       aligned=False, devices=devices, sample_rate=SR, n_fft=N_FFT, hop=HOP)
    sums = {"a": [], "b": []}
    for rec in sc.generate_dataset(cfg).waveforms:
        sums[rec.device_id].append(sc.waveform_log_sum(rec.waveform, N_FFT, HOP, rec.device_id))
    coeffs = sc.estimate(sums["a"], sums["b"])
    return truth_error_db(coeffs, SR, N_FFT, {d.name: d.gains for d in devices})


# The paper's claim that few examples suffice, as a curve: with N recordings per
# device the unaligned error falls about as 1/sqrt(N), so error(16) lies near
# error(1)/4 (medians over seeds 0-4). Measured: 0.90x that for white and 1.00x
# for speechlike-modulated, whose recordings differ more from one another.
@pytest.mark.parametrize("source,factor", [("white", 1.25), ("speechlike-modulated", 1.5)])
def test_criterion_3_error_falls_as_one_over_root_n(source, factor):
    start = time.perf_counter()
    err_1, err_16 = (float(np.median([_unaligned_error(seed, n, source) for seed in range(5)]))
                     for n in (1, 16))
    ratio = err_16 / (err_1 / 4)
    print(f"    {source}: 1 recording {err_1:.2f} dB, 16 recordings {err_16:.2f} dB, "
          f"{ratio:.2f}x error(1)/4, runtime {time.perf_counter() - start:.1f} s")
    assert 1 / factor <= ratio <= factor, \
        f"error(16) is {ratio:.2f}x error(1)/4, outside [{1 / factor:.2f}, {factor:.2f}]"


def test_criterion_4_aligned_equals_unaligned():
    start = time.perf_counter()
    rng = np.random.default_rng(100)
    worst = 0.0
    for _ in range(50):
        n_fft = int(rng.choice([16, 32, 64]))
        frames = int(rng.integers(2, 12))
        count = int(rng.integers(1, 4))
        refs = [random_amplitude_spectrogram(rng, frames, n_fft) for _ in range(count)]
        srcs = [random_amplitude_spectrogram(rng, frames, n_fft) for _ in range(count)]
        a = sc.estimate_aligned(list(zip(refs, srcs)))
        u = sc.estimate_unaligned(sc.accumulate_stats(refs, "r"),
                                  sc.accumulate_stats(srcs, "s"))
        worst = max(worst, float(np.abs(a.gains / u.gains - 1.0).max()))
    runtime = time.perf_counter() - start
    report(4, "aligned vs unaligned on 50 aligned datasets, max relative gap",
           worst, 1e-9, unit="", runtime=runtime)
    assert runtime < 5.0, f"criterion 4 runtime {runtime:.1f} s exceeds 5 s"


def test_criterion_5_standardization_equivalence():
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(10):
        items = [(f"r{i}", "d1" if i % 2 == 0 else "d2",
                  random_amplitude_spectrogram(rng, int(rng.integers(2, 9)), 64))
                 for i in range(4)]
        recset = sc.RecordingSet(items)
        direct = sc.log_mean_subtract_per_device(recset)
        simp = {d: sc.simplified_coefficients(sc.accumulate_stats(s, d))
                for d, s in recset.by_device().items()}
        for (rid, device, spec), got in zip(recset.items, direct):
            via_coeffs = np.log(sc.apply_to_amplitudes(simp[device], spec).mags)
            worst = max(worst, float(np.abs(got - via_coeffs).max()))
    report(5, "per-device log-mean subtraction vs simplified coefficients",
           worst, 1e-12, unit="")


def test_criterion_6_cms_linearity_identity():
    rng = np.random.default_rng(102)
    worst = 0.0
    for _ in range(10):
        logs = [rng.standard_normal((int(rng.integers(3, 9)), 33))
                for _ in range(4)]
        cepstral = sc.cms_dataset(logs)
        total = np.zeros(33)
        frames = 0
        for mat in logs:
            total += mat.sum(axis=0)
            frames += mat.shape[0]
        log_mean = total / frames
        for mat, cep in zip(logs, cepstral):
            want = sc.real_cepstrum(mat - log_mean)
            worst = max(worst, float(np.abs(cep - want).max()))
    report(6, "quefrency-domain vs log-domain dataset mean subtraction",
           worst, 1e-12, unit="")


def test_criterion_7_environment_preservation():
    dev = sc.make_smooth_response(3, 10.0, N_FFT, SR, device_id="d")
    env1 = sc.make_smooth_environment(39, 6.0, N_FFT, SR, scene_id="e1")
    env2 = sc.flat_environment("e2", N_FFT, SR)
    specs = {}
    for e_idx, env in enumerate((env1, env2)):
        group = []
        for i in range(16):
            clean = white_waveform((700, e_idx, i), seconds=6.0)
            rec = sc.record(clean, env, dev, hop=HOP)
            group.append(sc.amplitude(sc.stft(rec, N_FFT, HOP)))
        specs[env.scene_id] = group
    true_diff_db = sc.to_db(env1.gains / env2.gains)
    print(f"    environment difference spans {true_diff_db[BAND].min():.2f} "
          f".. {true_diff_db[BAND].max():.2f} dB in band")

    simp = sc.simplified_coefficients(
        sc.accumulate_stats(specs["e1"] + specs["e2"], "d"))

    def sc_group_mean(group):
        rows = [np.log(sc.apply_to_amplitudes(simp, s).mags) for s in group]
        return np.concatenate(rows).mean(axis=0)

    kept_db = (sc_group_mean(specs["e1"]) - sc_group_mean(specs["e2"])) \
        * sc.to_db(np.e)
    report(7, "dataset-level SC distortion of the environment difference",
           float(np.abs(kept_db - true_diff_db)[BAND].max()), 1.0)

    def cms_group_mean(group):
        rows = [sc.cms_per_recording(np.log(np.maximum(s.mags, 1e-10)))
                for s in group]
        return np.concatenate(rows).mean(axis=0)

    wiped_db = (cms_group_mean(specs["e1"]) - cms_group_mean(specs["e2"])) \
        * sc.to_db(np.e)
    report(7, "per-recording CMS residual environment difference",
           float(np.abs(wiped_db[BAND]).max()), 0.5)


def test_criterion_8_fir_matches_stft_path(devices, aligned_10s):
    dataset, _ = aligned_10s
    start = time.perf_counter()
    coeffs = sc.estimate_aligned(aligned_pairs(dataset, "a", "b"),
                                 reference_device="a", source_device="b")
    filt = sc.design_ls(coeffs, 1025)

    clamp = 10.0 ** (40.0 / 20.0)
    target = np.clip(coeffs.gains, 1.0 / clamp, clamp)
    freqs = sc.bin_frequencies(N_FFT, SR)[BAND]
    response_err = float(np.max(np.abs(
        sc.to_db(sc.frequency_response(filt, freqs) / target[BAND]))))

    rec = next(r.waveform for r in dataset.waveforms if r.device_id == "b")
    edge = int(np.ceil(N_FFT / HOP))

    def interior_log_avg(spec):
        return np.log(np.maximum(spec.mags[edge:-edge], 1e-10)).mean(axis=0)

    fir_out = sc.apply_filter(filt, rec)
    fir_path = interior_log_avg(sc.amplitude(sc.stft(fir_out, N_FFT, HOP)))
    stft_path = interior_log_avg(
        sc.apply_to_amplitudes(coeffs, sc.amplitude(sc.stft(rec, N_FFT, HOP))))
    dual_path_db = float(np.abs((fir_path - stft_path)[BAND]).max() * sc.to_db(np.e))
    runtime = time.perf_counter() - start

    report(8, "designed 1025-tap response vs clamped targets", response_err, 0.5)
    report(8, "FIR path vs STFT path, time-averaged log magnitude",
           dual_path_db, 1.0, runtime=runtime)
    assert runtime < 60.0, f"criterion 8 runtime {runtime:.1f} s exceeds 60 s"


def test_criterion_9_reciprocity_and_transitivity():
    rng = np.random.default_rng(103)
    stats = {name: sc.accumulate_stats(
        [random_amplitude_spectrogram(rng, 6, N_FFT)], name)
        for name in ("d", "r", "r2")}
    product = (sc.estimate_unaligned(stats["r"], stats["d"]).gains
               * sc.estimate_unaligned(stats["d"], stats["r"]).gains)
    report(9, "reciprocity |C_dr * C_rd - 1|",
           float(np.abs(product - 1.0).max()), 1e-12, unit="")
    direct = sc.estimate_unaligned(stats["r2"], stats["d"]).gains
    chained = (sc.estimate_unaligned(stats["r"], stats["d"]).gains
               * sc.estimate_unaligned(stats["r2"], stats["r"]).gains)
    report(9, "transitivity |C_dr2 / (C_dr * C_rr2) - 1|",
           float(np.abs(direct / chained - 1.0).max()), 1e-12, unit="")


def test_criterion_10_round_trip_formats(tmp_path):
    rng = np.random.default_rng(104)
    gains = np.exp(rng.uniform(-2, 2, N_FFT // 2 + 1))
    coeffs = sc.CorrectionCoefficients(gains, N_FFT, SR, "b", "a", 4, "aligned")
    c1, c2 = tmp_path / "c1.coeffs", tmp_path / "c2.coeffs"
    files.write_coefficients(c1, coeffs)
    files.write_coefficients(c2, files.read_coefficients(c1))
    coeffs_ok = c1.read_bytes() == c2.read_bytes()

    filt = sc.design_ls(coeffs, 257)
    f1, f2 = tmp_path / "f1.filt", tmp_path / "f2.filt"
    files.write_filter(f1, filt)
    files.write_filter(f2, files.read_filter(f1))
    filter_ok = f1.read_bytes() == f2.read_bytes()

    w1, w2 = tmp_path / "w1.wav", tmp_path / "w2.wav"
    sc.write_wav(w1, white_waveform(105, seconds=0.5))
    sc.write_wav(w2, sc.read_wav(w1))
    wav_ok = w1.read_bytes() == w2.read_bytes()

    failures = sum(1 for ok in (coeffs_ok, filter_ok, wav_ok) if not ok)
    report(10, "byte-identical write-read-write for coefficients/filter/WAV",
           float(failures), 0.5, unit="failures")


def test_criterion_11_cli_end_to_end(tmp_path):
    start = time.perf_counter()
    aligned_cfg = tmp_path / "aligned.cfg"
    aligned_cfg.write_text(
        "[sim]\nseed = 3\nnum_recordings = 4\nduration = 3.0\nsource = white\n"
        "aligned = true\nsample_rate = 44100\nn_fft = 2048\nhop = 512\n"
        "devices = a b c\nresponse_db = 20\n")
    unaligned_cfg = tmp_path / "unaligned.cfg"
    unaligned_cfg.write_text(
        "[sim]\nseed = 4\nnum_recordings = 16\nduration = 5.0\nsource = white\n"
        "aligned = false\nsample_rate = 44100\nn_fft = 2048\nhop = 512\n"
        "devices = a b\nresponse_db = 20\n")

    for mode, cfg, extra in (("aligned", aligned_cfg, ["--aligned"]),
                             ("unaligned", unaligned_cfg, [])):
        sim_dir = tmp_path / f"sim_{mode}"
        coeffs_dir = tmp_path / f"coeffs_{mode}"
        assert main(["simulate", "--config", str(cfg), "--out", str(sim_dir)]) == 0
        assert main(["estimate", "--manifest", str(sim_dir / "manifest.tsv"),
                     "--reference-device", "a", *extra,
                     "--out", str(coeffs_dir)]) == 0
        code = main(["verify", "--sim-dir", str(sim_dir),
                     "--coeffs-dir", str(coeffs_dir), "--tolerance-db", "1.0"])
        assert code == 0, f"verify failed in {mode} mode"
    runtime = time.perf_counter() - start
    report(11, "CLI simulate/estimate/verify in both modes, failures",
           0.0, 0.5, unit="failures", runtime=runtime)
    assert runtime < 120.0, f"criterion 11 runtime {runtime:.1f} s exceeds 120 s"
