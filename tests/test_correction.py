import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import speccor as sc
from speccor import correction

from conftest import (SR, N_FFT, HOP, aligned_pairs, max_db_error,
                      random_amplitude_spectrogram, white_waveform)


def constant_spectrogram(value, frames=5, n_fft=64, sample_rate=SR):
    mags = np.full((frames, n_fft // 2 + 1), float(value))
    return sc.AmplitudeSpectrogram(mags, n_fft, n_fft // 4, sample_rate)


# -- accumulate_stats ----------------------------------------------------------

def test_stats_constant_recording():
    stats = sc.accumulate_stats([constant_spectrogram(3.0)], "d")
    assert np.allclose(stats.log_mean, np.log(3.0), rtol=0, atol=1e-15)
    assert stats.total_frames == 5
    assert stats.num_recordings == 1


def test_stats_two_constants_average():
    stats = sc.accumulate_stats(
        [constant_spectrogram(2.0), constant_spectrogram(8.0)], "d")
    assert np.allclose(stats.log_mean, (np.log(2.0) + np.log(8.0)) / 2,
                       rtol=0, atol=1e-15)


def test_stats_frame_weighted_pooling():
    a = constant_spectrogram(2.0, frames=1)
    b = constant_spectrogram(8.0, frames=3)
    stats = sc.accumulate_stats([a, b], "d")
    expected = (np.log(2.0) + 3 * np.log(8.0)) / 4
    assert np.allclose(stats.log_mean, expected, rtol=0, atol=1e-15)


def test_stats_rejects_mixed_config():
    with pytest.raises(ValueError, match="n_fft mismatch: statistics 64, shard 128"):
        sc.accumulate_stats(
            [constant_spectrogram(1.0, n_fft=64), constant_spectrogram(1.0, n_fft=128)],
            "d")
    with pytest.raises(ValueError):
        sc.accumulate_stats([], "d")


@pytest.mark.parametrize("count", [2.5, True], ids=["fraction", "bool"])
def test_stats_refuse_a_count_that_is_not_an_integer(count):
    with pytest.raises(ValueError, match=f"total_frames must be an integer >= 1, got {count}"):
        sc.DeviceSpectrumStats(np.zeros(33), count, 1, "d", 64, SR)
    with pytest.raises(ValueError, match=f"num_recordings must be an integer >= 1, got {count}"):
        sc.DeviceSpectrumStats(np.zeros(33), 4, count, "d", 64, SR)


def test_stats_recover_device_response():
    # 16 short noise recordings through a known response: the ratio of the
    # recorded to the clean geometric-mean spectrum lands on the response.
    dev = sc.make_smooth_response(12, 20.0, N_FFT, SR, device_id="b")
    clean_specs, rec_specs = [], []
    for i in range(16):
        clean = white_waveform((900, i), seconds=2.0)
        rec = sc.record(clean, None, dev, hop=HOP)
        clean_specs.append(sc.amplitude(sc.stft(clean, N_FFT, HOP)))
        rec_specs.append(sc.amplitude(sc.stft(rec, N_FFT, HOP)))
    clean_stats = sc.accumulate_stats(clean_specs, "clean")
    rec_stats = sc.accumulate_stats(rec_specs, "b")
    ratio = np.exp(rec_stats.log_mean - clean_stats.log_mean)
    band = sc.band_bins(N_FFT, SR)
    assert max_db_error(ratio, dev.gains, band) < 0.5


def test_stats_order_independence():
    rng = np.random.default_rng(10)
    specs = [random_amplitude_spectrogram(rng, rng.integers(2, 9), 64)
             for _ in range(6)]
    forward = sc.accumulate_stats(specs, "d")
    backward = sc.accumulate_stats(specs[::-1], "d")
    assert np.abs(forward.log_mean - backward.log_mean).max() < 1e-12


@settings(max_examples=60)
@given(st.lists(st.lists(st.integers(1, 8), min_size=1, max_size=4), min_size=3, max_size=3),
       st.integers(0, 2**32 - 1))
def test_stats_merge_adds_sums_and_counts(frame_counts, seed):
    rng = np.random.default_rng(seed)
    specs = [[random_amplitude_spectrogram(rng, t, 64) for t in counts]
             for counts in frame_counts]
    a, b, c = (correction.merge_stats([correction.log_amplitude_sum(s, "d") for s in part])
               for part in specs)
    merged = a.merge(b)
    assert merged.total_frames == a.total_frames + b.total_frames
    assert merged.num_recordings == a.num_recordings + b.num_recordings
    assert np.array_equal(merged.log_sum, b.merge(a).log_sum)
    expected = (a.log_mean * a.total_frames + b.log_mean * b.total_frames) \
        / (a.total_frames + b.total_frames)
    assert np.abs(merged.log_mean - expected).max() < 1e-12
    left = a.merge(b).merge(c)
    right = a.merge(b.merge(c))
    assert np.abs(left.log_mean - right.log_mean).max() < 1e-12
    assert left.total_frames == right.total_frames
    # One-recording shards merged in list order are accumulate_stats, bit for bit.
    flat = [spec for part in specs for spec in part]
    whole = sc.accumulate_stats(flat, "d")
    folded = correction.log_amplitude_sum(flat[0], "d")
    for spec in flat[1:]:
        folded = folded.merge(correction.log_amplitude_sum(spec, "d"))
    assert np.array_equal(folded.log_sum, whole.log_sum)
    cells = np.concatenate([np.log(np.maximum(s.mags, sc.AMPLITUDE_FLOOR)) for s in flat])
    assert np.abs(whole.log_mean - cells.mean(axis=0)).max() < 1e-12
    assert (whole.total_frames, whole.num_recordings) == (len(cells), len(flat))
    with pytest.raises(ValueError, match="device mismatch: statistics 'd', shard 'other'"):
        a.merge(sc.accumulate_stats([constant_spectrogram(1.0)], "other"))
    with pytest.raises(ValueError, match="n_fft mismatch: statistics 64, shard 128"):
        a.merge(sc.accumulate_stats([constant_spectrogram(1.0, n_fft=128)], "d"))
    with pytest.raises(ValueError, match=f"sample_rate mismatch: statistics {SR} Hz, "
                                         "shard 48000 Hz"):
        a.merge(sc.accumulate_stats([constant_spectrogram(1.0, sample_rate=48000)], "d"))


# -- aligned estimation ---------------------------------------------------------

def test_aligned_identity_device():
    rng = np.random.default_rng(12)
    spec = random_amplitude_spectrogram(rng, 7, 64)
    coeffs = sc.estimate_aligned([(spec, spec)])
    assert np.allclose(coeffs.gains, 1.0, rtol=0, atol=1e-14)
    assert coeffs.estimator == "aligned"


def test_aligned_per_bin_scaling_recovered_exactly():
    rng = np.random.default_rng(13)
    ref = random_amplitude_spectrogram(rng, 6, 64)
    g = np.exp(rng.uniform(-1, 1, size=ref.freq_bins))
    src = sc.AmplitudeSpectrogram(ref.mags * g, ref.n_fft, ref.hop, ref.sample_rate)
    coeffs = sc.estimate_aligned([(ref, src)])
    assert np.allclose(coeffs.gains, 1.0 / g, rtol=1e-12)


def test_aligned_rejects_shape_mismatch():
    rng = np.random.default_rng(14)
    a = random_amplitude_spectrogram(rng, 4, 64)
    b = random_amplitude_spectrogram(rng, 5, 64)
    with pytest.raises(ValueError, match="unaligned pair"):
        sc.estimate_aligned([(a, b)])


def test_aligned_accepts_an_iterator_of_pairs():
    rng = np.random.default_rng(16)
    refs = [random_amplitude_spectrogram(rng, 5, 64) for _ in range(3)]
    srcs = [random_amplitude_spectrogram(rng, 5, 64) for _ in range(3)]
    want = sc.estimate_aligned(list(zip(refs, srcs)))
    got = sc.estimate_aligned(zip(refs, srcs))
    assert np.array_equal(got.gains, want.gains)
    assert got.num_recordings == want.num_recordings == 3


def test_aligned_from_sums_rejects_unpaired_sums():
    rng = np.random.default_rng(17)
    refs = [correction.log_amplitude_sum(random_amplitude_spectrogram(rng, t, 64))
            for t in (4, 5)]
    with pytest.raises(ValueError, match=r"unaligned pairs: reference frame counts "
                                         r"\[4, 5\], source frame counts \[4\]"):
        correction.aligned_from_sums(refs, refs[:1])
    with pytest.raises(ValueError, match=r"\[4, 5\], source frame counts \[5, 4\]"):
        correction.aligned_from_sums(refs, refs[::-1])


# -- reductions straight from the waveform ----------------------------------------

@pytest.mark.parametrize("hop", [512, 384])
@pytest.mark.parametrize("frames", [1, 64, 65, 197])
def test_waveform_reductions_equal_whole_matrix_path(frames, hop):
    rng = np.random.default_rng(frames * hop)
    ref, *sources = [sc.Waveform(rng.standard_normal(N_FFT + (frames - 1) * hop) * level, SR)
                     for level in (0.1, 0.3, 1e-12)]
    spec = sc.amplitude(sc.stft(ref, N_FFT, hop))
    assert spec.frames == frames
    want = correction.log_amplitude_sum(spec)
    got = sc.waveform_log_sum(ref, N_FFT, hop)
    assert np.array_equal(got.log_sum, want.log_sum)
    assert (got.total_frames, got.n_fft, got.sample_rate) == (frames, N_FFT, SR)


@pytest.mark.parametrize("seconds", [5, 30])
def test_waveform_log_sum_holds_no_spectrogram(seconds):
    wave = white_waveform(16, seconds=seconds)
    sc.waveform_log_sum(wave)  # warm-up: FFT plan caches
    tracemalloc.start()
    try:
        sc.waveform_log_sum(wave)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # A whole magnitude matrix is 3.5 MB at 5 s and 21 MB at 30 s.
    assert peak < 4e6, peak


def test_aligned_recovers_simulator_ratio(device_pair, aligned_dataset):
    ref, src = device_pair
    coeffs = sc.estimate_aligned(aligned_pairs(aligned_dataset, "a", "b"),
                                 reference_device="a", source_device="b")
    band = sc.band_bins(N_FFT, SR)
    assert max_db_error(coeffs.gains, ref.gains / src.gains, band) < 0.5


# -- unaligned estimation ---------------------------------------------------------

def test_unaligned_equal_stats_gives_unit_gains():
    stats = sc.accumulate_stats([constant_spectrogram(3.0)], "d")
    ref = sc.DeviceSpectrumStats(stats.log_sum, stats.total_frames,
                                 stats.num_recordings, "r", stats.n_fft,
                                 stats.sample_rate)
    coeffs = sc.estimate_unaligned(ref, stats)
    assert np.all(coeffs.gains == 1.0)


def test_unaligned_equals_aligned_on_aligned_data():
    rng = np.random.default_rng(15)
    for _ in range(10):
        frames = int(rng.integers(3, 12))
        refs = [random_amplitude_spectrogram(rng, frames, 64) for _ in range(3)]
        srcs = [random_amplitude_spectrogram(rng, frames, 64) for _ in range(3)]
        a = sc.estimate_aligned(list(zip(refs, srcs)))
        u = sc.estimate_unaligned(sc.accumulate_stats(refs, "r"),
                                  sc.accumulate_stats(srcs, "s"))
        assert np.abs(a.gains / u.gains - 1.0).max() < 1e-9


def test_unaligned_rejects_config_mismatch():
    a = sc.accumulate_stats([constant_spectrogram(1.0, n_fft=64)], "a")
    b = sc.accumulate_stats([constant_spectrogram(1.0, n_fft=128)], "b")
    with pytest.raises(ValueError, match="n_fft mismatch: reference 64, source 128"):
        sc.estimate_unaligned(a, b)


def test_unaligned_recovers_ratio_from_independent_noise(device_pair):
    ref, src = device_pair
    cfg = sc.SimConfig(seed=6, num_recordings=16, duration=2.0, source="white",
                       aligned=False, devices=(ref, src),
                       sample_rate=SR, n_fft=N_FFT, hop=HOP)
    dataset = sc.generate_dataset(cfg)
    by_dev = dataset.recordings.by_device()
    coeffs = sc.estimate_unaligned(sc.accumulate_stats(by_dev["a"], "a"),
                                   sc.accumulate_stats(by_dev["b"], "b"))
    band = sc.band_bins(N_FFT, SR)
    assert max_db_error(coeffs.gains, ref.gains / src.gains, band) < 1.0


# -- application -------------------------------------------------------------------

def unit_coeffs(n_fft=64, gains=None):
    g = np.ones(n_fft // 2 + 1) if gains is None else gains
    return sc.CorrectionCoefficients(g, n_fft, SR, "b", "a", 1, "aligned")


def test_apply_identity_gains():
    rng = np.random.default_rng(16)
    spec = random_amplitude_spectrogram(rng, 5, 64)
    out = sc.apply_to_amplitudes(unit_coeffs(), spec)
    assert np.array_equal(out.mags, spec.mags)
    assert out.n_fft == spec.n_fft and out.hop == spec.hop


def test_apply_round_trip_through_reciprocal():
    rng = np.random.default_rng(17)
    spec = random_amplitude_spectrogram(rng, 5, 64)
    stats_r = sc.accumulate_stats([random_amplitude_spectrogram(rng, 5, 64)], "r")
    stats_d = sc.accumulate_stats([random_amplitude_spectrogram(rng, 5, 64)], "d")
    fwd = sc.estimate_unaligned(stats_r, stats_d)
    back = sc.estimate_unaligned(stats_d, stats_r)
    round_tripped = sc.apply_to_amplitudes(back, sc.apply_to_amplitudes(fwd, spec))
    assert np.abs(round_tripped.mags / spec.mags - 1.0).max() < 1e-9


def test_apply_rejects_bin_mismatch():
    rng = np.random.default_rng(18)
    spec = random_amplitude_spectrogram(rng, 5, 128)
    with pytest.raises(ValueError, match="n_fft mismatch: spectrogram 128, coefficients 64"):
        sc.apply_to_amplitudes(unit_coeffs(n_fft=64), spec)


def test_apply_maps_device_onto_reference(device_pair, aligned_dataset):
    coeffs = sc.estimate_aligned(aligned_pairs(aligned_dataset, "a", "b"),
                                 reference_device="a", source_device="b")
    band = sc.band_bins(N_FFT, SR)
    for ref_spec, src_spec in aligned_pairs(aligned_dataset, "a", "b"):
        corrected = sc.apply_to_amplitudes(coeffs, src_spec)
        # Per-bin magnitudes averaged over frames, compared in dB.
        got = corrected.mags.mean(axis=0)[band]
        want = ref_spec.mags.mean(axis=0)[band]
        assert np.abs(sc.to_db(got / want)).max() < 1.0


def test_apply_to_complex_identity_and_magnitude_consistency():
    w = white_waveform(19, seconds=0.2)
    spec = sc.stft(w, N_FFT, HOP)
    gains = np.exp(np.random.default_rng(20).uniform(-1, 1, N_FFT // 2 + 1))
    coeffs = sc.CorrectionCoefficients(gains, N_FFT, SR, "b", "a", 1, "aligned")
    ones = sc.CorrectionCoefficients(np.ones(N_FFT // 2 + 1), N_FFT, SR,
                                     "b", "a", 1, "aligned")
    assert np.array_equal(sc.apply_to_complex(ones, spec).bins, spec.bins)
    lhs = np.abs(sc.apply_to_complex(coeffs, spec).bins)
    rhs = sc.apply_to_amplitudes(coeffs, sc.amplitude(spec)).mags
    assert np.abs(lhs - rhs).max() <= 1e-12 * rhs.max()


def test_one_apply_scales_either_spectrogram_and_keeps_its_kind():
    assert sc.apply_to_complex is sc.apply_to_amplitudes
    spec = sc.stft(white_waveform(21, seconds=0.2), N_FFT, HOP)
    gains = np.exp(np.random.default_rng(22).uniform(-1, 1, N_FFT // 2 + 1))
    coeffs = sc.CorrectionCoefficients(gains, N_FFT, SR, "b", "a", 1, "aligned")
    for before, read in ((spec, "bins"), (sc.amplitude(spec), "mags")):
        after = sc.apply_to_complex(coeffs, before)
        assert type(after) is type(before)
        assert np.array_equal(getattr(after, read), getattr(before, read) * gains)
        assert (after.n_fft, after.hop, after.sample_rate) == (
            before.n_fft, before.hop, before.sample_rate)


def test_apply_to_complex_resynthesis_matches_reference(device_pair, aligned_dataset):
    # Correct a device-b recording in the complex STFT domain, resynthesize,
    # re-analyze, and compare per-bin frame-averaged magnitudes to the
    # aligned device-a recording.
    coeffs = sc.estimate_aligned(aligned_pairs(aligned_dataset, "a", "b"),
                                 reference_device="a", source_device="b")
    group = sorted(aligned_dataset.recordings.groups())[0]
    waves = {rec.device_id: rec.waveform for rec in aligned_dataset.waveforms
             if rec.group_id == group}
    corrected = sc.istft(sc.apply_to_complex(coeffs, sc.stft(waves["b"], N_FFT, HOP)))
    got = sc.amplitude(sc.stft(corrected, N_FFT, HOP)).mags
    want = sc.amplitude(sc.stft(waves["a"], N_FFT, HOP)).mags
    edge = int(np.ceil(N_FFT / HOP))
    band = sc.band_bins(N_FFT, SR)
    got_avg = got[edge:-edge].mean(axis=0)[band]
    want_avg = want[:got.shape[0]][edge:-edge].mean(axis=0)[band]
    assert np.abs(sc.to_db(got_avg / want_avg)).max() < 1.0


# -- simplified coefficients --------------------------------------------------------

def test_simplified_zero_log_mean():
    stats = sc.DeviceSpectrumStats(np.zeros(33), 4, 2, "d", 64, SR)
    coeffs = sc.simplified_coefficients(stats)
    assert np.all(coeffs.gains == 1.0)
    assert coeffs.reference_device == "none"
    assert coeffs.estimator == "simplified"


def test_simplified_ratio_equals_unaligned():
    rng = np.random.default_rng(21)
    stats_r = sc.accumulate_stats([random_amplitude_spectrogram(rng, 5, 64)], "r")
    stats_d = sc.accumulate_stats([random_amplitude_spectrogram(rng, 5, 64)], "d")
    simp_r = sc.simplified_coefficients(stats_r)
    simp_d = sc.simplified_coefficients(stats_d)
    unaligned = sc.estimate_unaligned(stats_r, stats_d)
    assert np.abs(simp_d.gains / simp_r.gains / unaligned.gains - 1.0).max() < 1e-12


def test_simplified_removes_device_effect(device_pair, aligned_dataset):
    # After applying each device's own simplified coefficients, aligned
    # recordings of the two devices coincide.
    by_dev = aligned_dataset.recordings.by_device()
    simp = {d: sc.simplified_coefficients(sc.accumulate_stats(by_dev[d], d))
            for d in ("a", "b")}
    band = sc.band_bins(N_FFT, SR)
    for ref_spec, src_spec in aligned_pairs(aligned_dataset, "a", "b"):
        a_corr = sc.apply_to_amplitudes(simp["a"], ref_spec).mags.mean(axis=0)
        b_corr = sc.apply_to_amplitudes(simp["b"], src_spec).mags.mean(axis=0)
        assert np.abs(sc.to_db(a_corr[band] / b_corr[band])).max() < 1.0


# -- log-mean subtraction and CMS -----------------------------------------------------

def test_log_mean_subtract_constant_recording_is_zero():
    recset = sc.RecordingSet([("r0", "d", constant_spectrogram(3.0))])
    out = sc.log_mean_subtract_per_device(recset)
    assert np.abs(out[0]).max() < 1e-14


def test_log_mean_subtract_equals_simplified_application():
    rng = np.random.default_rng(22)
    items = []
    for i in range(4):
        device = "d1" if i % 2 == 0 else "d2"
        items.append((f"r{i}", device, random_amplitude_spectrogram(rng, 6, 64)))
    recset = sc.RecordingSet(items)
    direct = sc.log_mean_subtract_per_device(recset)
    by_dev = recset.by_device()
    simp = {d: sc.simplified_coefficients(sc.accumulate_stats(s, d))
            for d, s in by_dev.items()}
    for (rid, device, spec), got in zip(recset.items, direct):
        want = np.log(sc.apply_to_amplitudes(simp[device], spec).mags)
        assert np.abs(got - want).max() < 1e-12


def test_log_mean_subtract_requires_device_labels():
    recset = sc.RecordingSet([("r0", "", constant_spectrogram(1.0))])
    with pytest.raises(ValueError, match="device label"):
        sc.log_mean_subtract_per_device(recset)


def test_pooled_grouping_does_not_remove_device_offset():
    # Negative control: one pooled group across devices with a constant 6 dB
    # gap leaves the between-device offset in place.
    gap = 10 ** (6.0 / 20.0)
    flat_a = sc.flat_response("a", N_FFT, SR)
    flat_b = sc.DeviceResponse(np.full(N_FFT // 2 + 1, gap), "b", N_FFT, SR)
    cfg = sc.SimConfig(seed=23, num_recordings=2, duration=1.0, source="white",
                       aligned=True, devices=(flat_a, flat_b),
                       sample_rate=SR, n_fft=N_FFT, hop=HOP)
    dataset = sc.generate_dataset(cfg)
    band = sc.band_bins(N_FFT, SR)

    pooled = sc.accumulate_stats(
        [spec for _, _, spec in dataset.recordings.items], "all")
    by_dev = dataset.recordings.by_device()

    def group_mean(specs, stats):
        rows = [np.log(np.maximum(s.mags, 1e-10)) - stats.log_mean for s in specs]
        return np.concatenate(rows).mean(axis=0)

    pooled_gap = group_mean(by_dev["b"], pooled) - group_mean(by_dev["a"], pooled)
    assert np.abs(pooled_gap[band] * sc.to_db(np.e)).min() >= 3.0

    per_device = sc.log_mean_subtract_per_device(dataset.recordings)
    means = {}
    for (rid, device, _), mat in zip(dataset.recordings.items, per_device):
        means.setdefault(device, []).append(mat.mean(axis=0))
    per_dev_gap = np.mean(means["b"], axis=0) - np.mean(means["a"], axis=0)
    assert np.abs(per_dev_gap[band] * sc.to_db(np.e)).max() < 0.5


def test_cms_per_recording_zeroes_time_constant_spectra():
    log_spec = np.tile(np.linspace(-2, 2, 33), (7, 1))
    assert np.abs(sc.cms_per_recording(log_spec)).max() < 1e-14


def test_cms_per_recording_scale_invariance():
    rng = np.random.default_rng(24)
    spec = random_amplitude_spectrogram(rng, 6, 64)
    g = np.exp(rng.uniform(-1, 1, size=spec.freq_bins))
    base = sc.cms_per_recording(np.log(spec.mags))
    scaled = sc.cms_per_recording(np.log(spec.mags * g))
    assert np.abs(base - scaled).max() < 1e-12


def test_cms_cancels_environment_while_per_device_subtraction_keeps_it():
    # One device, two environments: per-recording CMS flattens the
    # environment difference; per-device log-mean subtraction keeps it.
    dev = sc.make_smooth_response(3, 10.0, N_FFT, SR, device_id="d")
    env1 = sc.make_smooth_environment(39, 6.0, N_FFT, SR, scene_id="e1")
    env2 = sc.flat_environment("e2", N_FFT, SR)
    band = sc.band_bins(N_FFT, SR)
    specs = {}
    for e_idx, env in enumerate((env1, env2)):
        group = []
        for i in range(8):
            clean = white_waveform((930, e_idx, i), seconds=4.0)
            rec = sc.record(clean, env, dev, hop=HOP)
            group.append(sc.amplitude(sc.stft(rec, N_FFT, HOP)))
        specs[env.scene_id] = group
    true_diff_db = sc.to_db(env1.gains / env2.gains)

    items = [(f"{sid}_{i}", "d", s) for sid, group in specs.items()
             for i, s in enumerate(group)]
    subtracted = sc.log_mean_subtract_per_device(sc.RecordingSet(items))
    kept = {}
    for (rid, _, _), mat in zip(items, subtracted):
        kept.setdefault(rid.split("_")[0], []).append(mat.mean(axis=0))
    kept_diff_db = (np.mean(kept["e1"], axis=0)
                    - np.mean(kept["e2"], axis=0)) * sc.to_db(np.e)
    assert np.abs(kept_diff_db - true_diff_db)[band].max() < 1.0

    wiped = {}
    for rid, _, spec in items:
        mat = sc.cms_per_recording(np.log(np.maximum(spec.mags, 1e-10)))
        wiped.setdefault(rid.split("_")[0], []).append(mat.mean(axis=0))
    wiped_diff_db = (np.mean(wiped["e1"], axis=0)
                     - np.mean(wiped["e2"], axis=0)) * sc.to_db(np.e)
    assert np.abs(wiped_diff_db[band]).max() < 0.5


# -- cepstrum ---------------------------------------------------------------------

def test_real_cepstrum_of_constant_spectrum():
    c = 1.7
    cep = sc.real_cepstrum(np.full(33, c))
    assert cep[0] == pytest.approx(c, rel=1e-14)
    assert np.abs(cep[1:]).max() < 1e-13


def test_real_cepstrum_linearity():
    rng = np.random.default_rng(25)
    a = rng.standard_normal(65)
    b = rng.standard_normal(65)
    lhs = sc.real_cepstrum(a + b)
    rhs = sc.real_cepstrum(a) + sc.real_cepstrum(b)
    assert np.abs(lhs - rhs).max() < 1e-12


def test_cms_dataset_names_a_recording_of_another_bin_count():
    logs = [np.zeros((3, 33)), np.zeros((4, 33)), np.zeros((2, 17))]
    with pytest.raises(ValueError, match="^recording 2 has 17 bins, recording 0 has 33$"):
        sc.cms_dataset(logs)


def test_cms_dataset_equals_transform_of_log_subtraction():
    rng = np.random.default_rng(26)
    logs = [rng.standard_normal((rng.integers(3, 8), 33)) for _ in range(4)]
    cepstral = sc.cms_dataset(logs)
    total = np.zeros(33)
    frames = 0
    for m in logs:
        total += m.sum(axis=0)
        frames += m.shape[0]
    log_mean = total / frames
    for mat, cep in zip(logs, cepstral):
        want = sc.real_cepstrum(mat - log_mean)
        assert np.abs(cep - want).max() < 1e-12


# -- invariants --------------------------------------------------------------------

def test_reciprocity_of_unaligned_gains():
    rng = np.random.default_rng(27)
    r = sc.accumulate_stats([random_amplitude_spectrogram(rng, 5, 64)], "r")
    d = sc.accumulate_stats([random_amplitude_spectrogram(rng, 5, 64)], "d")
    product = sc.estimate_unaligned(r, d).gains * sc.estimate_unaligned(d, r).gains
    assert np.abs(product - 1.0).max() < 1e-12


def test_reference_transitivity():
    rng = np.random.default_rng(28)
    stats = {name: sc.accumulate_stats([random_amplitude_spectrogram(rng, 5, 64)], name)
             for name in ("d", "r", "r2")}
    direct = sc.estimate_unaligned(stats["r2"], stats["d"]).gains
    chained = (sc.estimate_unaligned(stats["r"], stats["d"]).gains
               * sc.estimate_unaligned(stats["r2"], stats["r"]).gains)
    assert np.abs(direct / chained - 1.0).max() < 1e-12


def test_scale_equivariance_of_both_estimators():
    rng = np.random.default_rng(29)
    k = 3.25
    refs = [random_amplitude_spectrogram(rng, 5, 64) for _ in range(2)]
    srcs = [random_amplitude_spectrogram(rng, 5, 64) for _ in range(2)]
    scaled = [sc.AmplitudeSpectrogram(s.mags * k, s.n_fft, s.hop, s.sample_rate)
              for s in srcs]
    a1 = sc.estimate_aligned(list(zip(refs, srcs))).gains
    a2 = sc.estimate_aligned(list(zip(refs, scaled))).gains
    assert np.abs(a2 * k / a1 - 1.0).max() < 1e-12
    u1 = sc.estimate_unaligned(sc.accumulate_stats(refs, "r"),
                               sc.accumulate_stats(srcs, "s")).gains
    u2 = sc.estimate_unaligned(sc.accumulate_stats(refs, "r"),
                               sc.accumulate_stats(scaled, "s")).gains
    assert np.abs(u2 * k / u1 - 1.0).max() < 1e-12


def test_recording_set_validation():
    spec = constant_spectrogram(1.0)
    with pytest.raises(ValueError, match="duplicate"):
        sc.RecordingSet([("r0", "a", spec), ("r0", "b", spec)])
    other = constant_spectrogram(1.0, frames=7)
    with pytest.raises(ValueError, match="frame count"):
        sc.RecordingSet([("r0", "a", spec), ("r1", "b", other)],
                        {"r0": "g", "r1": "g"})
    with pytest.raises(ValueError, match="empty"):
        sc.RecordingSet([])
