import numpy as np
import pytest

import speccor as sc

from speccor.dsp import BLOCK_FRAMES

from conftest import SR, N_FFT, HOP, aligned_pairs, random_amplitude_spectrogram


def test_filterbank_default_config_rows_are_sound():
    fb = sc.mel_filterbank(SR, N_FFT, 256)
    assert fb.weights.shape == (256, 1025)
    assert np.all(fb.weights >= 0)
    assert np.all(fb.weights.max(axis=1) > 0)
    assert np.all(np.diff(fb.center_frequencies) > 0)


def test_filterbank_rejects_invalid_band():
    with pytest.raises(ValueError, match="n_mels must be >= 1"):
        sc.mel_filterbank(SR, N_FFT, 0)


def test_filterbank_applied_to_ones_gives_row_sums():
    fb = sc.mel_filterbank(SR, N_FFT, 40)
    ones = sc.AmplitudeSpectrogram(np.ones((3, N_FFT // 2 + 1)), N_FFT, HOP, SR)
    projected = ones.mags @ fb.weights.T
    assert np.abs(projected - fb.weights.sum(axis=1)).max() < 1e-12


def test_extract_identity_coefficients_change_nothing():
    rng = np.random.default_rng(70)
    spec = random_amplitude_spectrogram(rng, 5, N_FFT)
    fb = sc.mel_filterbank(SR, N_FFT, 32)
    ones = sc.CorrectionCoefficients(np.ones(N_FFT // 2 + 1), N_FFT, SR,
                                     "b", "a", 1, "aligned")
    plain = sc.extract(spec, fb)
    corrected = sc.extract(spec, fb, ones)
    assert np.array_equal(plain.values, corrected.values)
    assert plain.correction == "none"
    assert corrected.correction == "pre_mel:b->a"


def test_extract_rejects_mismatched_filterbank():
    rng = np.random.default_rng(71)
    spec = random_amplitude_spectrogram(rng, 5, 1024)
    fb = sc.mel_filterbank(SR, N_FFT, 32)
    with pytest.raises(ValueError, match="shape mismatch"):
        sc.extract(spec, fb)


def test_correction_order_matters_inside_a_filter():
    # Gains varying across one filter's support: correcting before the mel
    # projection is not the same as scaling the projected value afterwards.
    n_fft = 64
    bins = n_fft // 2 + 1
    weights = np.zeros((2, bins))
    weights[0, 4:9] = [0.25, 0.5, 1.0, 0.5, 0.25]
    weights[1, 12:17] = [0.25, 0.5, 1.0, 0.5, 0.25]
    fb = sc.MelFilterbank(weights, 2, n_fft, SR, np.array([6 * SR / n_fft, 14 * SR / n_fft]))
    gains = np.ones(bins)
    gains[4:7] = 10.0
    gains[7:9] = 0.1
    coeffs = sc.CorrectionCoefficients(gains, n_fft, SR, "b", "a", 1, "aligned")
    mags = np.zeros((1, bins))
    mags[0, 4:9] = [1.0, 0.1, 0.1, 0.1, 1.0]
    mags[0, 12:17] = 1.0
    spec = sc.AmplitudeSpectrogram(mags, n_fft, 16, SR)

    pre_mel = sc.extract(spec, fb, coeffs).values
    # Post-mel alternative: project first, then scale by the filter-averaged gains.
    mel_gains = (fb.weights @ gains) / fb.weights.sum(axis=1)
    post_mel = np.log(np.maximum((spec.mags @ fb.weights.T) * mel_gains, 1e-10))
    assert np.abs(pre_mel - post_mel).max() >= 0.1


def test_extract_matches_reference_device_features(device_pair, aligned_dataset):
    coeffs = sc.estimate_aligned(aligned_pairs(aligned_dataset, "a", "b"),
                                 reference_device="a", source_device="b")
    fb = sc.mel_filterbank(SR, N_FFT, 64)
    in_band = (fb.center_frequencies >= 100.0) & (fb.center_frequencies <= 16000.0)
    for ref_spec, src_spec in aligned_pairs(aligned_dataset, "a", "b"):
        want = sc.extract(ref_spec, fb).values
        got = sc.extract(src_spec, fb, coeffs).values
        assert np.abs(got - want)[:, in_band].max() < 0.2


def test_mel_projection_is_linear_before_log():
    rng = np.random.default_rng(72)
    a = random_amplitude_spectrogram(rng, 4, N_FFT)
    b = random_amplitude_spectrogram(rng, 4, N_FFT)
    fb = sc.mel_filterbank(SR, N_FFT, 32)
    lhs = (a.mags + b.mags) @ fb.weights.T
    rhs = a.mags @ fb.weights.T + b.mags @ fb.weights.T
    assert np.abs(lhs - rhs).max() < 1e-12 * rhs.max()


def test_standardize_global_moments_and_idempotence():
    rng = np.random.default_rng(73)
    feats = [sc.FeatureTensor(rng.standard_normal((20, 8)) * 3 + 1) for _ in range(3)]
    out, stats = sc.standardize(feats, "global")
    stacked = np.concatenate([f.values for f in out])
    assert np.abs(stacked.mean(axis=0)).max() < 1e-9
    assert np.abs(stacked.var(axis=0) - 1.0).max() < 1e-9
    assert all(f.normalization == "global" and f.stats_id == "global" for f in out)
    twice, _ = sc.standardize(out, "global")
    for once, again in zip(out, twice):
        assert np.abs(once.values - again.values).max() < 1e-9


def test_standardize_per_device_needs_labels():
    feats = [sc.FeatureTensor(np.zeros((2, 4)))]
    with pytest.raises(ValueError, match="label"):
        sc.standardize(feats, "per_device")
    with pytest.raises(ValueError, match="grouping"):
        sc.standardize(feats, "per-device")


def test_standardize_rejects_a_group_of_mixed_mel_counts():
    # A one-mel first tensor would otherwise broadcast silently into the sums.
    feats = [sc.FeatureTensor(np.ones((3, 1))), sc.FeatureTensor(np.ones((2, 4)))]
    with pytest.raises(ValueError, match="group 'global' mixes 1 and 4 mels"):
        sc.standardize(feats, "global")
    out, _ = sc.standardize(feats, "per_device", ["a", "b"])
    assert [f.values.shape for f in out] == [(3, 1), (2, 4)]


def test_per_device_standardization_removes_device_offset():
    # Uncorrected features from two devices with a constant 6 dB gap:
    # per-device statistics erase the gap, global statistics keep it.
    gap = 10.0 ** (6.0 / 20.0)
    flat_a = sc.flat_response("a", N_FFT, SR)
    flat_b = sc.DeviceResponse(np.full(N_FFT // 2 + 1, gap), "b", N_FFT, SR)
    cfg = sc.SimConfig(seed=74, num_recordings=3, duration=1.0, source="white",
                       aligned=True, devices=(flat_a, flat_b),
                       sample_rate=SR, n_fft=N_FFT, hop=HOP)
    dataset = sc.generate_dataset(cfg)
    fb = sc.mel_filterbank(SR, N_FFT, 64)
    feats, labels = [], []
    for rid, device, spec in dataset.recordings.items:
        feats.append(sc.extract(spec, fb))
        labels.append(device)

    def device_gap(tensors):
        means = {}
        for label, feat in zip(labels, tensors):
            means.setdefault(label, []).append(feat.values.mean(axis=0))
        return np.abs(np.mean(means["b"], axis=0) - np.mean(means["a"], axis=0))

    in_band = (fb.center_frequencies >= 100.0) & (fb.center_frequencies <= 16000.0)
    assert device_gap(feats)[in_band].min() >= 0.5

    per_device, _ = sc.standardize(feats, "per_device", labels)
    assert device_gap(per_device)[in_band].max() < 0.05


def test_feature_tensor_validation():
    with pytest.raises(ValueError, match="finite"):
        sc.FeatureTensor(np.array([[np.inf]]))
    with pytest.raises(ValueError, match="normalization"):
        sc.FeatureTensor(np.zeros((1, 1)), normalization="weird")


def _coefficients(seed, n_fft=N_FFT, sample_rate=SR):
    gains = np.exp(np.random.default_rng(seed).uniform(-1.0, 1.0, n_fft // 2 + 1))
    return sc.CorrectionCoefficients(gains, n_fft, sample_rate, "b", "a", 1, "aligned")


@pytest.mark.parametrize("hop", [512, 384])
@pytest.mark.parametrize("frames", [1, BLOCK_FRAMES, BLOCK_FRAMES + 1, 3 * BLOCK_FRAMES + 5])
def test_extract_waveform_equals_whole_matrix_path(frames, hop):
    rng = np.random.default_rng(frames + hop)
    wave = sc.Waveform(rng.standard_normal(N_FFT + (frames - 1) * hop) * 0.1, SR)
    fb = sc.mel_filterbank(SR, N_FFT, 64)
    spec = sc.amplitude(sc.stft(wave, N_FFT, hop))
    assert spec.frames == frames
    for coeffs in (None, _coefficients(frames)):
        want = sc.extract(spec, fb, coeffs)
        got = sc.extract_waveform(wave, fb, coeffs, hop)
        assert np.array_equal(got.values, want.values)
        assert (got.normalization, got.stats_id, got.correction) == (
            want.normalization, want.stats_id, want.correction)


def test_extract_waveform_checks_like_stft():
    fb = sc.mel_filterbank(SR, N_FFT, 16)
    with pytest.raises(ValueError, match="input too short"):
        sc.extract_waveform(sc.Waveform(np.zeros(N_FFT - 1), SR), fb)
    with pytest.raises(ValueError, match="hop must be"):
        sc.extract_waveform(sc.Waveform(np.zeros(N_FFT), SR), fb, hop=0)
    with pytest.raises(ValueError, match="sample_rate mismatch"):
        sc.extract_waveform(sc.Waveform(np.zeros(N_FFT), 48000), fb)


def test_extract_rejects_coefficients_of_another_sample_rate():
    rng = np.random.default_rng(75)
    spec = random_amplitude_spectrogram(rng, 5, N_FFT)
    wave = sc.Waveform(rng.standard_normal(4 * N_FFT), SR)
    fb = sc.mel_filterbank(SR, N_FFT, 32)
    other_rate = _coefficients(76, sample_rate=48000)
    other_size = _coefficients(77, n_fft=1024)
    for coeffs, message in ((other_rate, "sample_rate mismatch"), (other_size, "bin mismatch")):
        with pytest.raises(ValueError, match=message):
            sc.extract(spec, fb, coeffs)
        with pytest.raises(ValueError, match=message):
            sc.extract_waveform(wave, fb, coeffs)
    with pytest.raises(ValueError, match="sample_rate mismatch"):
        sc.apply_to_amplitudes(other_rate, spec)


def _overlapping_filterbank():
    # Wide overlapping filters of uneven support, one of a single bin.
    n_fft = 64
    weights = np.zeros((4, n_fft // 2 + 1))
    weights[0, 1:12] = np.r_[np.linspace(0.1, 1.0, 6), np.linspace(0.8, 0.1, 5)]
    weights[1, 5:20] = np.r_[np.linspace(0.2, 2.0, 8), np.linspace(1.5, 0.05, 7)]
    weights[2, 18] = 0.7
    weights[3, 10:33] = np.r_[np.linspace(0.01, 0.5, 12), np.linspace(0.45, 0.0, 11)]
    return sc.MelFilterbank(weights, 4, n_fft, SR, np.array([1.0, 2.0, 3.0, 4.0]))


@pytest.mark.parametrize("fb", [sc.mel_filterbank(SR, N_FFT, 256),
                                sc.mel_filterbank(SR, N_FFT, 40),
                                _overlapping_filterbank()],
                         ids=["mel-256", "mel-40", "hand-built-overlapping"])
def test_banded_projection_matches_dense(fb):
    rng = np.random.default_rng(78)
    mags = random_amplitude_spectrogram(rng, 9, fb.n_fft).mags
    dense = mags @ fb.weights.T
    banded = fb.project(mags)
    assert banded.shape == dense.shape
    assert np.abs(banded - dense).max() <= 1e-12 * np.abs(dense).max()
    for row in range(mags.shape[0]):
        assert np.array_equal(fb.project(mags[row:row + 1])[0], banded[row])
    for bad in (mags[:, :-1], mags[0]):
        with pytest.raises(ValueError, match="magnitude matrix"):
            fb.project(bad)


@pytest.mark.parametrize("fb", [sc.mel_filterbank(SR, N_FFT, 256),
                                sc.mel_filterbank(SR, N_FFT, 40),
                                _overlapping_filterbank(),
                                sc.mel_filterbank(SR, N_FFT, 1),
                                sc.mel_filterbank(SR, N_FFT, 2000)],
                         ids=["mel-256", "mel-40", "hand-built-overlapping", "mel-1",
                              "mel-2000"])
def test_projection_rows_do_not_depend_on_their_tile(fb):
    # 40, 4 and 1 filters leave a partial chunk of filters; 130 rows leave a
    # partial tile. A slice starting mid-tile puts each row at another tile
    # position than in the whole call.
    rng = np.random.default_rng(fb.n_mels)
    mags = random_amplitude_spectrogram(rng, 2 * BLOCK_FRAMES + 2, fb.n_fft).mags
    whole = fb.project(mags)
    dense = mags @ fb.weights.T
    assert np.abs(whole - dense).max() <= 1e-12 * np.abs(dense).max()
    for rows in (1, BLOCK_FRAMES - 1, BLOCK_FRAMES, BLOCK_FRAMES + 1, len(mags)):
        for first in {0, 7, len(mags) - rows}:
            part = slice(first, min(first + rows, len(mags)))
            assert np.array_equal(fb.project(mags[part]), whole[part]), (rows, first)


@pytest.mark.parametrize("grouping", ["global", "per_device"])
def test_standardize_equals_concatenated_moments(grouping):
    # Groups of uneven lengths, interleaved: the streamed fold must give the
    # mean, variance and outputs of concatenating each group's frames.
    rng = np.random.default_rng(79)
    lengths = [7, 1, 130, 64, 3, 65, 20]
    labels = ["a", "b", "a", "c", "b", "a", "c"]
    feats = [sc.FeatureTensor(rng.standard_normal((n, 12)) * rng.uniform(0.5, 4.0)
                              + rng.uniform(-20.0, 0.0)) for n in lengths]
    out, stats = sc.standardize(feats, grouping, labels)
    keys = ([f"device:{label}" for label in labels] if grouping == "per_device"
            else ["global"] * len(feats))
    assert list(stats) == list(dict.fromkeys(keys))
    for key, (mean, std) in stats.items():
        stacked = np.concatenate([f.values for f, k in zip(feats, keys) if k == key])
        assert np.array_equal(mean, stacked.mean(axis=0))
        assert np.array_equal(std, np.sqrt(np.maximum(stacked.var(axis=0),
                                                      sc.features.VARIANCE_FLOOR)))
    for feat, key, got in zip(feats, keys, out):
        mean, std = stats[key]
        assert np.array_equal(got.values, (feat.values - mean) / std)
        assert (got.normalization, got.stats_id) == (grouping, key)
    for source in (feats, iter(feats)):
        lazy, _ = sc.iter_standardize(source, grouping, labels)
        assert all(np.array_equal(a.values, b.values) for a, b in zip(lazy, out, strict=True))
