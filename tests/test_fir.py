import numpy as np
import pytest

import speccor as sc
from speccor import fir, wavio

from conftest import SR, N_FFT, HOP, aligned_pairs, white_waveform


def coeffs_from_gains(gains, n_fft=N_FFT, sample_rate=SR):
    return sc.CorrectionCoefficients(np.asarray(gains, dtype=float), n_fft,
                                     sample_rate, "b", "a", 1, "aligned")


@pytest.fixture(scope="module")
def smooth_target():
    resp = sc.make_smooth_response(42, 12.0, N_FFT, SR)
    return coeffs_from_gains(resp.gains)


def test_design_identity_target_is_delayed_impulse():
    filt = sc.design_ls(coeffs_from_gains(np.ones(N_FFT // 2 + 1)), 257)
    center = filt.group_delay
    assert abs(filt.taps[center] - 1.0) < 1e-3
    others = np.delete(filt.taps, center)
    assert np.abs(others).max() < 1e-3


def test_design_constant_gain_scales_impulse():
    g = 0.37
    filt = sc.design_ls(coeffs_from_gains(np.full(N_FFT // 2 + 1, g)), 257)
    assert abs(filt.taps[filt.group_delay] - g) < 1e-3 * g


def test_design_rejects_bad_tap_counts():
    c = coeffs_from_gains(np.ones(N_FFT // 2 + 1))
    with pytest.raises(ValueError, match="odd"):
        sc.design_ls(c, 1024)
    with pytest.raises(ValueError):
        sc.design_ls(c, 1)
    with pytest.raises(ValueError,
                       match=f"num_taps {N_FFT + 3} exceeds n_fft \\+ 1 = {N_FFT + 1}"):
        sc.design_ls(c, N_FFT + 3)


def _lstsq_taps(c, num_taps):
    # The least-squares fit written out: the cosine basis on the bin grid.
    clamp = 10.0 ** (sc.fir.DEFAULT_CLAMP_DB / 20.0)
    target = np.clip(c.gains, 1.0 / clamp, clamp)
    half = (num_taps - 1) // 2
    angles = (2.0 * np.pi / c.n_fft) * np.outer(np.arange(c.freq_bins), np.arange(half + 1))
    basis = np.where(np.arange(half + 1) == 0, 1.0, 2.0) * np.cos(angles)
    a, *_ = np.linalg.lstsq(basis, target, rcond=None)
    return np.concatenate([a[:0:-1], a])


@pytest.mark.parametrize("n_fft", [16, 17, 64, 1001, 2048])
def test_design_equals_least_squares_fit(n_fft):
    rng = np.random.default_rng(n_fft)
    c = coeffs_from_gains(np.exp(rng.uniform(-3.0, 3.0, n_fft // 2 + 1)), n_fft)
    for num_taps in sorted({3, 5, 129, 1025, n_fft - 1, n_fft, n_fft + 1}):
        if 3 <= num_taps <= n_fft + 1 and num_taps % 2 == 1:
            want = _lstsq_taps(c, num_taps)
            got = sc.design_ls(c, num_taps).taps
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), num_taps


def test_design_meets_tolerance_on_smooth_target(smooth_target):
    filt = sc.design_ls(smooth_target, 1025)
    band = sc.band_bins(N_FFT, SR)
    freqs = sc.bin_frequencies(N_FFT, SR)[band]
    response = sc.frequency_response(filt, freqs)
    err_db = np.abs(sc.to_db(response / smooth_target.gains[band]))
    assert err_db.max() < 0.5


def test_design_clamps_extreme_gains():
    gains = np.full(N_FFT // 2 + 1, 10.0 ** (60.0 / 20.0))  # +60 dB everywhere
    filt = sc.design_ls(coeffs_from_gains(gains), 257)
    clamp = 10.0 ** (40.0 / 20.0)
    assert abs(filt.taps[filt.group_delay] - clamp) < 1e-3 * clamp


def test_designed_taps_are_exactly_symmetric(smooth_target):
    filt = sc.design_ls(smooth_target, 129)
    assert np.abs(filt.taps - filt.taps[::-1]).max() <= 1e-12 * np.abs(filt.taps).max()
    assert filt.num_taps == 129
    assert filt.group_delay == 64


def test_design_is_scale_equivariant(smooth_target):
    k = 1.8
    base = sc.design_ls(smooth_target, 257)
    scaled = sc.design_ls(coeffs_from_gains(k * smooth_target.gains), 257)
    assert np.abs(scaled.taps - k * base.taps).max() < 1e-9 * np.abs(base.taps).max()


def test_design_error_decreases_with_tap_count(smooth_target):
    freqs = sc.bin_frequencies(N_FFT, SR)
    prev = np.inf
    for num_taps in (65, 129, 257, 513, 1025):
        filt = sc.design_ls(smooth_target, num_taps)
        err = float(np.sum((sc.frequency_response(filt, freqs)
                            - smooth_target.gains) ** 2))
        assert err <= prev * (1 + 1e-9)
        prev = err


def test_frequency_response_unit_impulse():
    filt = sc.FirFilter([0.0, 1.0, 0.0], SR, N_FFT // 2 + 1)
    grid = np.linspace(0, SR / 2, 50)
    assert np.abs(sc.frequency_response(filt, grid) - 1.0).max() < 1e-12


def test_frequency_response_smoothing_kernel_endpoints():
    filt = sc.FirFilter([0.25, 0.5, 0.25], SR, N_FFT // 2 + 1)
    response = sc.frequency_response(filt, [0.0, SR / 2.0])
    assert response[0] == pytest.approx(1.0, abs=1e-12)
    assert response[1] == pytest.approx(0.0, abs=1e-12)


def test_frequency_response_rejects_out_of_range():
    filt = sc.FirFilter([0.25, 0.5, 0.25], SR, N_FFT // 2 + 1)
    with pytest.raises(ValueError, match="frequency out of range"):
        sc.frequency_response(filt, [SR])


def test_filter_symmetry_enforced():
    with pytest.raises(ValueError, match="symmetric"):
        sc.FirFilter([1.0, 0.5, 0.0], SR, N_FFT // 2 + 1)
    with pytest.raises(ValueError):
        sc.FirFilter([1.0, 1.0], SR, N_FFT // 2 + 1)


def test_apply_identity_filter_round_trips():
    filt = sc.design_ls(coeffs_from_gains(np.ones(N_FFT // 2 + 1)), 513)
    w = white_waveform(30, seconds=0.5)
    out = sc.apply_filter(filt, w)
    assert len(out) == len(w)
    assert np.abs(out.samples - w.samples).max() < 1e-3


def test_apply_filter_rejects_sample_rate_mismatch():
    filt = sc.FirFilter([0.25, 0.5, 0.25], SR, N_FFT // 2 + 1)
    w = sc.Waveform(np.zeros(100), 16000)
    with pytest.raises(ValueError, match="sample-rate mismatch"):
        sc.apply_filter(filt, w)


def test_apply_filter_without_compensation_keeps_full_convolution():
    filt = sc.FirFilter([0.25, 0.5, 0.25], SR, N_FFT // 2 + 1)
    w = white_waveform(31, seconds=0.01)
    out = sc.apply_filter(filt, w, compensate_delay=False)
    assert len(out) == len(w) + filt.num_taps - 1


def _interior_log_spectrum(w, band):
    spec = sc.amplitude(sc.stft(w, N_FFT, HOP))
    edge = int(np.ceil(N_FFT / HOP))
    return np.log(np.maximum(spec.mags[edge:-edge], 1e-10)).mean(axis=0)[band]


def test_fir_path_matches_stft_path(device_pair, aligned_dataset):
    ref, src = device_pair
    coeffs = sc.estimate_aligned(aligned_pairs(aligned_dataset, "a", "b"),
                                 reference_device="a", source_device="b")
    filt = sc.design_ls(coeffs, 1025)
    rec = next(r.waveform for r in aligned_dataset.waveforms if r.device_id == "b")
    band = sc.band_bins(N_FFT, SR)

    fir_path = _interior_log_spectrum(sc.apply_filter(filt, rec), band)
    stft_spec = sc.apply_to_amplitudes(coeffs, sc.amplitude(sc.stft(rec, N_FFT, HOP)))
    edge = int(np.ceil(N_FFT / HOP))
    stft_path = np.log(np.maximum(stft_spec.mags[edge:-edge], 1e-10)).mean(axis=0)[band]
    assert np.abs((fir_path - stft_path) * sc.to_db(np.e)).max() < 1.0


def test_fir_cascade_is_near_identity(device_pair, aligned_dataset):
    pairs = aligned_pairs(aligned_dataset, "a", "b")
    fwd = sc.estimate_aligned(pairs, reference_device="a", source_device="b")
    back = sc.estimate_aligned([(s, r) for r, s in pairs],
                               reference_device="b", source_device="a")
    f_fwd = sc.design_ls(fwd, 1025)
    f_back = sc.design_ls(back, 1025)
    w = white_waveform(32, seconds=2.0)
    out = sc.apply_filter(f_back, sc.apply_filter(f_fwd, w))
    band = sc.band_bins(N_FFT, SR)
    deviation = _interior_log_spectrum(out, band) - _interior_log_spectrum(w, band)
    assert np.abs(deviation * sc.to_db(np.e)).max() < 1.0


SEGMENT = fir.SEGMENT_SAMPLES


def _symmetric_filter(seed, num_taps):
    half = np.random.default_rng(seed).standard_normal(num_taps // 2 + 1)
    return sc.FirFilter(np.concatenate([half[:0:-1], half]), SR, N_FFT // 2 + 1)


@pytest.mark.parametrize("compensate", [True, False])
@pytest.mark.parametrize("num_taps", [1025, SEGMENT + 1001], ids=["1025", "longer"])
@pytest.mark.parametrize("length", [SEGMENT // 3, SEGMENT, SEGMENT + 1, 3 * SEGMENT + 77],
                         ids=["short", "one", "one-plus-1", "several"])
def test_streamed_filter_equals_the_full_convolution(length, num_taps, compensate, tmp_path):
    filt = _symmetric_filter(num_taps, num_taps)
    # float32 samples, so the file streamed holds the waveform exactly
    samples = np.random.default_rng(length).standard_normal(length).astype(np.float32)
    w = sc.Waveform(samples, SR)
    full = sc.convolve(w, filt.taps).samples
    want = full[filt.group_delay:filt.group_delay + length] if compensate else full
    sc.write_wav(tmp_path / "in.wav", w)
    with wavio.open_wav(tmp_path / "in.wav") as audio:
        got = np.concatenate([block[0].copy()
                              for block in fir.filter_blocks(filt, audio, compensate)])
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-9 * np.abs(want).max()
    assert np.array_equal(sc.apply_filter(filt, w, compensate).samples, got)


def test_streamed_filter_rejects_an_empty_input():
    filt = sc.FirFilter([0.25, 0.5, 0.25], SR, N_FFT // 2 + 1)
    with pytest.raises(ValueError, match="no samples to filter"):
        sc.apply_filter(filt, sc.Waveform(np.zeros(0), SR))
