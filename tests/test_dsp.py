import re
import tempfile
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import speccor as sc
from speccor.dsp import BLOCK_FRAMES

from conftest import SR, N_FFT, HOP, white_waveform


def test_stft_frame_count_standard_config():
    w = white_waveform(0, seconds=10.0)
    spec = sc.stft(w, N_FFT, HOP)
    assert spec.frames == (441000 - 2048) // 512 + 1 == 858
    assert spec.freq_bins == 1025


def test_stft_rejects_short_input():
    w = white_waveform(0, seconds=0.01)
    with pytest.raises(ValueError, match="input too short"):
        sc.stft(w, N_FFT, HOP)


def test_stft_rejects_bad_geometry():
    w = white_waveform(0)
    with pytest.raises(ValueError):
        sc.stft(w, 2047, HOP)
    with pytest.raises(ValueError):
        sc.stft(w, N_FFT, 0)


def test_stft_sine_at_bin_center_concentrates_energy():
    # A Hann-windowed tone at an exact bin center leaks into the two
    # neighbouring bins only; that triplet carries all the frame energy.
    k = 300
    freq = k * SR / N_FFT
    t = np.arange(SR) / SR
    w = sc.Waveform(0.5 * np.sin(2 * np.pi * freq * t), SR)
    mags = sc.amplitude(sc.stft(w, N_FFT, HOP)).mags
    energy = mags ** 2
    share = energy[:, k - 1:k + 2].sum(axis=1) / energy.sum(axis=1)
    assert share.min() >= 0.99


def test_stft_linearity():
    w = white_waveform(1)
    a = 3.7
    scaled = sc.Waveform(a * w.samples, SR)
    s1 = sc.stft(w, 512, 128).bins
    s2 = sc.stft(scaled, 512, 128).bins
    assert np.allclose(s2, a * s1, rtol=1e-12, atol=1e-12 * np.abs(s1).max())


def test_istft_reconstructs_interior():
    w = white_waveform(2, seconds=1.0)
    back = sc.istft(sc.stft(w, N_FFT, HOP))
    assert len(back) == (sc.stft(w, N_FFT, HOP).frames - 1) * HOP + N_FFT
    interior = slice(N_FFT, len(back) - N_FFT)
    err = np.abs(back.samples[interior] - w.samples[:len(back)][interior])
    assert err.max() < 1e-10 * np.abs(w.samples).max()


def test_istft_zero_spectrogram_is_silence():
    spec = sc.ComplexSpectrogram(np.zeros((10, N_FFT // 2 + 1), dtype=complex),
                                 N_FFT, HOP, SR)
    assert np.all(sc.istft(spec).samples == 0.0)


def test_istft_gain_scaled_sine():
    k = 100
    t = np.arange(SR) / SR
    w = sc.Waveform(0.4 * np.sin(2 * np.pi * (k * SR / N_FFT) * t), SR)
    spec = sc.stft(w, N_FFT, HOP)
    g = 2.5
    scaled = sc.ComplexSpectrogram(g * spec.bins, N_FFT, HOP, SR)
    out = sc.istft(scaled)
    interior = slice(N_FFT, len(out) - N_FFT)
    err = np.abs(out.samples[interior] - g * w.samples[:len(out)][interior])
    assert err.max() < 0.01 * g * 0.4


def test_istft_rejects_non_invertible_hop():
    # Periodic Hann at hop == n_fft leaves zero-weight samples.
    spec = sc.ComplexSpectrogram(np.ones((4, N_FFT // 2 + 1), dtype=complex),
                                 N_FFT, N_FFT, SR)
    with pytest.raises(ValueError, match="reconstruction condition violated"):
        sc.istft(spec)
    # A hop past n_fft leaves gaps.
    gapped = sc.ComplexSpectrogram(np.ones((4, N_FFT // 2 + 1), dtype=complex),
                                   N_FFT, N_FFT + 64, SR)
    with pytest.raises(ValueError, match="reconstruction condition violated"):
        sc.istft(gapped)


def _istft_frame_loop(c):
    """Reference istft: overlap-add one frame at a time, in frame order."""
    win = sc.dsp.hann(c.n_fft)
    frames = np.fft.irfft(c.bins, n=c.n_fft, axis=1) * win
    length = (c.frames - 1) * c.hop + c.n_fft
    acc, scale = np.zeros(length), np.zeros(length)
    for t in range(c.frames):
        acc[t * c.hop:t * c.hop + c.n_fft] += frames[t]
        scale[t * c.hop:t * c.hop + c.n_fft] += win * win
    valid = scale > 1e-11 * scale.max()
    return np.where(valid, acc / np.where(valid, scale, 1.0), 0.0)


def _random_gains(seed, n_fft):
    return np.exp(np.random.default_rng(seed).uniform(-2.0, 2.0, n_fft // 2 + 1))


@pytest.mark.parametrize("n_fft, hop", [(2048, 512), (2048, 384), (64, 1), (16, 7)])
def test_istft_equals_frame_by_frame_overlap_add(n_fft, hop):
    spec = sc.stft(white_waveform(hop, seconds=0.2), n_fft, hop)
    shaped = sc.ComplexSpectrogram(spec.bins * _random_gains(hop, n_fft), n_fft, hop, SR)
    assert np.array_equal(sc.istft(shaped).samples, _istft_frame_loop(shaped))


@pytest.mark.parametrize("n_fft, hop, seconds",
                         [(2048, 512, 3.0), (2048, 384, 1.0), (64, 1, 0.02), (256, 200, 0.3)])
def test_apply_gains_equals_whole_matrix_path(n_fft, hop, seconds):
    w = white_waveform(hop, seconds)
    # Zeros on the stft grid before the input and past its end: frames over
    # them alone reach no sample of the input.
    lead = -(-n_fft // hop) * hop
    padded = sc.Waveform(np.concatenate([np.zeros(lead), w.samples, np.zeros(n_fft)]), SR)
    spec = sc.stft(padded, n_fft, hop)
    assert spec.frames > sc.dsp.BLOCK_FRAMES  # more than one block
    coeffs = [sc.CorrectionCoefficients(_random_gains(seed, n_fft), n_fft, SR, "b", "a",
                                        1, "aligned") for seed in range(3)]
    outs = sc.apply_gains(w, [c.gains for c in coeffs], n_fft, hop)
    assert len(outs) == len(coeffs)
    for c, out in zip(coeffs, outs):
        whole = sc.istft(sc.apply_to_complex(c, spec)).samples
        assert np.array_equal(out.samples, whole[lead:lead + len(w)])


@pytest.mark.parametrize("n_fft, hop", [(512, 128), (2048, 512), (2048, 384)])
def test_apply_gains_keeps_the_edges_at_the_level_of_the_interior(n_fft, hop):
    """A steep curve must not swell the first and last samples, where only
    part of the frames reach."""
    w = white_waveform(n_fft, seconds=1.0)
    out = sc.apply_gains(w, [_random_gains(n_fft, n_fft)], n_fft, hop)[0].samples
    edges = np.concatenate([out[:n_fft], out[-n_fft:]])
    assert np.abs(edges).max() <= 1.5 * np.abs(out[n_fft:-n_fft]).max()


def test_apply_gains_checks_like_stft_and_istft():
    w = white_waveform(0)
    flat = [np.ones(N_FFT // 2 + 1)]
    for n_fft, hop, message in [(2047, HOP, "n_fft must be an even integer"),
                                (N_FFT, 0, "hop must be >= 1"),
                                (N_FFT, N_FFT, "reconstruction condition violated"),
                                (N_FFT, N_FFT + 64, "reconstruction condition violated")]:
        with pytest.raises(ValueError, match=message):
            sc.apply_gains(w, flat, n_fft, hop)
    with pytest.raises(ValueError, match="input too short"):
        sc.apply_gains(white_waveform(0, seconds=0.01), flat, N_FFT, HOP)
    with pytest.raises(ValueError, match=re.escape(
            f"gain curve must have n_fft//2+1 = {N_FFT // 2 + 1} bins, got shape ({N_FFT // 2},)")):
        sc.apply_gains(w, [np.ones(N_FFT // 2)], N_FFT, HOP)


def test_apply_gains_makes_no_full_length_temporaries():
    w = white_waveform(17, seconds=10.0)
    curves = [np.full(N_FFT // 2 + 1, gain) for gain in (0.5, 1.0, 2.0)]
    sc.apply_gains(w, curves, N_FFT, HOP)  # warm-up: FFT plan caches
    tracemalloc.start()
    try:
        sc.apply_gains(w, curves, N_FFT, HOP)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    full = len(w) * 8
    # Windowed frames and their inverse transforms, the spectrum and its
    # shaped copy: BLOCK_FRAMES rows each; and each curve's overlap-add sum,
    # BLOCK_FRAMES + N_FFT / HOP rows of HOP samples.
    block_set = BLOCK_FRAMES * 8 * (2 * N_FFT + 2 * 2 * (N_FFT // 2 + 1)) \
        + len(curves) * (BLOCK_FRAMES + N_FFT // HOP) * HOP * 8
    # The outputs and one block set: no full-length sum or mask.
    assert peak < len(curves) * full + block_set, (peak - len(curves) * full) / block_set


def test_amplitude_modulus_and_phase_invariance():
    bins = np.zeros((1, 9), complex)  # n_fft 16, the smallest grid
    bins[0, :3] = [3 + 4j, 0 + 0j, 1 - 1j]
    spec = sc.ComplexSpectrogram(bins, 16, 1, 100)
    mags = sc.amplitude(spec)
    assert mags.mags[0, 0] == 5.0
    assert mags.mags[0, 1] == 0.0
    rotated = sc.ComplexSpectrogram(bins * np.exp(0.7j), 16, 1, 100)
    assert np.allclose(sc.amplitude(rotated).mags, mags.mags, rtol=0, atol=1e-15)
    assert mags.hop == spec.hop and mags.sample_rate == spec.sample_rate


@pytest.mark.parametrize("kind", [sc.ComplexSpectrogram, sc.AmplitudeSpectrogram])
@pytest.mark.parametrize("matrix,message", [
    (np.ones(N_FFT // 2 + 1), "non-empty 2-D matrix"),
    (np.ones((0, N_FFT // 2 + 1)), "non-empty 2-D matrix"),
    (np.ones((3, N_FFT // 2)), "bin count 1024 inconsistent with n_fft=2048"),
], ids=["1-d", "empty", "bin-count"])
def test_spectrograms_reject_a_matrix_that_is_not_frames_by_bins(kind, matrix, message):
    with pytest.raises(ValueError, match=message):
        kind(matrix, N_FFT, HOP, SR)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -1e-3])
def test_amplitude_spectrogram_rejects_non_finite_or_negative_magnitudes(bad):
    mags = np.ones((3, N_FFT // 2 + 1))
    mags[1, 7] = bad
    with pytest.raises(ValueError, match="finite and non-negative"):
        sc.AmplitudeSpectrogram(mags, N_FFT, HOP, SR)


def test_both_spectrograms_read_one_matrix_of_their_own_dtype():
    ones = np.ones((3, N_FFT // 2 + 1), dtype=np.float32)
    spec = sc.ComplexSpectrogram(ones, N_FFT, HOP, SR)
    assert spec.bins.dtype == np.complex128 and spec.bins is spec.matrix
    mags = sc.amplitude(spec)
    assert type(mags) is sc.AmplitudeSpectrogram and isinstance(mags, sc.dsp.Spectrogram)
    assert mags.mags.dtype == np.float64 and mags.mags is mags.matrix
    assert np.array_equal(mags.mags, ones)
    assert (mags.frames, mags.freq_bins) == (3, N_FFT // 2 + 1)
    assert np.array_equal(mags.bin_frequencies(), sc.bin_frequencies(N_FFT, SR))
    assert (mags.n_fft, mags.hop, mags.sample_rate) == (N_FFT, HOP, SR)


def test_geometric_mean_basics():
    assert sc.geometric_mean([2.0, 8.0]) == pytest.approx(4.0, rel=1e-15)
    assert sc.geometric_mean(np.full(37, 0.123)) == pytest.approx(0.123, rel=1e-14)
    with pytest.raises(ValueError):
        sc.geometric_mean([])


def test_geometric_mean_matches_product_oracle():
    # Independent oracle: literal product ** (1/n) on small positive vectors.
    rng = np.random.default_rng(3)
    for _ in range(50):
        v = rng.uniform(0.1, 10.0, size=rng.integers(1, 20))
        oracle = float(np.prod(v)) ** (1.0 / v.size)
        assert sc.geometric_mean(v) == pytest.approx(oracle, rel=1e-12)


def test_geometric_mean_scale_property():
    rng = np.random.default_rng(4)
    for _ in range(20):
        v = rng.uniform(0.01, 100.0, size=64)
        a = float(rng.uniform(0.1, 10.0))
        assert sc.geometric_mean(a * v) == pytest.approx(
            a * sc.geometric_mean(v), rel=1e-12)


def test_geometric_mean_of_ratios_is_ratio_of_means():
    rng = np.random.default_rng(5)
    x = np.exp(rng.uniform(-2, 2, size=(13, 17)))
    y = np.exp(rng.uniform(-2, 2, size=(13, 17)))
    lhs = sc.geometric_mean(x / y)
    rhs = sc.geometric_mean(x) / sc.geometric_mean(y)
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_convolve_identity_and_delay():
    w = white_waveform(6, seconds=0.01)
    out = sc.convolve(w, [1.0])
    assert np.array_equal(out.samples, w.samples)
    delayed = sc.convolve(w, [0.0, 1.0])
    assert np.array_equal(delayed.samples[1:], w.samples)
    assert delayed.samples[0] == 0.0


def test_convolve_matches_brute_force():
    rng = np.random.default_rng(7)
    x = rng.standard_normal(64)
    taps = rng.standard_normal(9)
    # O(n*m) double-loop oracle.
    expected = np.zeros(64 + 9 - 1)
    for i in range(64):
        for j in range(9):
            expected[i + j] += x[i] * taps[j]
    out = sc.convolve(sc.Waveform(x, SR), taps)
    assert np.abs(out.samples - expected).max() < 1e-12


def test_convolve_commutative_and_methods_agree():
    rng = np.random.default_rng(8)
    x = rng.standard_normal(200)
    y = rng.standard_normal(33)
    ab = sc.convolve(sc.Waveform(x, SR), y).samples
    ba = sc.convolve(sc.Waveform(y, SR), x).samples
    assert np.abs(ab - ba).max() < 1e-12 * np.abs(ab).max()
    direct = sc.convolve(sc.Waveform(x, SR), y, method="direct").samples
    via_fft = sc.convolve(sc.Waveform(x, SR), y, method="fft").samples
    assert np.abs(direct - via_fft).max() < 1e-9 * np.abs(direct).max()
    with pytest.raises(ValueError):
        sc.convolve(sc.Waveform(x, SR), [])


def test_band_bins_covers_midband():
    band = sc.band_bins(N_FFT, SR)
    freqs = sc.bin_frequencies(N_FFT, SR)
    assert freqs[band[0]] >= 100.0
    assert freqs[band[-1]] <= 16000.0
    assert freqs[band[0] - 1] < 100.0
    assert freqs[band[-1] + 1] > 16000.0


def test_waveform_validation():
    with pytest.raises(ValueError, match="finite"):
        sc.Waveform(np.array([0.0, np.nan]), SR)
    with pytest.raises(ValueError):
        sc.Waveform(np.zeros(4), 0)


def test_waveform_refuses_a_sample_rate_that_is_not_whole():
    with pytest.raises(ValueError, match="sample_rate must be a positive whole number, "
                                         "got 44100.7"):
        sc.Waveform(np.zeros(4), 44100.7)
    rate = sc.Waveform(np.zeros(4), 44100.0).sample_rate
    assert rate == 44100 and type(rate) is int


# -- oracles: scipy.signal, which the numpy code replaces ------------------------------

@pytest.mark.parametrize("n", [16, 64, 512, 2048, 4096])
def test_hann_window_equals_scipy(n):
    signal = pytest.importorskip("scipy.signal")
    assert np.array_equal(sc.dsp.hann(n),
                          signal.get_window("hann", n, fftbins=True))


def test_fast_fft_len_equals_scipy():
    fft = pytest.importorskip("scipy.fft")
    mismatches = [n for n in range(1, 200001)
                  if sc.dsp.fast_fft_len(n) != fft.next_fast_len(n, True)]
    assert mismatches == []


# The largest hop at which Hann's least squared-window phase sum is still
# 1e-2 of its largest: about 0.83 n_fft.
HANN_HOP_LIMITS = {16: 13, 64: 53, 512: 424, 2048: 1697}


@pytest.mark.parametrize("n_fft", sorted(HANN_HOP_LIMITS))
def test_overlap_add_invertible_equals_check_nola(n_fft):
    signal = pytest.importorskip("scipy.signal")
    win = sc.dsp.hann(n_fft)
    for hop in range(1, n_fft + 65):
        # check_NOLA takes the overlap, which cannot be negative.
        expected = hop <= HANN_HOP_LIMITS[n_fft] and signal.check_NOLA(win, n_fft, n_fft - hop)
        assert sc.dsp.overlap_add_invertible(win, hop) == expected, hop


def test_overlap_add_invertible_rejects_a_hop_outside_the_window_without_allocating():
    win = sc.dsp.hann(64)
    tracemalloc.start()
    try:
        # Folding the squared window into 10**6 columns would take 8 MB.
        assert [sc.dsp.overlap_add_invertible(win, hop) for hop in (10**6, 65, 0, -1)] \
            == [False] * 4
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 12, peak


@pytest.mark.parametrize("n, m", [(132300, 1025), (441000, 1025), (1000, 1)])
def test_fft_convolve_equals_fftconvolve(n, m):
    signal = pytest.importorskip("scipy.signal")
    rng = np.random.default_rng(n)
    x = rng.standard_normal(n)
    taps = rng.standard_normal(m)
    out = sc.convolve(sc.Waveform(x, SR), taps, method="fft").samples
    assert np.array_equal(out, signal.fftconvolve(x, taps))


# -- one STFT grid rule (dsp.check_grid) at every entry that takes a grid ----------

GRID_MESSAGES = {"n_fft": "n_fft must be an even integer >= 16, got {}",
                 "hop": "hop must be >= 1, got {}",
                 "sample_rate": "sample_rate must be a positive whole number, got {}"}
_NEGATIVE, _FLOATS = st.integers(-2**40, -1), st.floats(allow_nan=True, allow_infinity=True)
# n_fft up to 512 and hops up to n_fft/4, so that every legal hop inverts stably.
LEGAL_GRID = {"n_fft": st.integers(8, 256).map(lambda half: 2 * half),
              "hop": st.integers(1, 4),
              "sample_rate": st.integers(1, 192000) | st.integers(1, 192000).map(float)}
# Odd, small, zero, negative, fractional and bool values: a float n_fft or hop,
# even a whole one, is no integer.
ILLEGAL_GRID = {
    "n_fft": st.one_of(st.integers(8, 256).map(lambda half: 2 * half + 1), st.integers(1, 15),
                       st.just(0), _NEGATIVE, _FLOATS, st.booleans()),
    "hop": st.one_of(st.just(0), _NEGATIVE, _FLOATS, st.booleans()),
    "sample_rate": st.one_of(st.just(0), _NEGATIVE, st.booleans(),
                             _FLOATS.filter(lambda x: not (x >= 1 and x.is_integer()))),
}
_SILENCE = sc.Waveform(np.zeros(512), 8000)  # one frame of the largest legal n_fft


def _created_wav_rate(path, sample_rate):
    with sc.create_wav(path, sample_rate, 0):
        pass
    return sc.wavio.read_wav_info(path).sample_rate


def _written_responses_rate(path, n_fft, sample_rate):
    sc.files.write_responses(path, sample_rate, n_fft, {})
    return sc.files.read_responses(path)[0]


def _read_responses_rate(path, n_fft, sample_rate):
    # Written by hand: write_responses refuses the grids its reader must refuse.
    path.write_text(f"{sc.files.RESPONSES_MAGIC}\nsample_rate {sample_rate}\nn_fft {n_fft}\n"
                    "devices 0\nenvironments 0\n")
    return sc.files.read_responses(path)[0]


# Each entry: the grid quantities it takes, and a call on the arguments ``g``
# that returns the sample rate it stores, if it takes one.
GRID_ENTRIES = {
    "check_grid": ("n_fft hop sample_rate",
                   lambda g: sc.dsp.check_grid(g.n_fft, g.hop, g.sample_rate)),
    "frame_count": ("n_fft hop", lambda g: sc.dsp.frame_count(512, g.n_fft, g.hop)),
    "stft": ("n_fft hop", lambda g: sc.stft(_SILENCE, g.n_fft, g.hop)),
    "apply_gains": ("n_fft hop",
                    lambda g: sc.apply_gains(_SILENCE, [np.ones(g.bins)], g.n_fft, g.hop)),
    "waveform_log_sum": ("n_fft hop", lambda g: sc.waveform_log_sum(_SILENCE, g.n_fft, g.hop)),
    "Waveform": ("sample_rate", lambda g: sc.Waveform(np.zeros(4), g.sample_rate).sample_rate),
    "ComplexSpectrogram": ("n_fft hop sample_rate", lambda g: sc.ComplexSpectrogram(
        np.zeros((1, g.bins)), g.n_fft, g.hop, g.sample_rate).sample_rate),
    "AmplitudeSpectrogram": ("n_fft hop sample_rate", lambda g: sc.AmplitudeSpectrogram(
        np.zeros((1, g.bins)), g.n_fft, g.hop, g.sample_rate).sample_rate),
    "CorrectionCoefficients": ("n_fft sample_rate", lambda g: sc.CorrectionCoefficients(
        np.ones(g.bins), g.n_fft, g.sample_rate, "b", "a", 1, "aligned").sample_rate),
    "DeviceSpectrumStats": ("n_fft sample_rate", lambda g: sc.DeviceSpectrumStats(
        np.zeros(g.bins), 1, 1, "d", g.n_fft, g.sample_rate).sample_rate),
    "FirFilter": ("sample_rate", lambda g: sc.FirFilter(
        np.array([0.25, 0.5, 0.25]), g.sample_rate, 1).sample_rate),
    "Response": ("n_fft sample_rate", lambda g: sc.Response(
        np.ones(g.bins), "a", g.n_fft, g.sample_rate).sample_rate),
    "MelFilterbank": ("n_fft sample_rate", lambda g: sc.MelFilterbank(
        np.eye(4, g.bins), 4, g.n_fft, g.sample_rate, np.arange(1.0, 5.0)).sample_rate),
    "mel_filterbank": ("n_fft sample_rate",
                       lambda g: sc.mel_filterbank(g.sample_rate, g.n_fft, 4).sample_rate),
    "simulate.check_grid": ("n_fft hop sample_rate", lambda g: sc.simulate.check_grid(
        0, g.sample_rate, g.n_fft, g.hop, g.duration)),
    "SimConfig": ("n_fft hop sample_rate", lambda g: sc.SimConfig(
        0, 1, g.duration, "white", False, (g.device,), (), g.sample_rate, g.n_fft,
        g.hop).sample_rate),
    "create_wav": ("sample_rate", lambda g: _created_wav_rate(g.path, g.sample_rate)),
    "write_responses": ("n_fft sample_rate",
                        lambda g: _written_responses_rate(g.path, g.n_fft, g.sample_rate)),
    "read_responses": ("n_fft sample_rate",
                       lambda g: _read_responses_rate(g.path, g.n_fft, g.sample_rate)),
}
# Entries that read the grid from a text header, which holds only integers: they
# are called only when every quantity they take is drawn as an int.
TEXT_ENTRIES = {"read_responses"}


@settings(derandomize=True, max_examples=150, deadline=None)
@given(bad=st.sampled_from([None, *GRID_MESSAGES]), data=st.data())
def test_every_entry_that_takes_a_grid_accepts_or_refuses_it_alike(bad, data):
    """One quantity at most is illegal; every entry that takes it refuses it with
    its one message (create_wav and read_responses name the file first), and
    every other entry accepts the grid and stores the sample rate as the int it
    equals."""
    grid = {name: data.draw((ILLEGAL_GRID if name == bad else LEGAL_GRID)[name], label=name)
            for name in GRID_MESSAGES}
    legal_n_fft = grid["n_fft"] if bad != "n_fft" else 16
    legal_rate = grid["sample_rate"] if bad != "sample_rate" else 8000
    with tempfile.TemporaryDirectory() as tmp:
        g = SimpleNamespace(**grid, bins=legal_n_fft // 2 + 1, duration=1024 / legal_rate,
                            device=sc.flat_response("a", legal_n_fft, legal_rate),
                            path=Path(tmp) / "x.wav")
        for name, (takes, call) in GRID_ENTRIES.items():
            if name in TEXT_ENTRIES and any(type(grid[q]) is not int for q in takes.split()):
                continue
            if bad in takes.split():
                with pytest.raises(ValueError) as info:
                    call(g)
                assert str(info.value).removeprefix(f"{g.path}: ") == \
                    GRID_MESSAGES[bad].format(grid[bad]), name
            elif "sample_rate" in takes:
                rate = call(g)
                assert type(rate) is int and rate == grid["sample_rate"], name
            else:
                call(g)


def test_check_match_names_the_first_quantity_that_differs():
    quantities = ("n_fft", "hop", "sample_rate", "device")
    a = SimpleNamespace(n_fft=N_FFT, hop=HOP, sample_rate=SR, device="a")
    sc.dsp.check_match(quantities, ("left", a), ("right", SimpleNamespace(**vars(a))))
    for changes, message in [
            ({"hop": 256, "sample_rate": 48000}, f"hop mismatch: left {HOP}, right 256"),
            ({"n_fft": 1024}, f"n_fft mismatch: left {N_FFT}, right 1024"),
            ({"sample_rate": 48000}, f"sample_rate mismatch: left {SR} Hz, right 48000 Hz"),
            ({"device": ""}, "device mismatch: left 'a', right ''")]:
        b = SimpleNamespace(**{**vars(a), **changes})
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            sc.dsp.check_match(quantities, ("left", a), ("right", b))
