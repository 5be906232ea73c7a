import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import speccor as sc
from speccor.simulate import MAX_LOG_STEP, SOURCES, check_grid

from conftest import SR, N_FFT, HOP, white_waveform


def test_smooth_response_is_deterministic():
    a = sc.make_smooth_response(7, 20.0, N_FFT, SR)
    b = sc.make_smooth_response(7, 20.0, N_FFT, SR)
    assert np.array_equal(a.gains, b.gains)
    c = sc.make_smooth_response(8, 20.0, N_FFT, SR)
    assert not np.array_equal(a.gains, c.gains)


def test_smooth_response_tiny_max_db_is_flat():
    resp = sc.make_smooth_response(7, 1e-6, N_FFT, SR)
    assert np.abs(sc.to_db(resp.gains)).max() <= 1e-6 + 1e-12


def test_smooth_response_hits_requested_peak_and_bound():
    for max_db in (1.0, 12.0, 40.0):
        resp = sc.make_smooth_response(9, max_db, N_FFT, SR)
        assert np.abs(sc.to_db(resp.gains)).max() == pytest.approx(max_db, rel=1e-9)


def test_smooth_response_rejects_bad_max_db():
    with pytest.raises(ValueError):
        sc.make_smooth_response(1, 0.0, N_FFT, SR)
    with pytest.raises(ValueError):
        sc.make_smooth_response(1, 41.0, N_FFT, SR)


def test_smooth_response_adjacent_bin_steps_stay_small():
    for seed in range(100):
        resp = sc.make_smooth_response(seed, 20.0, N_FFT, SR)
        steps = np.abs(np.diff(np.log(resp.gains)))
        assert steps.max() < MAX_LOG_STEP


def test_response_validation_rejects_rough_or_loud_curves():
    jagged = np.ones(N_FFT // 2 + 1)
    jagged[100] = np.exp(0.5)
    with pytest.raises(ValueError, match="smooth"):
        sc.DeviceResponse(jagged, "d", N_FFT, SR)
    with pytest.raises(ValueError, match="dB"):
        sc.DeviceResponse(np.full(N_FFT // 2 + 1, 10.0 ** (41.0 / 20.0)), "d", N_FFT, SR)


def test_record_identity_responses_pass_through():
    w = white_waveform(40, seconds=1.0)
    out = sc.record(w, sc.flat_environment("e", N_FFT, SR),
                    sc.flat_response("d", N_FFT, SR), hop=HOP)
    assert len(out) == len(w)
    interior = slice(N_FFT, len(w) - N_FFT)
    assert np.abs(out.samples[interior] - w.samples[interior]).max() < 1e-9


def test_record_constant_gain_scales_rms():
    g = 0.5
    dev = sc.DeviceResponse(np.full(N_FFT // 2 + 1, g), "d", N_FFT, SR)
    w = white_waveform(41, seconds=1.0)
    out = sc.record(w, None, dev, hop=HOP)
    interior = slice(N_FFT, len(w) - N_FFT)
    rms_in = np.sqrt(np.mean(w.samples[interior] ** 2))
    rms_out = np.sqrt(np.mean(out.samples[interior] ** 2))
    assert rms_out == pytest.approx(g * rms_in, rel=1e-3)


def test_record_self_consistency_against_truth():
    dev = sc.make_smooth_response(12, 20.0, N_FFT, SR, device_id="b")
    env = sc.make_smooth_environment(21, 6.0, N_FFT, SR)
    w = white_waveform(42, seconds=10.0)
    rec = sc.record(w, env, dev, hop=HOP)
    clean = sc.amplitude(sc.stft(w, N_FFT, HOP)).mags
    got = sc.amplitude(sc.stft(rec, N_FFT, HOP)).mags
    edge = int(np.ceil(N_FFT / HOP))
    ratio = got[edge:-edge].mean(axis=0) / clean[edge:-edge].mean(axis=0)
    band = sc.band_bins(N_FFT, SR)
    err = np.abs(sc.to_db(ratio[band] / (env.gains * dev.gains)[band]))
    assert err.max() < 0.5


def test_record_rejects_config_mismatch():
    dev = sc.flat_response("d", N_FFT, SR)
    w = sc.Waveform(np.zeros(SR // 2), 16000)
    with pytest.raises(ValueError, match=f"sample_rate mismatch: waveform 16000 Hz, "
                                         f"device {SR} Hz"):
        sc.record(w, None, dev)
    env_bad = sc.flat_environment("e", 1024, SR)
    with pytest.raises(ValueError, match=f"n_fft mismatch: device {N_FFT}, environment 1024"):
        sc.record(white_waveform(1), env_bad, dev)


def test_record_cascade_is_multiplicative():
    d1 = sc.make_smooth_response(50, 10.0, N_FFT, SR, device_id="d1")
    d2 = sc.make_smooth_response(51, 10.0, N_FFT, SR, device_id="d2")
    combined = sc.DeviceResponse(d1.gains * d2.gains, "d12", N_FFT, SR)
    w = white_waveform(52, seconds=2.0)
    two_step = sc.record(sc.record(w, None, d1, hop=HOP), None, d2, hop=HOP)
    one_step = sc.record(w, None, combined, hop=HOP)
    edge = int(np.ceil(N_FFT / HOP))
    band = sc.band_bins(N_FFT, SR)

    def avg(wave):
        mags = sc.amplitude(sc.stft(wave, N_FFT, HOP)).mags
        return mags[edge:-edge].mean(axis=0)[band]

    assert np.abs(sc.to_db(avg(two_step) / avg(one_step))).max() < 1.0


def test_generate_dataset_aligned_identity_devices_coincide():
    devices = (sc.flat_response("a", N_FFT, SR), sc.flat_response("b", N_FFT, SR))
    cfg = sc.SimConfig(seed=1, num_recordings=2, duration=0.5, source="white",
                       aligned=True, devices=devices,
                       sample_rate=SR, n_fft=N_FFT, hop=HOP)
    dataset = sc.generate_dataset(cfg)
    for group, members in dataset.recordings.groups().items():
        specs = [spec.mags for _, _, spec in members]
        assert np.array_equal(specs[0], specs[1])
    waves = {}
    for rec in dataset.waveforms:
        waves.setdefault(rec.group_id, []).append(rec.waveform.samples)
    for pair in waves.values():
        assert np.array_equal(pair[0], pair[1])


def test_generate_dataset_is_deterministic():
    devices = (sc.make_smooth_response(60, 15.0, N_FFT, SR, device_id="a"),
               sc.make_smooth_response(61, 15.0, N_FFT, SR, device_id="b"))
    cfg = sc.SimConfig(seed=4, num_recordings=2, duration=0.3, source="pink",
                       aligned=False, devices=devices,
                       sample_rate=SR, n_fft=N_FFT, hop=HOP)
    first = sc.generate_dataset(cfg)
    second = sc.generate_dataset(cfg)
    for r1, r2 in zip(first.waveforms, second.waveforms):
        assert r1.recording_id == r2.recording_id
        assert np.array_equal(r1.waveform.samples, r2.waveform.samples)


def test_generate_dataset_unaligned_draws_fresh_sources():
    devices = (sc.flat_response("a", N_FFT, SR), sc.flat_response("b", N_FFT, SR))
    cfg = sc.SimConfig(seed=4, num_recordings=1, duration=0.3, source="white",
                       aligned=False, devices=devices,
                       sample_rate=SR, n_fft=N_FFT, hop=HOP)
    dataset = sc.generate_dataset(cfg)
    a, b = (rec.waveform.samples for rec in dataset.waveforms)
    assert not np.array_equal(a, b)
    assert dataset.recordings.alignment_groups is None


@pytest.mark.parametrize("count", [1, 4, 16, 128])
def test_generate_dataset_supports_standard_recording_counts(count):
    devices = (sc.flat_response("a", N_FFT, SR), sc.flat_response("b", N_FFT, SR))
    cfg = sc.SimConfig(seed=2, num_recordings=count, duration=0.1, source="white",
                       aligned=True, devices=devices,
                       sample_rate=SR, n_fft=N_FFT, hop=HOP)
    dataset = sc.generate_dataset(cfg)
    assert len(dataset.recordings.items) == 2 * count
    assert len(dataset.recordings.groups()) == count


def test_generate_dataset_source_kinds_differ():
    devices = (sc.flat_response("a", N_FFT, SR),)
    specs = {}
    for source in ("white", "pink", "speechlike-modulated"):
        cfg = sc.SimConfig(seed=3, num_recordings=1, duration=1.0, source=source,
                           aligned=False, devices=devices,
                           sample_rate=SR, n_fft=N_FFT, hop=HOP)
        mags = sc.generate_dataset(cfg).recordings.items[0][2].mags
        specs[source] = mags.mean(axis=0)
    band = sc.band_bins(N_FFT, SR)
    # Pink noise tilts the spectrum down with frequency; white does not.
    tilt_white = sc.to_db(specs["white"][band[-1]] / specs["white"][band[0]])
    tilt_pink = sc.to_db(specs["pink"][band[-1]] / specs["pink"][band[0]])
    assert tilt_pink < tilt_white - 10.0


def test_sim_config_validation():
    devices = (sc.flat_response("a", N_FFT, SR),)
    with pytest.raises(ValueError, match="source"):
        sc.SimConfig(seed=0, num_recordings=1, duration=1.0, source="brown",
                     aligned=True, devices=devices, sample_rate=SR,
                     n_fft=N_FFT, hop=HOP)
    with pytest.raises(ValueError, match="shorter"):
        sc.SimConfig(seed=0, num_recordings=1, duration=0.01, source="white",
                     aligned=True, devices=devices, sample_rate=SR,
                     n_fft=N_FFT, hop=HOP)
    with pytest.raises(ValueError, match="duplicate"):
        sc.SimConfig(seed=0, num_recordings=1, duration=1.0, source="white",
                     aligned=True, devices=(devices[0], devices[0]),
                     sample_rate=SR, n_fft=N_FFT, hop=HOP)


def test_generate_dataset_analyzes_recordings_only_on_demand(monkeypatch):
    calls = []
    stft = sc.dsp.stft

    def counting_stft(*args, **kwargs):
        calls.append(1)
        return stft(*args, **kwargs)

    monkeypatch.setattr(sc.dsp, "stft", counting_stft)
    devices = (sc.flat_response("a", N_FFT, SR), sc.flat_response("b", N_FFT, SR))
    cfg = sc.SimConfig(seed=6, num_recordings=3, duration=0.2, source="white",
                       aligned=True, devices=devices,
                       sample_rate=SR, n_fft=N_FFT, hop=HOP)
    dataset = sc.generate_dataset(cfg)
    # Shaping the gains analyses each group's source inside `apply_gains`,
    # which builds no spectrogram through `stft`.
    assert len(calls) == 0 and len(dataset.waveforms) == 6
    first = dataset.recordings
    assert len(calls) == 6
    assert dataset.recordings is first
    assert len(calls) == 6
    assert [rid for rid, _, _ in first.items] == [r.recording_id for r in dataset.waveforms]
    assert first.alignment_groups == {r.recording_id: r.group_id for r in dataset.waveforms}


BAD_SIM_FIELDS = {
    "duration-nan": ({"duration": float("nan")}, "duration"),
    "duration-inf": ({"duration": float("inf")}, "duration"),
    "duration-1e308": ({"duration": 1e308}, "duration"),
    "duration-1e6": ({"duration": 1e6}, "duration"),
    "seed-negative": ({"seed": -1}, "seed"),
    "hop-zero": ({"hop": 0}, "hop must be >= 1, got 0"),
    "hop-equal-to-n-fft": ({"hop": 2048, "n_fft": 2048}, "hop"),
    "sample-rate-zero": ({"sample_rate": 0}, "sample_rate must be a positive whole number, got 0"),
    "n-fft-odd": ({"n_fft": 15}, "n_fft must be an even integer >= 16, got 15"),
    "num-recordings-zero": ({"num_recordings": 0}, "num_recordings"),
    "num-recordings-10001": ({"num_recordings": 10001}, "num_recordings"),
    "device-name-with-slash": ({"devices": (sc.flat_response("a/b", N_FFT, SR),)},
                               "devices"),
    "environment-off-grid": ({"environments": (sc.flat_response("e", 1024, SR),)},
                             f"environments: n_fft mismatch: dataset {N_FFT}, response 'e' 1024"),
    "device-off-grid": ({"devices": (sc.flat_response("a", N_FFT, 48000),)},
                        f"devices: sample_rate mismatch: dataset {SR} Hz, response 'a' 48000 Hz"),
    "aligned-one-device": ({"aligned": True}, "devices"),
}


@pytest.mark.parametrize("name", sorted(BAD_SIM_FIELDS))
def test_sim_config_rejects_each_bad_field_on_construction(name):
    # A field's name then ": ", or the whole message of a grid error (dsp.check_grid).
    changes, field = BAD_SIM_FIELDS[name]
    fields = dict(seed=0, num_recordings=1, duration=1.0, source="white", aligned=False,
                  devices=(sc.flat_response("a", N_FFT, SR),), sample_rate=SR,
                  n_fft=N_FFT, hop=HOP)
    with pytest.raises(ValueError) as info:
        sc.SimConfig(**{**fields, **changes})
    assert str(info.value).startswith(field if " " in field else f"{field}: "), str(info.value)


def test_sim_config_duration_is_bounded_by_what_a_wav_file_holds():
    # Construction allocates no audio, so the limit itself can be tried.
    fields = dict(seed=0, num_recordings=1, source="white", aligned=False,
                  devices=(sc.flat_response("a", N_FFT, SR),), sample_rate=SR,
                  n_fft=N_FFT, hop=HOP)
    limit = sc.wavio.MAX_FLOAT32_SAMPLES
    assert limit == 1_073_741_814
    sc.SimConfig(duration=limit / SR, **fields)
    with pytest.raises(ValueError, match=f"^duration: .* more than the {limit} samples"):
        sc.SimConfig(duration=(limit + 1) / SR, **fields)


def test_check_grid_is_the_sim_config_grid_check():
    check_grid(0, SR, N_FFT, HOP, 1.0)
    with pytest.raises(ValueError, match=r"^hop: must be a hop in 1\.\.2048"):
        check_grid(0, SR, N_FFT, N_FFT, 1.0)
    with pytest.raises(ValueError, match=r"^seed: must be an integer >= 0, got 1\.5"):
        check_grid(1.5, SR, N_FFT, HOP, 1.0)
    # The frame is bounded by the recording before the hop check builds its
    # window, which would take 16 GiB here.
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=r"^duration: 0\.2 s at 44100 Hz is shorter "):
            check_grid(0, SR, 2**31, 2**29, 0.2)
        assert tracemalloc.get_traced_memory()[1] < 1 << 20
    finally:
        tracemalloc.stop()


def _whole_source(rng, kind, num_samples, sample_rate):
    """A clean source made whole: 0.1 times one standard normal draw, which
    speechlike's envelope knots, drawn first, modulate. Pink draws as white
    does: its tilt is a curve of every recording (``simulate._SHAPES``)."""
    speechlike = kind == "speechlike-modulated"
    if speechlike:
        knots = rng.standard_normal(max(2, int(round(4.0 * num_samples / sample_rate)) + 1))
    samples = 0.1 * rng.standard_normal(num_samples)
    if speechlike:
        samples *= np.exp(0.5 * np.interp(np.arange(num_samples) / (num_samples - 1),
                                          np.linspace(0.0, 1.0, knots.size), knots))
    return samples


@pytest.mark.parametrize("unit,seed", [((None, 1), [12, 1]), ((2, 0), [12, 2, 0])],
                         ids=["aligned", "unaligned"])
@pytest.mark.parametrize("kind", SOURCES)
def test_unit_source_equals_the_whole_array_formula(kind, unit, seed):
    devices = tuple(sc.flat_response(name, N_FFT, SR) for name in "abc")
    cfg = sc.SimConfig(seed=12, num_recordings=2, duration=441002 / SR, source=kind,
                       aligned=unit[0] is None, devices=devices,
                       sample_rate=SR, n_fft=N_FFT, hop=HOP)
    clean = sc.simulate.unit_plan(cfg, unit)[0]
    want = _whole_source(np.random.default_rng(seed), kind, 441002, SR)
    # No source is held whole.
    assert isinstance(clean, sc.simulate._NoiseSource)
    assert (len(clean), clean.sample_rate) == (want.size, SR)
    # Read as dsp.shaped_blocks reads it: 64 frames at a time, overlapping.
    got = np.empty(want.size)
    for start in range(0, want.size, 64 * HOP):
        stop = min(start + 63 * HOP + N_FFT, want.size)
        got[start:stop] = clean.read(start, stop)
    assert np.array_equal(got, want)


@pytest.mark.parametrize("kind", SOURCES)
def test_a_source_draws_each_sample_once_and_skips_in_bounded_memory(kind, monkeypatch):
    """Building a source draws nothing but speechlike's knots; reading it draws
    each sample once, and a gap of 10**7 samples is drawn and dropped in
    bounded memory."""
    drawn = []

    class Counted:
        def __init__(self, seed):
            self._rng = np.random.Generator(np.random.PCG64(seed))

        def standard_normal(self, size=None, out=None):
            drawn.append(out.size if out is not None else size)
            return self._rng.standard_normal(size, out=out)

    monkeypatch.setattr(np.random, "default_rng", Counted)
    length, gap = 10**7 + 3 * N_FFT, 10**7
    clean = sc.simulate._NoiseSource([5, 1], kind, length, SR)
    knots = int(round(4.0 * length / SR)) + 1
    assert sum(drawn) == (knots if kind == "speechlike-modulated" else 0)
    drawn.clear()
    clean.read(0, N_FFT)
    tracemalloc.start()
    try:
        clean.read(N_FFT + gap, length)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(drawn) == length and peak < 1 << 20, (sum(drawn), peak)


@pytest.mark.parametrize("unit", [(None, 1), (1, 0)], ids=["aligned", "unaligned"])
def test_pink_curves_are_the_white_curves_times_the_pink_curve(unit):
    devices = tuple(sc.make_smooth_response(70 + k, 15.0, N_FFT, SR, device_id=name)
                    for k, name in enumerate("ab"))
    plans = {source: sc.simulate.unit_plan(sc.SimConfig(
        seed=6, num_recordings=2, duration=0.3, source=source, aligned=unit[0] is None,
        devices=devices, environments=(sc.make_smooth_environment(80, 6.0, N_FFT, SR),),
        sample_rate=SR, n_fft=N_FFT, hop=HOP), unit) for source in ("white", "pink")}
    pink = sc.simulate._pink_curve(N_FFT)
    assert plans["pink"][1] == plans["white"][1]
    assert len(plans["pink"][2]) == len(plans["white"][2]) == (2 if unit[0] is None else 1)
    for white, got in zip(plans["white"][2], plans["pink"][2]):
        np.testing.assert_allclose(got, white * pink, rtol=1e-15)
    # 1/sqrt(k), bin 0 at bin 1's value, with a two-sided mean square of 1.
    k = np.arange(1, N_FFT // 2 + 1)
    assert pink[0] == pink[1] and np.allclose(pink[1:] * np.sqrt(k), pink[1], rtol=1e-12)
    mean_square = (pink[0] ** 2 + pink[-1] ** 2 + 2.0 * np.sum(pink[1:-1] ** 2)) / N_FFT
    assert mean_square == pytest.approx(1.0, rel=1e-12)


@pytest.mark.parametrize("kind,n_fft", [
    *(pytest.param("pink", n_fft, id=str(n_fft)) for n_fft in (16, 512, 2048)),
    *(pytest.param("white", n_fft, id=f"white-{n_fft}") for n_fft in (16, 512, 2048))])
def test_pink_through_flat_devices_keeps_an_rms_of_a_tenth(kind, n_fft):
    """White draws at an RMS of 0.1, and the pink curve's scale keeps it, with
    no pass over the signal; the steep curve leaves the edges at the level of
    the rest: the whole recording is checked."""
    devices = tuple(sc.flat_response(name, n_fft, SR) for name in "ab")
    cfg = sc.SimConfig(seed=2, num_recordings=1, duration=5.0, source=kind, aligned=True,
                       devices=devices, sample_rate=SR, n_fft=n_fft, hop=n_fft // 4)
    for rec in sc.generate_dataset(cfg).waveforms:
        samples = rec.waveform.samples
        assert np.sqrt(np.mean(samples ** 2)) == pytest.approx(0.1, rel=0.03)
        # 7 standard deviations: no Gaussian draw of this length gets there.
        assert np.abs(samples).max() < 0.7


def _truth(n_fft=N_FFT):
    return {name: sc.make_smooth_response(seed, 20.0, n_fft, SR).gains
            for name, seed in (("a", 31), ("b", 32))}


@pytest.mark.parametrize("reference", ["a", "none"])
def test_truth_error_of_the_exact_truth_is_zero(reference):
    truth = _truth()
    gains = (truth["a"] if reference == "a" else 1.0) / truth["b"]
    coeffs = sc.CorrectionCoefficients(gains, N_FFT, SR, "b", reference, 1, "aligned")
    assert sc.simulate.truth_error_db(coeffs, SR, N_FFT, truth) == 0.0


@settings(max_examples=50)
@given(scale=st.floats(1e-6, 1e6), seed=st.integers(0, 2**32 - 1))
def test_reference_free_truth_error_ignores_the_gains_scale(scale, seed):
    truth = _truth(256)
    gains = np.exp(np.random.default_rng(seed).uniform(-2.0, 2.0, 129))

    def score(g):
        coeffs = sc.CorrectionCoefficients(g, 256, SR, "b", "none", 1, "simplified")
        return sc.simulate.truth_error_db(coeffs, SR, 256, truth)
    assert score(gains * scale) == pytest.approx(score(gains), rel=1e-9, abs=1e-9)


def test_an_empty_sim_section_gives_the_documented_defaults(tmp_path):
    config = tmp_path / "sim.cfg"
    config.write_text("[sim]\n")
    cfg = sc.simulate.read_config(config)
    assert (cfg.seed, cfg.sample_rate, cfg.n_fft, cfg.hop) == (0, 44100, 2048, 512)
    assert (cfg.num_recordings, cfg.duration, cfg.source, cfg.aligned) == (4, 3.0, "white",
                                                                           True)
    assert [d.name for d in cfg.devices] == ["a", "b"] and cfg.environments == ()
    for device in cfg.devices:
        assert np.abs(sc.to_db(device.gains)).max() == pytest.approx(20.0, rel=1e-9)
    config.write_text("[sim]\nn_fft = 1024\n")
    assert sc.simulate.read_config(config).hop == 256
