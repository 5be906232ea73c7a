import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import speccor as sc
from speccor import files
from speccor.wavio import AudioFileError

from conftest import SR, N_FFT, white_waveform


# -- WAV ------------------------------------------------------------------------

def test_wav_float32_round_trip_is_bit_exact(tmp_path):
    w = white_waveform(80, seconds=0.1)
    path = tmp_path / "x.wav"
    sc.write_wav(path, w)
    back = sc.read_wav(path)
    assert back.sample_rate == SR
    assert np.array_equal(back.samples, w.samples.astype("<f4").astype(np.float64))
    # Writing what was read reproduces the file byte for byte.
    second = tmp_path / "y.wav"
    sc.write_wav(second, back)
    assert path.read_bytes() == second.read_bytes()


def test_wav_pcm16_full_scale_normalization(tmp_path):
    path = tmp_path / "pcm.wav"
    samples = np.array([32767, -32768, 0, 16384], dtype="<i2")
    payload = samples.tobytes()
    fmt = struct.pack("<HHIIHH", 1, 1, SR, SR * 2, 2, 16)
    body = b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt \
        + b"data" + struct.pack("<I", len(payload)) + payload
    path.write_bytes(b"RIFF" + struct.pack("<I", len(body)) + body)
    w = sc.read_wav(path)
    assert w.samples[0] == pytest.approx(32767 / 32768, abs=1e-9)
    assert w.samples[1] == -1.0
    assert w.samples[2] == 0.0


def test_wav_pcm16_write_read(tmp_path):
    w = sc.Waveform(np.linspace(-0.9, 0.9, 1000), SR)
    path = tmp_path / "pcm.wav"
    sc.write_wav(path, w, encoding="pcm16")
    back = sc.read_wav(path)
    assert np.abs(back.samples - w.samples).max() <= 0.5 / 32768 + 1e-12


def test_wav_ten_seconds_at_44100(tmp_path):
    w = white_waveform(81, seconds=10.0)
    path = tmp_path / "clip.wav"
    sc.write_wav(path, w)
    assert len(sc.read_wav(path)) == 441000


def test_wav_stereo_downmix(tmp_path):
    left = np.array([0.5, 0.0, -0.5], dtype="<f4")
    right = np.array([0.5, 1.0, 0.5], dtype="<f4")
    interleaved = np.empty(6, dtype="<f4")
    interleaved[0::2] = left
    interleaved[1::2] = right
    payload = interleaved.tobytes()
    fmt = struct.pack("<HHIIHH", 3, 2, SR, SR * 8, 8, 32)
    body = b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt \
        + b"data" + struct.pack("<I", len(payload)) + payload
    path = tmp_path / "stereo.wav"
    path.write_bytes(b"RIFF" + struct.pack("<I", len(body)) + body)
    w = sc.read_wav(path)
    assert np.allclose(w.samples, [0.5, 0.5, 0.0], atol=1e-12)


def test_wav_rejects_non_riff(tmp_path):
    path = tmp_path / "bad.wav"
    path.write_bytes(b"not a wave file")
    with pytest.raises(AudioFileError, match="RIFF"):
        sc.read_wav(path)


def test_wav_rejects_truncated_data(tmp_path):
    w = white_waveform(82, seconds=0.05)
    path = tmp_path / "t.wav"
    sc.write_wav(path, w)
    blob = path.read_bytes()
    path.write_bytes(blob[:-7])
    with pytest.raises(AudioFileError, match="truncated file in chunk 'data'"):
        sc.read_wav(path)


def test_wav_rejects_unsupported_encoding(tmp_path):
    fmt = struct.pack("<HHIIHH", 1, 1, SR, SR * 3, 3, 24)  # 24-bit PCM
    payload = b"\x00" * 6
    body = b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt \
        + b"data" + struct.pack("<I", len(payload)) + payload
    path = tmp_path / "u.wav"
    path.write_bytes(b"RIFF" + struct.pack("<I", len(body)) + body)
    with pytest.raises(AudioFileError, match="unsupported encoding in 'fmt ' chunk"):
        sc.read_wav(path)


def test_wav_write_rejects_unknown_encoding(tmp_path):
    with pytest.raises(ValueError, match="encoding"):
        sc.write_wav(tmp_path / "x.wav", white_waveform(1, seconds=0.01),
                     encoding="mp3")


# -- coefficients / filters ---------------------------------------------------------

def test_coefficients_file_round_trip(tmp_path):
    rng = np.random.default_rng(83)
    gains = np.exp(rng.uniform(-2, 2, N_FFT // 2 + 1))
    c = sc.CorrectionCoefficients(gains, N_FFT, SR, "b", "a", 16, "unaligned")
    path = tmp_path / "b.coeffs"
    files.write_coefficients(path, c)
    back = files.read_coefficients(path)
    assert np.array_equal(back.gains, c.gains)
    assert (back.source_device, back.reference_device) == ("b", "a")
    assert (back.n_fft, back.sample_rate, back.num_recordings) == (N_FFT, SR, 16)
    assert back.estimator == "unaligned"
    second = tmp_path / "b2.coeffs"
    files.write_coefficients(second, back)
    assert path.read_bytes() == second.read_bytes()


def test_coefficients_file_rejects_garbage(tmp_path):
    path = tmp_path / "x.coeffs"
    path.write_text("something else\n")
    with pytest.raises(ValueError, match="expected header"):
        files.read_coefficients(path)


def test_filter_file_round_trip(tmp_path):
    c = sc.CorrectionCoefficients(np.ones(N_FFT // 2 + 1), N_FFT, SR,
                                  "b", "a", 1, "aligned")
    filt = sc.design_ls(c, 129)
    path = tmp_path / "f.filt"
    files.write_filter(path, filt)
    back = files.read_filter(path)
    assert np.array_equal(back.taps, filt.taps)
    assert back.sample_rate == SR and back.target_bins == N_FFT // 2 + 1
    second = tmp_path / "f2.filt"
    files.write_filter(second, back)
    assert path.read_bytes() == second.read_bytes()


# -- features ------------------------------------------------------------------------

def test_features_file_round_trip(tmp_path):
    rng = np.random.default_rng(84)
    feat = sc.FeatureTensor(rng.standard_normal((13, 8)), "per_device",
                            "device:b", "pre_mel:b->a")
    path = tmp_path / "x.feat"
    files.write_features(path, feat)
    back = files.read_features(path)
    assert np.array_equal(back.values, feat.values)
    assert back.normalization == "per_device"
    assert back.stats_id == "device:b"
    assert back.correction == "pre_mel:b->a"
    second = tmp_path / "y.feat"
    files.write_features(second, back)
    assert path.read_bytes() == second.read_bytes()


def _feature_file_without(tmp_path, field):
    path = tmp_path / "x.feat"
    files.write_features(path, sc.FeatureTensor(np.zeros((2, 3)), "raw", "", "pre_mel:b->a"))
    data = path.read_bytes()
    start = data.index(f"\n{field} ".encode()) + 1
    path.write_bytes(data[:start] + data[data.index(b"\n", start) + 1:])
    return path


@pytest.mark.parametrize("field", ["frames", "mels", "normalization", "stats_id"])
def test_features_file_missing_field_names_it(tmp_path, field):
    path = _feature_file_without(tmp_path, field)
    with pytest.raises(ValueError, match=re.escape(f"{path}: header lacks field '{field}'")):
        files.read_features(path)


def test_features_file_correction_field_is_optional(tmp_path):
    assert files.read_features(_feature_file_without(tmp_path, "correction")).correction == "none"


def test_features_file_field_without_value_names_it(tmp_path):
    path = tmp_path / "x.feat"
    files.write_features(path, sc.FeatureTensor(np.zeros((2, 3)), "raw", "", "none"))
    path.write_bytes(path.read_bytes().replace(b"normalization raw\n", b"normalization\n"))
    with pytest.raises(ValueError, match=re.escape(f"{path}: header field 'normalization' has no value")):
        files.read_features(path)


# -- responses -------------------------------------------------------------------------

def test_responses_file_round_trip(tmp_path):
    dev_a = sc.make_smooth_response(1, 20.0, N_FFT, SR, device_id="a")
    dev_b = sc.make_smooth_response(2, 20.0, N_FFT, SR, device_id="b")
    env = sc.make_smooth_environment(3, 6.0, N_FFT, SR, scene_id="e0")
    path = tmp_path / "responses.txt"
    files.write_responses(path, SR, N_FFT,
                          {"a": dev_a.gains, "b": dev_b.gains},
                          {"e0": env.gains})
    sr, n_fft, devices, environments = files.read_responses(path)
    assert (sr, n_fft) == (SR, N_FFT)
    assert np.array_equal(devices["a"], dev_a.gains)
    assert np.array_equal(devices["b"], dev_b.gains)
    assert np.array_equal(environments["e0"], env.gains)


def test_responses_file_rejects_curve_length_other_than_n_fft_bins(tmp_path):
    path = tmp_path / "responses.txt"
    files.write_responses(path, SR, N_FFT, {"a": np.ones(2)})
    with pytest.raises(ValueError, match=re.escape(
            f"{path}: device 'a' has 2 gains, n_fft {N_FFT} needs {N_FFT // 2 + 1}")):
        files.read_responses(path)


@pytest.mark.parametrize("entry", ["device a", "device a x", "device a 3 4", "dev a 3"])
def test_responses_file_names_the_expected_entry_form(tmp_path, entry):
    path = tmp_path / "responses.txt"
    files.write_responses(path, SR, N_FFT, {"a": np.ones(N_FFT // 2 + 1)})
    lines = path.read_text().splitlines()
    lines[4] = entry
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=re.escape(
            f"{path}: expected a 'device <name> <bins>' entry, got {entry!r}")):
        files.read_responses(path)


# -- manifests ---------------------------------------------------------------------------

def test_manifest_round_trip(tmp_path):
    rows = [
        files.ManifestRow("x/a0.wav", "a", "g0"),
        files.ManifestRow("x/b0.wav", "b", "g0"),
        files.ManifestRow("x/b1.wav", "b", None),
    ]
    path = tmp_path / "m.tsv"
    files.write_manifest(path, rows)
    assert files.read_manifest(path) == rows


def test_manifest_rejects_duplicates_and_lonely_groups(tmp_path):
    path = tmp_path / "m.tsv"
    files.write_manifest(path, [files.ManifestRow("a.wav", "a", None),
                                files.ManifestRow("a.wav", "b", None)])
    with pytest.raises(ValueError, match="duplicate path"):
        files.read_manifest(path)
    files.write_manifest(path, [files.ManifestRow("a.wav", "a", "g0"),
                                files.ManifestRow("b.wav", "a", "g0")])
    with pytest.raises(ValueError, match="two devices"):
        files.read_manifest(path)
    path.write_text("wrong\theader\there\n")
    with pytest.raises(ValueError, match="header"):
        files.read_manifest(path)


# -- every reader names its file -----------------------------------------------------------

def _rewrite(path, old: bytes, new: bytes):
    data = path.read_bytes()
    assert old in data
    path.write_bytes(data.replace(old, new, 1))


def test_features_file_rejects_negative_dimensions(tmp_path):
    # frames -2 x mels -4 still asks for 8 doubles, which the payload holds.
    path = tmp_path / "x.feat"
    files.write_features(path, sc.FeatureTensor(np.zeros((2, 4)), "raw", "", "none"))
    _rewrite(path, b"frames 2\nmels 4\n", b"frames -2\nmels -4\n")
    with pytest.raises(ValueError, match=re.escape(f"{path}: field 'frames' must not be negative, got -2")):
        files.read_features(path)


def test_coefficients_and_filter_reject_negative_counts(tmp_path):
    c = sc.CorrectionCoefficients(np.ones(9), 16, SR, "b", "a", 1, "aligned")
    coeffs = tmp_path / "b.coeffs"
    files.write_coefficients(coeffs, c)
    _rewrite(coeffs, b"gains 9\n", b"gains -9\n")
    with pytest.raises(ValueError, match=re.escape(f"{coeffs}: field 'gains' must not be negative")):
        files.read_coefficients(coeffs)
    filt = tmp_path / "f.filt"
    files.write_filter(filt, sc.FirFilter(np.array([0.25, 0.5, 0.25]), SR, 9))
    _rewrite(filt, b"\ntaps 3\n", b"\ntaps -3\n")
    with pytest.raises(ValueError, match=re.escape(f"{filt}: field 'taps' must not be negative")):
        files.read_filter(filt)


def _write_responses(path):
    files.write_responses(path, SR, 4, {"a": [1.0, 2.0, 0.5], "b": [1.0, 1.0, 1.0]},
                          {"e0": [0.5, 1.0, 2.0]})


# One small valid file per format, and the reader that parses it.
FORMATS = {
    "coeffs": (lambda p: files.write_coefficients(p, sc.CorrectionCoefficients(
        np.linspace(0.5, 2.0, 9), 16, SR, "b", "a", 3, "unaligned")),
        files.read_coefficients),
    "filt": (lambda p: files.write_filter(p, sc.FirFilter(
        np.array([0.125, 0.25, 0.5, 0.25, 0.125]), SR, 9)), files.read_filter),
    "feat": (lambda p: files.write_features(p, sc.FeatureTensor(
        np.arange(12.0).reshape(3, 4), "per_device", "device:b", "none")),
        files.read_features),
    "responses": (_write_responses, files.read_responses),
    "manifest": (lambda p: files.write_manifest(p, [
        files.ManifestRow("a0.wav", "a", "g0"), files.ManifestRow("b0.wav", "b", "g0"),
        files.ManifestRow("b1.wav", "b", None)]), files.read_manifest),
    "wav": (lambda p: sc.write_wav(p, sc.Waveform(np.linspace(-0.5, 0.5, 16), SR)),
            sc.read_wav),
}

# Arbitrary bytes, plus short runs of the characters that numeric fields are made of.
_JUNK = st.one_of(st.binary(max_size=12),
                  st.text("0123456789-+.eEx \t\n", max_size=6).map(str.encode))


@pytest.mark.parametrize("kind", sorted(FORMATS))
def test_reader_parses_spliced_file_or_names_it(tmp_path, kind):
    write, read = FORMATS[kind]
    path = tmp_path / f"x.{kind}"
    write(path)
    valid = path.read_bytes()
    read(path)

    @settings(max_examples=200, derandomize=True, deadline=None, database=None)
    @given(offset=st.integers(0, len(valid)), cut=st.integers(0, 8), junk=_JUNK)
    def splice(offset, cut, junk):
        path.write_bytes(valid[:offset] + junk + valid[offset + cut:])
        try:
            read(path)
        except (ValueError, AudioFileError) as exc:
            assert str(exc).startswith(f"{path}: "), str(exc)

    splice()
