import contextlib
import dataclasses
import os
import re
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import speccor as sc
from speccor import files, wavio
from speccor.correction import ESTIMATORS
from speccor.dsp import BLOCK_FRAMES
from speccor.features import NORMALIZATIONS
from speccor.simulate import SOURCES, SUM_LEAF, unit_plan
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


def test_wav_pcm16_scaling_is_exact_for_every_code(tmp_path):
    codes = np.arange(-32768, 32768, dtype="<i2")
    path = tmp_path / "codes.wav"
    sc.write_wav(path, sc.Waveform(codes / 32768.0, SR), encoding="pcm16")
    assert np.array_equal(sc.read_wav(path).samples, codes.astype(np.float64) * 2.0 ** -15)


def test_read_wav_peak_memory_is_the_payload_plus_the_result(tmp_path):
    path = tmp_path / "ten.wav"
    sc.write_wav(path, white_waveform(82, seconds=10.0))
    sc.read_wav(path)  # warm-up
    tracemalloc.start()
    try:
        wave = sc.read_wav(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= os.path.getsize(path) + 1.1 * wave.samples.nbytes, peak


@pytest.mark.parametrize("encoding", ["float32", "pcm16"])
def test_read_wav_info_agrees_with_read_wav(tmp_path, encoding):
    path = tmp_path / "x.wav"
    sc.write_wav(path, white_waveform(83, seconds=0.1, sample_rate=22050), encoding)
    info = wavio.read_wav_info(path)
    wave = sc.read_wav(path)
    assert (info.sample_rate, info.channels, info.samples) == (22050, 1, len(wave))


def test_read_wav_info_counts_stereo_frames_and_skips_other_chunks(tmp_path):
    payload = np.zeros(10, dtype="<f4").tobytes()
    fmt = struct.pack("<HHIIHH", 3, 2, SR, SR * 8, 8, 32)
    body = b"WAVE" + b"LIST" + struct.pack("<I", 3) + b"abc\0" \
        + b"data" + struct.pack("<I", len(payload)) + payload \
        + b"fmt " + struct.pack("<I", len(fmt)) + fmt
    path = tmp_path / "stereo.wav"
    path.write_bytes(b"RIFF" + struct.pack("<I", len(body)) + body)
    info = wavio.read_wav_info(path)
    assert (info.sample_rate, info.channels, info.samples) == (SR, 2, 5)
    assert len(sc.read_wav(path)) == 5


# -- streamed WAV -----------------------------------------------------------------

# A chunk of odd size, with its pad byte, and a LIST chunk: readers must skip both.
ODD_CHUNK = b"junk" + struct.pack("<I", 3) + b"abc\0"
LIST_CHUNK = b"LIST" + struct.pack("<I", 4) + b"INFO"


def _wav_file(path, samples, channels, encoding, before=b"", after=b""):
    """A WAV file of ``samples`` (frames x channels, in [-1, 1)), with the raw
    chunks ``before`` and ``after`` around its 'data' chunk."""
    if encoding == "float32":
        payload, audio_format, bits = np.asarray(samples, "<f4").tobytes(), 3, 32
    else:
        codes = np.clip(np.rint(np.asarray(samples) * 32768.0), -32768, 32767)
        payload, audio_format, bits = codes.astype("<i2").tobytes(), 1, 16
    align = channels * bits // 8
    fmt = struct.pack("<HHIIHH", audio_format, channels, SR, SR * align, align, bits)
    body = b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt + before \
        + b"data" + struct.pack("<I", len(payload)) + payload + after
    path.write_bytes(b"RIFF" + struct.pack("<I", len(body)) + body)
    return path


def _noise(seed, frames, channels):
    return np.random.default_rng(seed).uniform(-0.5, 0.5, (frames, channels))


# Per-channel lengths: one frame; whole hops past one frame; a ragged tail;
# and, at every sample width, more than several read chunks.
STREAM_LENGTHS = {
    "n_fft": N_FFT,
    "n_fft+5hop": N_FFT + 5 * 512,
    "ragged": N_FFT + 5 * 512 + 77,
    "chunks": 3 * wavio.READ_CHUNK_BYTES // 2 + 1234,
}


@pytest.mark.parametrize("length", sorted(STREAM_LENGTHS))
@pytest.mark.parametrize("encoding", ["float32", "pcm16"])
@pytest.mark.parametrize("channels", [1, 2])
def test_reductions_over_open_wav_equal_read_wav(channels, encoding, length, tmp_path):
    frames = STREAM_LENGTHS[length]
    path = _wav_file(tmp_path / "x.wav", _noise(frames + channels, frames, channels),
                     channels, encoding, before=ODD_CHUNK, after=LIST_CHUNK)
    wave = sc.read_wav(path)
    fb = sc.mel_filterbank(SR, N_FFT, 40)
    want_sum = sc.waveform_log_sum(wave, N_FFT, 512, "b")
    want_feat = sc.extract_waveform(wave, fb, hop=512)
    with sc.open_wav(path) as audio:
        assert (len(audio), audio.sample_rate) == (frames, SR)
        got_sum = sc.waveform_log_sum(audio, N_FFT, 512, "b")
    with sc.open_wav(path) as audio:
        got_feat = sc.extract_waveform(audio, fb, hop=512)
    assert np.array_equal(got_sum.log_sum, want_sum.log_sum)
    assert (got_sum.total_frames, got_sum.device) == (want_sum.total_frames, "b")
    assert np.array_equal(got_feat.values, want_feat.values)


@pytest.mark.parametrize("encoding", ["float32", "pcm16"])
@pytest.mark.parametrize("channels", [1, 2])
def test_wav_stream_reads_forward_ranges_as_read_wav_does(channels, encoding, tmp_path):
    frames = wavio.READ_CHUNK_BYTES // 2 + 999
    path = _wav_file(tmp_path / "x.wav", _noise(7 * channels, frames, channels), channels,
                     encoding, before=ODD_CHUNK, after=LIST_CHUNK)
    whole = sc.read_wav(path).samples
    # Overlapping, repeated, empty, gapped and chunk-straddling ranges.
    ranges = [(0, 10), (5, 10), (7, 3000), (2000, 70000), (70000, 70000), (90001, 90001),
              (90001, 200000), (199999, frames), (frames, frames)]
    with sc.open_wav(path) as audio:
        for start, stop in ranges:
            assert np.array_equal(audio.read(start, stop), whole[start:stop]), (start, stop)
        with pytest.raises(ValueError, match="ranges only move forward"):
            audio.read(frames - 1, frames)
    with sc.open_wav(path) as audio:
        audio.read(100, 200)
        for start, stop in ((99, 300), (150, 199), (150, frames + 1)):
            with pytest.raises(ValueError, match=re.escape(f"[{start}, {stop})")):
                audio.read(start, stop)


@pytest.mark.parametrize("where", ["tail", "gap", "late"])
def test_open_wav_finds_a_non_finite_sample_outside_every_frame(where, tmp_path):
    hop = N_FFT + 300  # frames, and so blocks of frames, leave gaps between them
    frames = N_FFT + 70 * hop + 100  # and a tail after the last
    samples = _noise(5, frames, 1)
    samples[{"tail": frames - 1, "gap": (BLOCK_FRAMES - 1) * hop + N_FFT + 10,
             "late": wavio.READ_CHUNK_BYTES // 4 + 5}[where]] = np.nan
    path = _wav_file(tmp_path / "nan.wav", samples, 1, "float32")
    message = re.escape(f"{path}: waveform samples must be finite")
    with pytest.raises(AudioFileError, match=message):
        sc.read_wav(path)
    fb = sc.mel_filterbank(SR, N_FFT, 40)
    for reduce in (lambda audio: sc.waveform_log_sum(audio, N_FFT, hop),
                   lambda audio: sc.extract_waveform(audio, fb, hop=hop)):
        with sc.open_wav(path) as audio:
            with pytest.raises(AudioFileError, match=message):
                reduce(audio)


def test_open_wav_reductions_with_gaps_equal_read_wav(tmp_path):
    hop = N_FFT + 300
    path = _wav_file(tmp_path / "x.wav", _noise(6, N_FFT + 70 * hop + 100, 2), 2, "pcm16")
    want = sc.waveform_log_sum(sc.read_wav(path), N_FFT, hop)
    with sc.open_wav(path) as audio:
        got = sc.waveform_log_sum(audio, N_FFT, hop)
    assert np.array_equal(got.log_sum, want.log_sum)


FORWARD_LENGTH = 2 * SUM_LEAF + 4321


@pytest.mark.parametrize("kind", ["wav", *SOURCES])
def test_forward_reads_are_slices_of_the_whole_signal(kind, tmp_path):
    """open_wav and every simulator source read forward as slices of the whole
    signal: over overlapping, repeated, gapped and empty ranges."""
    if kind == "wav":
        path = _wav_file(tmp_path / "x.wav", _noise(8, FORWARD_LENGTH, 2), 2, "pcm16")
        whole = sc.read_wav(path).samples

        def reader():
            return sc.open_wav(path)
    else:
        cfg = sc.SimConfig(seed=9, num_recordings=1, duration=FORWARD_LENGTH / SR,
                           source=kind, aligned=False,
                           devices=(sc.flat_response("a", N_FFT, SR),), sample_rate=SR)

        def reader():
            return contextlib.nullcontext(unit_plan(cfg, (0, 0))[0])
        with reader() as audio:
            whole = audio.read(0, FORWARD_LENGTH).copy()
    assert whole.size == FORWARD_LENGTH

    # Each step moves the start on (past the last stop: a gap) and reads at
    # least to the last stop; a step of 0 and 0 repeats or reads nothing.
    @settings(max_examples=60)
    @given(steps=st.lists(st.tuples(st.integers(0, 3 * N_FFT), st.integers(0, 40000)),
                          max_size=12))
    def forward(steps):
        start = stop = 0
        with reader() as audio:
            for advance, size in steps + [(FORWARD_LENGTH, 0)]:
                start = min(start + advance, FORWARD_LENGTH)
                stop = min(max(stop, start + size), FORWARD_LENGTH)
                assert np.array_equal(audio.read(start, stop), whole[start:stop]), (start, stop)

    forward()


def test_open_wav_closes_its_file_on_a_bad_header(tmp_path):
    path = tmp_path / "bad.wav"
    path.write_bytes(b"RIFF" + struct.pack("<I", 4) + b"WAVE")
    before = len(os.listdir("/proc/self/fd"))
    with pytest.raises(AudioFileError, match="missing 'fmt ' chunk"):
        sc.open_wav(path)
    assert len(os.listdir("/proc/self/fd")) == before


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


def _reference_wav_bytes(w, encoding):
    """A mono WAV file built whole: header fields packed around the converted payload."""
    if encoding == "float32":
        audio_format, bits, payload = 3, 32, w.samples.astype("<f4").tobytes()
    else:
        audio_format, bits = 1, 16
        payload = np.clip(np.rint(w.samples * 32768.0), -32768, 32767).astype("<i2").tobytes()
    fmt = struct.pack("<HHIIHH", audio_format, 1, w.sample_rate, w.sample_rate * bits // 8,
                      bits // 8, bits)
    body = b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt \
        + b"data" + struct.pack("<I", len(payload)) + payload + b"\x00" * (len(payload) & 1)
    return b"RIFF" + struct.pack("<I", len(body)) + body


@pytest.mark.parametrize("length", [0, 1, 2, 1001, 1002, 3 * wavio.WRITE_CHUNK_SAMPLES + 7])
@pytest.mark.parametrize("encoding", ["float32", "pcm16"])
def test_wav_stream_writes_the_bytes_of_the_whole_file(encoding, length, tmp_path):
    samples = np.random.default_rng(length).standard_normal(length) * 0.6
    samples[:2] = [-0.0, 1.5][:length]  # a negative zero, and a clipped sample
    w = sc.Waveform(samples, SR)
    want = _reference_wav_bytes(w, encoding)
    sc.write_wav(tmp_path / "whole.wav", w, encoding)
    assert (tmp_path / "whole.wav").read_bytes() == want
    with sc.create_wav(tmp_path / "blocks.wav", SR, length, encoding) as out:
        for start, stop in [(0, 0), (0, length // 3), (length // 3, length)]:
            out.write(samples[start:stop])
    assert (tmp_path / "blocks.wav").read_bytes() == want
    assert sorted(p.name for p in tmp_path.iterdir()) == ["blocks.wav", "whole.wav"]


@pytest.mark.parametrize("fed", [999, 1001])
def test_wav_stream_fed_too_few_or_too_many_samples_leaves_no_file(fed, tmp_path):
    path = tmp_path / "x.wav"
    with pytest.raises(ValueError, match=re.escape(f"{path}: {fed} samples written to a "
                                                   "file of 1000")):
        with sc.create_wav(path, SR, 1000) as out:
            out.write(np.zeros(fed))
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("encoding,bad", [("float32", 6e38), ("float32", np.nan),
                                          ("pcm16", np.inf), ("pcm16", np.nan)])
def test_wav_stream_rejects_a_sample_it_cannot_write_finite(encoding, bad, tmp_path):
    path = tmp_path / "x.wav"
    samples = np.zeros(wavio.WRITE_CHUNK_SAMPLES + 10)
    samples[-1] = bad  # in the second chunk, after the first is written
    with pytest.raises(ValueError, match=re.escape(f"{path}: samples must be finite to be "
                                                   f"written as {encoding}")):
        with sc.create_wav(path, SR, samples.size, encoding) as out:
            out.write(samples)
    assert list(tmp_path.iterdir()) == []


def test_wav_stream_leaves_no_file_when_its_blocks_fail(tmp_path):
    (tmp_path / "x.wav").write_bytes(b"kept")
    with pytest.raises(OSError, match="No space left"):
        with sc.create_wav(tmp_path / "x.wav", SR, 1000) as out:
            out.write(np.zeros(500))
            raise OSError(28, "No space left on device")
    assert [p.name for p in tmp_path.iterdir()] == ["x.wav"]
    assert (tmp_path / "x.wav").read_bytes() == b"kept"


@pytest.mark.parametrize("encoding", ["float32", "pcm16"])
def test_wav_stream_rejects_a_length_its_size_field_cannot_hold(encoding, tmp_path):
    width = 4 if encoding == "float32" else 2
    most = (2**32 - 1 - 36) // width
    assert encoding == "pcm16" or most == wavio.MAX_FLOAT32_SAMPLES
    path = tmp_path / "x.wav"
    with pytest.raises(ValueError, match=re.escape(f"{path}: {most + 1} samples do not fit")):
        sc.create_wav(path, SR, most + 1, encoding)
    with pytest.raises(ValueError, match=re.escape(f"{path}: sample rate")):
        sc.create_wav(path, 2**32 // width, 10, encoding)
    assert list(tmp_path.iterdir()) == []
    with pytest.raises(ValueError, match=re.escape(f"{path}: 0 samples written to a file "
                                                   f"of {most}")):
        sc.create_wav(path, SR, most, encoding).close()  # the header fits
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("encoding", ["float32", "pcm16"])
def test_shaped_blocks_over_open_wav_equal_apply_gains(encoding, tmp_path):
    length = 3 * wavio.READ_CHUNK_BYTES // 4 + 77  # several read chunks, a ragged tail
    path = _wav_file(tmp_path / "x.wav", _noise(9, length, 2), 2, encoding)
    curves = [np.exp(np.random.default_rng(k).uniform(-1, 1, N_FFT // 2 + 1))
              for k in range(2)]
    want = sc.apply_gains(sc.read_wav(path), curves, N_FFT, 384)
    with sc.open_wav(path) as audio:
        got = np.concatenate(
            [block.copy() for block in sc.dsp.shaped_blocks(audio, curves, N_FFT, 384)],
            axis=1)
    assert np.array_equal(got, [w.samples for w in want])


# -- text formats: write -> read gives back what was written --------------------------

_TOKENS = st.text(st.characters(min_codepoint=33, max_codepoint=126), min_size=1, max_size=8)
_FLOATS = st.floats(1e-300, 1e300)
_RATES = st.integers(1, 2**31)


def _curves(bins):
    return st.lists(_FLOATS, min_size=bins, max_size=bins).map(np.array)


@st.composite
def _coefficients(draw):
    n_fft = draw(st.integers(16, 64))
    return sc.CorrectionCoefficients(draw(_curves(n_fft // 2 + 1)), n_fft, draw(_RATES),
                                     draw(_TOKENS), draw(_TOKENS), draw(st.integers(0, 2**31)),
                                     draw(st.sampled_from(ESTIMATORS)))


@st.composite
def _filters(draw):
    half = draw(st.lists(_FLOATS, min_size=2, max_size=9))  # ends with the centre tap
    return sc.FirFilter(np.array(half + half[-2::-1]), draw(_RATES), draw(st.integers(1, 10**6)))


_FEATURES = st.builds(
    sc.FeatureTensor,
    arrays(np.float64, st.tuples(st.integers(0, 5), st.integers(1, 5)), elements=_FLOATS),
    st.sampled_from(NORMALIZATIONS), st.just("") | _TOKENS.filter(lambda s: s != "-"), _TOKENS)


@st.composite
def _responses(draw):
    """(sample_rate, n_fft, devices, environments), as read_responses gives them."""
    n_fft = draw(st.integers(0, 64))
    curves = st.dictionaries(_TOKENS, _curves(n_fft // 2 + 1), max_size=3)
    return draw(_RATES), n_fft, draw(curves), draw(curves)


# Writer and reader of each text format, by the type of what the file holds.
_TEXT_FORMATS = {
    sc.CorrectionCoefficients: (files.write_coefficients, files.read_coefficients),
    sc.FirFilter: (files.write_filter, files.read_filter),
    sc.FeatureTensor: (files.write_features, files.read_features),
    tuple: (lambda path, truth: files.write_responses(path, *truth), files.read_responses),
}


def _parts(held) -> list:
    """A dataclass's fields or a tuple's items, in order."""
    if dataclasses.is_dataclass(held):
        return [getattr(held, field.name) for field in dataclasses.fields(held)]
    return list(held)


def _same(want, got) -> bool:
    if isinstance(want, dict):
        return list(want) == list(got) and all(_same(want[k], got[k]) for k in want)
    if isinstance(want, np.ndarray):
        return got.dtype == np.float64 and np.array_equal(want, got)
    return type(want) is type(got) and want == got


_GAINS_83 = np.exp(np.random.default_rng(83).uniform(-2, 2, N_FFT // 2 + 1))
_UNIT_GAINS = sc.CorrectionCoefficients(np.ones(N_FFT // 2 + 1), N_FFT, SR, "b", "a", 1, "aligned")


def _assert_round_trips(tmp_path, held):
    # Every field reads back as written, and write -> read -> write is byte-identical.
    write, read = _TEXT_FORMATS[type(held)]
    first, second = tmp_path / "first", tmp_path / "second"
    write(first, held)
    back = read(first)
    assert type(back) is type(held)
    want, got = _parts(held), _parts(back)
    assert len(want) == len(got)
    for field, value in zip(want, got):
        assert _same(field, value), (field, value)
    write(second, back)
    assert second.read_bytes() == first.read_bytes()


@settings(max_examples=200, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(held=st.one_of(_coefficients(), _filters(), _FEATURES, _responses()))
def test_text_file_round_trip(tmp_path, held):
    _assert_round_trips(tmp_path, held)


def test_coefficients_file_round_trip(tmp_path):
    _assert_round_trips(tmp_path, sc.CorrectionCoefficients(_GAINS_83, N_FFT, SR,
                                                            "b", "a", 16, "unaligned"))


def test_filter_file_round_trip(tmp_path):
    _assert_round_trips(tmp_path, sc.design_ls(_UNIT_GAINS, 129))


def test_features_file_round_trip(tmp_path):
    feat = sc.FeatureTensor(np.random.default_rng(84).standard_normal((13, 8)),
                            "per_device", "device:b", "pre_mel:b->a")
    _assert_round_trips(tmp_path, feat)


def test_responses_file_round_trip(tmp_path):
    _assert_round_trips(tmp_path, (SR, N_FFT,
                                   {"a": sc.make_smooth_response(1, 20.0, N_FFT, SR).gains,
                                    "b": sc.make_smooth_response(2, 20.0, N_FFT, SR).gains},
                                   {"e0": sc.make_smooth_environment(3, 6.0, N_FFT, SR).gains}))


def test_coefficients_file_rejects_garbage(tmp_path):
    path = tmp_path / "x.coeffs"
    path.write_text("something else\n")
    with pytest.raises(ValueError, match="expected header"):
        files.read_coefficients(path)


# -- features ------------------------------------------------------------------------

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


def test_feature_blocks_write_the_bytes_of_the_whole_tensor(tmp_path):
    feat = sc.FeatureTensor(np.random.default_rng(83).standard_normal((9, 4)), "per_device",
                            "device:b", "pre_mel:b->a")
    files.write_features(tmp_path / "whole.feat", feat)
    files.write_feature_blocks(tmp_path / "blocks.feat", (9, 4),
                               (feat.values[i:i + 4] for i in range(0, 9, 4)),
                               "per_device", "device:b", "pre_mel:b->a")
    assert (tmp_path / "blocks.feat").read_bytes() == (tmp_path / "whole.feat").read_bytes()


def test_feature_rows_read_runs_of_rows_at_the_payload_offset(tmp_path):
    values = np.random.default_rng(82).standard_normal((10, 3))
    path = tmp_path / "x.feat"
    offset = files.write_feature_blocks(path, (10, 3), [values[:4], values[4:]],
                                        correction="pre_mel:b->a")
    assert path.read_bytes()[offset:] == values.astype("<f8").tobytes()
    assert np.array_equal(files.read_feature_rows(path, offset, np.empty((10, 3))), values)
    assert np.array_equal(files.read_feature_rows(path, offset, np.empty((3, 3)), 6),
                          values[6:9])
    with pytest.raises(ValueError, match=re.escape(f"{path}: payload ends before row 11")):
        files.read_feature_rows(path, offset, np.empty((4, 3)), 7)
    with pytest.raises(ValueError, match="C-contiguous float64"):
        files.read_feature_rows(path, offset, np.empty((3, 6))[:, ::2])


def test_feature_rows_overwrite_runs_of_rows_in_place(tmp_path):
    rng = np.random.default_rng(84)
    values, rows = rng.standard_normal((10, 3)), rng.standard_normal((3, 3))
    path = tmp_path / "x.feat"
    offset = files.write_feature_blocks(path, (10, 3), [values], "global", "global")
    files.overwrite_feature_rows(path, offset, rows, 6)
    values[6:9] = rows
    feat = files.read_features(path)
    assert np.array_equal(feat.values, values)
    assert (feat.normalization, feat.stats_id) == ("global", "global")
    # Rows past the payload and a matrix that is not C-contiguous float64 are
    # refused before a byte is written.
    data = path.read_bytes()
    with pytest.raises(ValueError, match=re.escape(f"{path}: payload ends before row 11")):
        files.overwrite_feature_rows(path, offset, np.zeros((4, 3)), 7)
    with pytest.raises(ValueError, match="C-contiguous float64"):
        files.overwrite_feature_rows(path, offset, np.zeros((3, 6))[:, ::2])
    assert path.read_bytes() == data


def test_feature_blocks_leave_no_file_when_the_blocks_fail(tmp_path):
    def blocks():
        yield np.zeros((4, 3))
        raise AudioFileError("x.wav: waveform samples must be finite")

    with pytest.raises(AudioFileError):
        files.write_feature_blocks(tmp_path / "x.feat", (9, 3), blocks())
    with pytest.raises(ValueError, match="blocks hold 4 of 9 rows"):
        files.write_feature_blocks(tmp_path / "x.feat", (9, 3), [np.zeros((4, 3))])
    assert list(tmp_path.iterdir()) == []


def test_staged_writers_write_parts_that_the_block_publishes_together(tmp_path):
    wav, feat = tmp_path / "a.wav", tmp_path / "b.feat"
    wav.write_bytes(b"old")
    w = sc.Waveform(np.linspace(-0.5, 0.5, 16), SR)
    tensor = sc.FeatureTensor(np.arange(6.0).reshape(2, 3))
    with pytest.raises(RuntimeError):
        with files.staged([wav, feat]) as part:
            sc.write_wav(part(wav), w)
            files.write_features(part(feat), tensor)
            assert sorted(p.name for p in tmp_path.iterdir()) == ["a.wav", "a.wav.part",
                                                                  "b.feat.part"]
            raise RuntimeError
    assert [p.name for p in tmp_path.iterdir()] == ["a.wav"] and wav.read_bytes() == b"old"
    with files.staged([wav, feat]) as part:
        sc.write_wav(part(wav), w)
        files.write_features(part(feat), tensor)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.wav", "b.feat"]
    assert wav.read_bytes() == _reference_wav_bytes(w, "float32")
    assert np.array_equal(files.read_features(feat).values, tensor.values)


# -- responses -------------------------------------------------------------------------

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


@pytest.mark.parametrize("gain", ["nan", "inf", "0", "-0.5"])
@pytest.mark.parametrize("kind,name,line", [("device", "b", 9), ("environment", "e0", 14)])
def test_responses_file_refuses_gains_that_are_not_finite_and_positive(tmp_path, kind, name,
                                                                      line, gain):
    path = tmp_path / "responses.txt"
    _write_responses(path)
    lines = path.read_text().splitlines()
    assert lines[line - 1] == f"{kind} {name} 3"
    lines[line + 1] = gain
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=re.escape(
            f"{path}: {kind} {name!r} gains must be finite and > 0")):
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


_TOKEN_RULE = "must be a non-empty ASCII token without whitespace, got"


@pytest.mark.parametrize("name,value,message", [
    ("normalization", "per device", f"normalization {_TOKEN_RULE} 'per device'"),
    ("stats_id", "x\ny", f"stats_id {_TOKEN_RULE} 'x\\ny'"),
    ("stats_id", "a b", f"stats_id {_TOKEN_RULE} 'a b'"),
    ("correction", "pre_mel:b c", f"correction {_TOKEN_RULE} 'pre_mel:b c'"),
    # read_features gives '-' back as "", the stats_id it stands for.
    ("stats_id", "-", "stats_id '-' is reserved: it stands for an empty stats_id"),
], ids=["normalization-space", "stats_id-newline", "stats_id-space", "correction-space",
        "stats_id-dash"])
def test_feature_header_its_reader_would_refuse_is_not_written(tmp_path, name, value, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        files.write_feature_blocks(tmp_path / "x.feat", (2, 3), [np.zeros((2, 3))],
                                   **{name: value})
    assert list(tmp_path.iterdir()) == []


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
    "wav-info": (lambda p: sc.write_wav(p, sc.Waveform(np.linspace(-0.5, 0.5, 16), SR)),
                 wavio.read_wav_info),
}


@pytest.mark.parametrize("kind", ["coeffs", "filt"])
@pytest.mark.parametrize("rate", [0, -SR])
def test_coefficients_and_filter_reject_a_non_positive_sample_rate(tmp_path, kind, rate):
    write, read = FORMATS[kind]
    path = tmp_path / f"x.{kind}"
    write(path)
    _rewrite(path, f"sample_rate {SR}\n".encode(), f"sample_rate {rate}\n".encode())
    with pytest.raises(ValueError, match=re.escape(f"{path}: sample_rate must be positive, "
                                                   f"got {rate}")):
        read(path)


@pytest.mark.parametrize("kind,line,edited,what", [
    ("coeffs", "source_device b", "source_device b c", "source_device"),
    ("filt", f"sample_rate {SR}", f"sample_rate  {SR}", "sample_rate"),
    ("feat", "stats_id device:b", "stats_id device: b", "stats_id"),
    ("responses", "device a 3", "device \t 3", "device id"),
])
def test_readers_refuse_a_header_value_that_is_not_a_token(tmp_path, kind, line, edited, what):
    # Each writer refuses such a value, so no reader takes one either.
    write, read = FORMATS[kind]
    path = tmp_path / f"x.{kind}"
    write(path)
    _rewrite(path, f"\n{line}\n".encode(), f"\n{edited}\n".encode())
    with pytest.raises(ValueError, match=re.escape(
            f"{path}: {what} {_TOKEN_RULE}")):
        read(path)


# A header integer as int() reads it but str() never writes it; the token
# rule refuses the non-ASCII digits first.
_NOT_WRITTEN_INTS = {
    "underscore": ("16_000", "field {key!r} must be a decimal integer, got '16_000'"),
    "plus": ("+16000", "field {key!r} must be a decimal integer, got '+16000'"),
    "arabic-indic": ("\u0661\u0666\u0660\u0660\u0660",
                     "{key} must be a non-empty ASCII token without whitespace, "
                     "got '\u0661\u0666\u0660\u0660\u0660'"),
    # More digits than int() converts: the value shown is cut short.
    "5000-digits": ("1" * 5000, "field {key!r} must be a decimal integer, "
                                "got '111111111111...1111111111111'"),
}


@pytest.mark.parametrize("value", sorted(_NOT_WRITTEN_INTS))
@pytest.mark.parametrize("kind,line", [
    ("coeffs", f"sample_rate {SR}"), ("coeffs", "gains 9"), ("filt", f"sample_rate {SR}"),
    ("filt", "taps 5"), ("feat", "frames 3"), ("responses", f"sample_rate {SR}"),
    ("responses", "n_fft 4"), ("responses", "devices 2"),
])
def test_readers_refuse_an_integer_that_str_does_not_write(tmp_path, kind, line, value):
    write, read = FORMATS[kind]
    path = tmp_path / f"x.{kind}"
    write(path)
    key = line.split()[0]
    text, message = _NOT_WRITTEN_INTS[value]
    _rewrite(path, f"\n{line}\n".encode(), f"\n{key} {text}\n".encode())
    with pytest.raises(ValueError, match=re.escape(f"{path}: {message.format(key=key)}")):
        read(path)


@pytest.mark.parametrize("length,message", [
    ("+3", "expected a 'device <name> <bins>' entry, got 'device a +3'"),
    ("03", "device 'a' gain count must be a decimal integer, got '03'"),
    ("\u0663", "device 'a' gain count must be a decimal integer, got '\u0663'"),
], ids=["plus", "leading-zero", "arabic-indic"])
def test_responses_entry_length_is_a_decimal_integer(tmp_path, length, message):
    path = tmp_path / "responses.txt"
    _write_responses(path)
    _rewrite(path, b"\ndevice a 3\n", f"\ndevice a {length}\n".encode())
    with pytest.raises(ValueError, match=re.escape(f"{path}: {message}")):
        files.read_responses(path)


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

    @settings(max_examples=200)
    @given(offset=st.integers(0, len(valid)), cut=st.integers(0, 8), junk=_JUNK)
    def splice(offset, cut, junk):
        path.write_bytes(valid[:offset] + junk + valid[offset + cut:])
        try:
            read(path)
        except (ValueError, AudioFileError) as exc:
            assert str(exc).startswith(f"{path}: "), str(exc)

    splice()
