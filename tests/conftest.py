import builtins
import errno
import io
import os

import numpy as np
import pytest
from hypothesis import settings

import speccor as sc

# Every property test draws the same examples on every run and writes no
# example database; each test sets only its own max_examples.
settings.register_profile("speccor", derandomize=True, database=None, deadline=None)
settings.load_profile("speccor")

SR = 44100
N_FFT = 2048
HOP = 512


def white_waveform(seed, seconds=1.0, sample_rate=SR, level=0.1):
    rng = np.random.default_rng(seed)
    return sc.Waveform(rng.standard_normal(int(seconds * sample_rate)) * level,
                       sample_rate)


def random_amplitude_spectrogram(rng, frames, n_fft, sample_rate=SR, hop=None):
    """Random strictly positive magnitudes, log-uniform over a few decades."""
    mags = np.exp(rng.uniform(-3.0, 3.0, size=(frames, n_fft // 2 + 1)))
    return sc.AmplitudeSpectrogram(mags, n_fft, hop or n_fft // 4, sample_rate, "hann")


@pytest.fixture(scope="session")
def device_pair():
    """Two smooth +/-20 dB devices at the standard 2048/44100 configuration."""
    ref = sc.make_smooth_response(11, 20.0, N_FFT, SR, device_id="a")
    src = sc.make_smooth_response(12, 20.0, N_FFT, SR, device_id="b")
    return ref, src


@pytest.fixture(scope="session")
def aligned_dataset(device_pair):
    """4 aligned white-noise recordings of both devices, 2 s each."""
    ref, src = device_pair
    cfg = sc.SimConfig(seed=5, num_recordings=4, duration=2.0, source="white",
                       aligned=True, devices=(ref, src),
                       sample_rate=SR, n_fft=N_FFT, hop=HOP)
    return sc.generate_dataset(cfg)


def aligned_pairs(dataset, ref_id, src_id):
    """(reference, source) spectrogram pairs from a dataset's alignment groups."""
    pairs = []
    for group in sorted(dataset.recordings.groups()):
        members = {device: spec for _, device, spec in dataset.recordings.groups()[group]}
        pairs.append((members[ref_id], members[src_id]))
    return pairs


def max_db_error(estimated, true, band):
    return float(np.max(np.abs(sc.to_db(estimated[band] / true[band]))))


class DiskWrites:
    """Counts the writes to files opened for writing, and the ``os.pwritev``
    calls, since ``count`` was last set; from write ``fail_at`` on, each
    raises OSError(ENOSPC) instead, as on a full disk."""

    def __init__(self):
        self.count, self.fail_at = 0, None

    def tick(self) -> None:
        self.count += 1
        if self.fail_at is not None and self.count >= self.fail_at:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


class _CountedFile:
    def __init__(self, file, writes):
        self._file, self._writes = file, writes

    def write(self, data):
        self._writes.tick()
        return self._file.write(data)

    def __getattr__(self, name):
        return getattr(self._file, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._file.close()


@pytest.fixture
def disk_writes(monkeypatch):
    """A DiskWrites that every file opened for writing reports to."""
    writes, real_open, real_pwritev = DiskWrites(), builtins.open, os.pwritev

    def counted_open(file, mode="r", *args, **kwargs):
        handle = real_open(file, mode, *args, **kwargs)
        return _CountedFile(handle, writes) if set(mode) & set("wax+") else handle

    def counted_pwritev(*args):
        writes.tick()
        return real_pwritev(*args)

    monkeypatch.setattr(builtins, "open", counted_open)
    monkeypatch.setattr(io, "open", counted_open)
    monkeypatch.setattr(os, "pwritev", counted_pwritev)
    return writes
