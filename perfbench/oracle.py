"""Output checks against the simulator oracle.

Run as ``python3 perfbench/oracle.py PLAN.json``: reads a check plan written
by run.py, prints one JSON object ``{"env": ..., "checks": [...]}``. The
benchmark's parent process stays free of numpy so that its own resident set
does not leak into the children's peak RSS; the traced run imports this
module directly instead.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import platform
import sys
from pathlib import Path

import numpy as np

from speccor import cli, files, wavio

N_FFT = 2048
HOP = 512
N_MELS = 256
BAND_HZ = (100.0, 16000.0)
TOLERANCE_DB = 1.0
FLOOR = 1e-10
DB_PER_NAT = 20.0 / np.log(10.0)


def interior_log_spectrum(samples, n_fft=N_FFT, hop=HOP):
    """Time-averaged natural-log magnitude spectrum of the signal interior.

    The first and last n_fft samples are dropped: the simulator's and the
    corrector's edge frames are renormalised, and the FIR path has its group
    delay there. A periodic Hann window, independent of speccor.dsp.
    """
    x = np.asarray(samples, dtype=np.float64)[n_fft:-n_fft]
    window = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n_fft) / n_fft)
    frames = np.lib.stride_tricks.sliding_window_view(x, n_fft)[::hop] * window
    mags = np.abs(np.fft.rfft(frames, axis=1))
    return np.log(np.maximum(mags, FLOOR)).mean(axis=0)


def spectral_error_db(path, reference_path):
    """Largest in-band dB gap between two files' interior mean log spectra."""
    out = wavio.read_wav(path)
    ref = wavio.read_wav(reference_path)
    freqs = np.arange(N_FFT // 2 + 1) * (ref.sample_rate / N_FFT)
    band = (freqs >= BAND_HZ[0]) & (freqs <= BAND_HZ[1])
    gap = interior_log_spectrum(out.samples) - interior_log_spectrum(ref.samples)
    return float(np.max(np.abs(DB_PER_NAT * gap[band])))


def _check(name, ok, detail):
    return {"check": name, "ok": bool(ok), "detail": detail}


def _verify(corpus, coeffs_dir, expected_devices):
    present = sorted(p.stem for p in Path(coeffs_dir).glob("*.coeffs"))
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        rc = cli.main(["verify", "--sim-dir", str(corpus), "--coeffs-dir", str(coeffs_dir),
                       "--tolerance-db", str(TOLERANCE_DB)])
    ok = rc == 0 and present == sorted(expected_devices)
    return _check(f"verify:{Path(coeffs_dir).name}", ok,
                  f"exit {rc}, devices {present}; " + sink.getvalue().strip().replace("\n", "; "))


def _reference_free_identity(none_dir, unaligned_dir, reference, sources):
    """simplified(d) / simplified(ref) is exactly the unaligned ref<-d estimate."""
    out = []
    ref_gains = files.read_coefficients(Path(none_dir) / f"{reference}.coeffs").gains
    for device in sources:
        none = files.read_coefficients(Path(none_dir) / f"{device}.coeffs").gains
        unaligned = files.read_coefficients(Path(unaligned_dir) / f"{device}.coeffs").gains
        err = float(np.max(np.abs(none / ref_gains / unaligned - 1.0)))
        out.append(_check(f"reference-free-identity:{device}", err < 1e-9,
                          f"max relative gap {err:.3g}"))
    return out


def _features(feat_dir, expected):
    """Every file parses, has the expected shape, finite values and per-device
    normalisation; each device's frames then have mean ~0 in every bin."""
    out = []
    by_device = {}
    for stem, device, frames in expected:
        path = Path(feat_dir) / f"{stem}.feat"
        try:
            feat = files.read_features(path)
        except (OSError, ValueError, KeyError) as exc:
            out.append(_check(f"features:{stem}", False, f"unreadable: {exc}"))
            continue
        ok = (feat.values.shape == (frames, N_MELS) and bool(np.all(np.isfinite(feat.values)))
              and feat.normalization == "per_device" and feat.stats_id == f"device:{device}")
        out.append(_check(f"features:{stem}", ok,
                          f"shape {feat.values.shape}, {feat.normalization}, {feat.stats_id}"))
        by_device.setdefault(device, []).append(feat.values)
    for device, mats in by_device.items():
        drift = float(np.max(np.abs(np.concatenate(mats).mean(axis=0))))
        out.append(_check(f"features-mean:{device}", drift < 1e-6, f"max |mean| {drift:.3g}"))
    return out


def run_checks(plan):
    """Check one pass's outputs; ``plan`` is the JSON object run.py writes."""
    corpus = plan["corpus"]
    checks = [_verify(corpus, d, devs) for d, devs in plan["verify"]]
    checks += _reference_free_identity(plan["none_dir"], plan["unaligned_dir"],
                                       plan["reference"], plan["sources"])
    for out_path, ref_path in plan["corrected"]:
        err = spectral_error_db(out_path, ref_path)
        checks.append(_check(f"spectrum:{Path(out_path).parent.name}/{Path(out_path).name}",
                             err <= TOLERANCE_DB, f"{err:.4f} dB"))
    checks += _features(plan["features_dir"], plan["features"])
    return checks


def environment():
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "speccor_threads": os.environ.get("SPECCOR_THREADS"),
        "machine": platform.machine(),
    }


def main(argv):
    plan = json.loads(Path(argv[0]).read_text())
    print(json.dumps({"env": environment(), "checks": run_checks(plan)}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
