"""Spectrum correction toolkit.

Estimates per-frequency correction coefficients between recording devices
from aligned or unaligned recordings, applies them in the STFT or time
domain, and ships a synthetic device simulator with known ground truth for
end-to-end verification.

Every public name resolves on first use (PEP 562): ``import speccor`` loads
no submodule, and ``speccor.stft`` imports ``speccor.dsp`` when it is first
read, so a caller pays only for the modules it uses.
"""

import sys

__version__ = "0.1.0"

_SUBMODULES = ("cli", "correction", "dsp", "features", "files", "fir", "simulate", "wavio")

# Public name -> the submodule that defines it.
_MODULE_OF = {name: module for module, names in {
    "correction": """CorrectionCoefficients DeviceSpectrumStats RecordingSet accumulate_stats
        apply_to_amplitudes apply_to_complex cms_dataset cms_per_recording estimate
        estimate_aligned estimate_unaligned log_mean_subtract_per_device real_cepstrum
        simplified_coefficients waveform_log_sum""",
    "dsp": """AMPLITUDE_FLOOR MIDBAND_HZ AmplitudeSpectrogram ComplexSpectrogram Waveform
        amplitude apply_gains band_bins bin_frequencies convolve geometric_mean istft stft
        to_db""",
    "features": """FeatureTensor MelFilterbank extract extract_waveform iter_standardize
        mel_filterbank standardize""",
    "fir": "FirFilter apply_filter design_ls frequency_response",
    "simulate": """DeviceResponse EnvironmentResponse Response SimConfig SimDataset
        flat_environment flat_response generate_dataset make_smooth_environment
        make_smooth_response record""",
    "wavio": "AudioFileError create_wav open_wav read_wav write_wav",
}.items() for name in names.split()}

__all__ = sorted(_MODULE_OF)


def _submodule(name):
    # __import__, unlike importlib.import_module, is timed by -X importtime.
    __import__(f"{__name__}.{name}")
    return sys.modules[f"{__name__}.{name}"]


def __getattr__(name):
    if name in _SUBMODULES:
        return _submodule(name)
    if name in _MODULE_OF:
        return getattr(_submodule(_MODULE_OF[name]), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
