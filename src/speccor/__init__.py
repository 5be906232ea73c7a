"""Spectrum correction toolkit.

Estimates per-frequency correction coefficients between recording devices
from aligned or unaligned recordings, applies them in the STFT or time
domain, and ships a synthetic device simulator with known ground truth for
end-to-end verification.
"""

from .correction import (
    CorrectionCoefficients,
    DeviceSpectrumStats,
    RecordingSet,
    accumulate_stats,
    apply_to_amplitudes,
    apply_to_complex,
    cms_dataset,
    cms_per_recording,
    estimate_aligned,
    estimate_unaligned,
    log_mean_subtract_per_device,
    real_cepstrum,
    simplified_coefficients,
)
from .dsp import (
    AMPLITUDE_FLOOR,
    MIDBAND_HZ,
    AmplitudeSpectrogram,
    ComplexSpectrogram,
    Waveform,
    amplitude,
    apply_gains,
    band_bins,
    bin_frequencies,
    convolve,
    geometric_mean,
    istft,
    stft,
    to_db,
)
from .features import FeatureTensor, MelFilterbank, extract, mel_filterbank, standardize
from .fir import FirFilter, apply_filter, design_ls, frequency_response
from .simulate import (
    DeviceResponse,
    EnvironmentResponse,
    Response,
    SimConfig,
    SimDataset,
    flat_environment,
    flat_response,
    generate_dataset,
    make_smooth_environment,
    make_smooth_response,
    record,
)
from .wavio import AudioFileError, read_wav, write_wav

__version__ = "0.1.0"

__all__ = [
    "AMPLITUDE_FLOOR",
    "MIDBAND_HZ",
    "AmplitudeSpectrogram",
    "AudioFileError",
    "ComplexSpectrogram",
    "CorrectionCoefficients",
    "DeviceResponse",
    "DeviceSpectrumStats",
    "EnvironmentResponse",
    "FeatureTensor",
    "FirFilter",
    "MelFilterbank",
    "RecordingSet",
    "Response",
    "SimConfig",
    "SimDataset",
    "Waveform",
    "accumulate_stats",
    "amplitude",
    "apply_gains",
    "apply_filter",
    "apply_to_amplitudes",
    "apply_to_complex",
    "band_bins",
    "bin_frequencies",
    "cms_dataset",
    "cms_per_recording",
    "convolve",
    "design_ls",
    "estimate_aligned",
    "estimate_unaligned",
    "extract",
    "flat_environment",
    "flat_response",
    "frequency_response",
    "generate_dataset",
    "geometric_mean",
    "istft",
    "log_mean_subtract_per_device",
    "make_smooth_environment",
    "make_smooth_response",
    "mel_filterbank",
    "read_wav",
    "real_cepstrum",
    "record",
    "simplified_coefficients",
    "standardize",
    "stft",
    "to_db",
    "write_wav",
]
