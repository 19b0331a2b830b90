"""Signal-processing periodicity baselines (DFT and autocorrelation) and
the activity-signal builder they share."""

from .activity import ActivitySignal, build_activity_signal
from .autocorr import AutocorrDetection, detect_periodicity_autocorr
from .dft import DftDetection, detect_periodicity_dft

__all__ = [
    "ActivitySignal",
    "build_activity_signal",
    "AutocorrDetection",
    "detect_periodicity_autocorr",
    "DftDetection",
    "detect_periodicity_dft",
]
