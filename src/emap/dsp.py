"""Signal primitives shared by the cloud and edge sides.

Everything here operates on plain 1-D float arrays at a fixed 256 Hz
sampling rate: a windowed-sinc bandpass for preprocessing, normalized
cross-correlation (the expensive cloud-side comparison), and the
absolute-difference area (the cheap edge-side proxy).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

SAMPLE_RATE_HZ = 256
WINDOW_LEN = 256

# Cost model for one 256-sample comparison, used to justify pushing the
# per-iteration work onto the area metric: area needs a subtract, an abs
# and an add per sample, while correlation needs three full multiply-add
# dot products plus two square roots and a division.
AREA_OPS_PER_WINDOW = 3 * WINDOW_LEN
XCORR_OPS_PER_WINDOW = 3 * (2 * WINDOW_LEN) + 3


class DegenerateSignalError(ValueError):
    """A window with zero energy cannot be correlation-normalized."""


@dataclass
class SignalWindow:
    """One second of live signal: 256 samples plus the time-step index
    N saying which second of the stream they cover."""
    samples: np.ndarray
    timestep_index: int = 0

    def __post_init__(self):
        self.samples = window_samples(self.samples)
        if self.timestep_index < 0:
            raise ValueError("timestep_index must be >= 0")


def window_samples(w) -> np.ndarray:
    """Accept a SignalWindow or bare array and return the 256 samples
    as float64; ValueError unless there are 256 and all are finite."""
    x = np.asarray(getattr(w, "samples", w), dtype=np.float64)
    if x.shape != (WINDOW_LEN,):
        raise ValueError(
            f"expected {WINDOW_LEN} samples, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValueError("window contains non-finite samples")
    return x


def peak_scaled(x) -> np.ndarray:
    """x times the power of two that puts its largest |sample| in
    [0.5, 1); DegenerateSignalError if every sample is 0, ValueError
    if any is NaN or infinite.

    Scaling by a power of two is exact (for samples that stay normal
    floats), so a correlation of scaled windows equals that of the
    originals bit for bit. It also keeps a window's energy within
    [0.25, len(x)), so float64 dot products of scaled windows, or of
    one with float32 samples, neither overflow nor underflow, whatever
    the finite window's scale.
    """
    x = np.asarray(x, dtype=np.float64)
    peak = float(np.max(np.abs(x), initial=0.0))
    if peak == 0.0:
        raise DegenerateSignalError("window has zero energy")
    if not math.isfinite(peak):
        raise ValueError("window contains non-finite samples")
    return np.ldexp(x, -math.frexp(peak)[1])


def design_bandpass():
    """The preprocessing filter: 100 taps of an 11-40 Hz Hamming-windowed
    sinc bandpass at 256 Hz, symmetric (linear phase). 100 taps hold the
    passband within a few dB while attenuating 5 Hz and 60 Hz tones by
    well over an order of magnitude."""
    n = np.arange(100, dtype=np.float64) - 49.5

    def lowpass(fc):
        return 2.0 * fc / SAMPLE_RATE_HZ * np.sinc(2.0 * fc * n / SAMPLE_RATE_HZ)

    return (lowpass(40.0) - lowpass(11.0)) * np.hamming(100)


def apply_filter(x, taps):
    """Causal FIR convolution with an implicit zero history.

    Returns y with ``y[k] = sum_i taps[i] * x[k - i]``, same length as
    ``x``; samples before the start are taken as zero, so the first
    ``len(taps)`` output samples are warm-up and should not be used for
    measurements.
    """
    x = np.asarray(x, dtype=np.float64)
    taps = np.asarray(taps, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError("expected a 1-D signal")
    if x.size == 0:
        return x.copy()
    return np.convolve(x, taps)[: x.size]


def resample(x, source_hz: float):
    """Linearly resample a signal from source_hz to SAMPLE_RATE_HZ.

    Output length is round(len(x) * 256 / source_hz), so duration is
    preserved to within one sample period. Values beyond the last
    source sample clamp to it. A 256 Hz signal is returned unchanged
    (copied) so identity ingestion stays bit-exact. An output length
    that rounds to 0 is a ValueError.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1 or x.size == 0:
        raise ValueError("expected a non-empty 1-D signal")
    if source_hz <= 0:
        raise ValueError("source_hz must be positive")
    if source_hz == SAMPLE_RATE_HZ:
        return x.copy()
    n_out = int(round(x.size * SAMPLE_RATE_HZ / source_hz))
    if n_out == 0:
        raise ValueError(f"{x.size} samples at {source_hz} Hz resample to "
                         f"none at {SAMPLE_RATE_HZ} Hz")
    t_out = np.arange(n_out, dtype=np.float64) / SAMPLE_RATE_HZ
    t_in = np.arange(x.size, dtype=np.float64) / float(source_hz)
    return np.interp(t_out, t_in, x)


def xcorr(a, b) -> float:
    """Normalized cross-correlation of two equal-length windows.

    Returns dot(a, b) / (||a|| * ||b||), in [-1, 1]. Raises
    DegenerateSignalError if either window has zero energy, ValueError
    if either holds a NaN or infinite sample. Each window
    is peak_scaled first: the result is unchanged, bit for bit, wherever
    the unscaled arithmetic stays within float64's normal range, and
    windows of any finite scale correlate.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError(f"window shapes differ: {a.shape} vs {b.shape}")
    a, b = peak_scaled(a), peak_scaled(b)
    ea = float(np.dot(a, a))
    eb = float(np.dot(b, b))
    # sqrt of the energy product (not product of sqrts) so that a window
    # correlated with itself scores exactly 1.0
    return float(np.dot(a, b)) / math.sqrt(ea * eb)


def area_between(a, b) -> float:
    """Sum of absolute sample differences between two equal-length windows.

    This is the cheap dissimilarity the edge tracks in real time; see
    AREA_OPS_PER_WINDOW vs XCORR_OPS_PER_WINDOW for the per-window cost
    gap that motivates it. fsum keeps the result exactly the correctly
    rounded value of the true sum, independent of summation order.
    A NaN sample, or the same infinity in both windows at one sample,
    is a ValueError; an infinite sample against a finite one, or finite
    differences whose sum overflows, gives inf.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError(f"window shapes differ: {a.shape} vs {b.shape}")
    with np.errstate(over="ignore"):
        terms = np.abs(a - b)
    try:
        # fsum reads a memoryview's floats about twice as fast as an array's
        area = math.fsum(memoryview(terms))
    except OverflowError:
        # the terms are non-negative: the exact sum rounds to inf
        area = math.nan if np.isnan(terms).any() else math.inf
    if math.isnan(area):
        raise ValueError("area is NaN: a window holds a NaN sample, or "
                         "both hold the same infinity at one sample")
    return area
