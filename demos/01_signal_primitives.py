"""
Signal primitives: bandpass filtering, correlation, area
========================================================

Everything downstream is built from three small operations on
256-sample windows of 256 Hz EEG. This script shows each one behaving
the way the rest of the pipeline relies on.
"""

import numpy as np

from emap import dsp

rng = np.random.default_rng(2026)

# --- the 11-40 Hz bandpass -------------------------------------------------
# A 100-tap windowed-sinc FIR. Tones inside the band pass through close
# to unity; mains hum (60 Hz) and slow drift (5 Hz) are crushed.
taps = dsp.design_bandpass()
t = np.arange(1024) / 256.0


def steady_rms(freq_hz):
    # skip the first 100 samples: filter warm-up
    y = dsp.apply_filter(np.sin(2 * np.pi * freq_hz * t), taps)[100:]
    return float(np.sqrt(np.mean(y * y)))


print("filter response (steady-state RMS, input RMS 0.707):")
for hz in (5, 11, 25, 40, 60):
    print(f"  {hz:>4.0f} Hz -> {steady_rms(hz):.4f}")
print(f"  selectivity 25/5 Hz:  {steady_rms(25) / steady_rms(5):7.1f}x")
print(f"  selectivity 25/60 Hz: {steady_rms(25) / steady_rms(60):7.1f}x")

# --- normalized cross-correlation ------------------------------------------
# Scores live in [-1, 1]. A window against itself is exactly 1.0, not
# merely close: the search relies on that when a live window re-finds
# its own planted copy.
w = rng.normal(0.0, 15.0, 256)
noise = rng.normal(0.0, 15.0, 256)
print("\ncorrelation scores:")
print(f"  self:               {dsp.xcorr(w, w)!r}")
print(f"  inverted self:      {dsp.xcorr(w, -w)!r}")
print(f"  unrelated noise:    {dsp.xcorr(w, noise):+.4f}")
print(f"  scaled copy (x3.7): {dsp.xcorr(w, 3.7 * w)!r}")

# --- area between signals ---------------------------------------------------
# The edge cannot afford a correlation per candidate per second, so it
# tracks the area (sum of absolute differences) instead. Same verdict
# on similarity, a third of the arithmetic.
close = w + rng.normal(0.0, 0.5, 256)
print("\narea between windows:")
print(f"  identical:        {dsp.area_between(w, w):.1f}")
print(f"  slightly jittered:{dsp.area_between(w, close):10.1f}")
print(f"  unrelated noise:  {dsp.area_between(w, noise):10.1f}")
print(f"\nper-window op counts: correlation {dsp.XCORR_OPS_PER_WINDOW}, "
      f"area {dsp.AREA_OPS_PER_WINDOW} "
      f"({dsp.XCORR_OPS_PER_WINDOW / dsp.AREA_OPS_PER_WINDOW:.2f}x cheaper)")
