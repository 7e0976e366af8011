"""Signal primitives against brute-force reference implementations."""

import hashlib
import math
import re
from fractions import Fraction

import numpy as np
import pytest

from emap.dsp import (
    AREA_OPS_PER_WINDOW,
    SAMPLE_RATE_HZ,
    WINDOW_LEN,
    XCORR_OPS_PER_WINDOW,
    DegenerateSignalError,
    SignalWindow,
    apply_filter,
    area_between,
    design_bandpass,
    peak_scaled,
    resample,
    window_samples,
    xcorr,
)


def naive_causal_filter(x, taps):
    # direct summation, zero history before the first sample
    y = np.zeros(len(x))
    for i in range(len(x)):
        acc = 0.0
        for k in range(len(taps)):
            if i - k >= 0:
                acc += taps[k] * x[i - k]
        y[i] = acc
    return y


def naive_xcorr(a, b):
    dot = math.fsum(float(x) * float(y) for x, y in zip(a, b))
    ea = math.fsum(float(x) * float(x) for x in a)
    eb = math.fsum(float(y) * float(y) for y in b)
    return dot / math.sqrt(ea * eb)


def naive_area(a, b):
    return sum(abs(float(x) - float(y)) for x, y in zip(a, b))


def tone(freq_hz, n=1024, fs=SAMPLE_RATE_HZ):
    t = np.arange(n) / fs
    return np.sin(2 * np.pi * freq_hz * t)


def steady_rms(x, warmup=100):
    tail = x[warmup:]
    return float(np.sqrt(np.mean(tail ** 2)))


def test_filter_matches_naive_convolution():
    taps = design_bandpass()
    rng = np.random.default_rng(11)
    for _ in range(10):
        x = rng.normal(0, 20, 400)
        got = apply_filter(x, taps)
        want = naive_causal_filter(x, taps)
        assert got.shape == x.shape
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-9)
    assert apply_filter(np.empty(0), taps).shape == (0,)


def test_filter_is_linear():
    taps = design_bandpass()
    rng = np.random.default_rng(12)
    a = rng.normal(0, 5, 600)
    b = rng.normal(0, 5, 600)
    lhs = apply_filter(a + 2.0 * b, taps)
    rhs = apply_filter(a, taps) + 2.0 * apply_filter(b, taps)
    np.testing.assert_allclose(lhs, rhs, atol=1e-9)


def test_filter_taps_are_symmetric():
    # symmetric taps mean linear phase: every frequency is delayed
    # equally, so waveform shape survives filtering
    taps = design_bandpass()
    assert taps.size == 100
    np.testing.assert_allclose(taps, taps[::-1], atol=1e-15)


def test_filter_taps_are_pinned():
    # sha256 of the float64 taps every store has been filtered with: a
    # drift in the design changes the bytes of every ingested signal
    digest = hashlib.sha256(design_bandpass().tobytes()).hexdigest()
    assert digest == ("4bea89378f394694ff711268261db938"
                      "0788063dabb18244b4ec424a0902eae7")


def test_filter_passband_and_stopband():
    taps = design_bandpass()
    mid = steady_rms(apply_filter(tone(25.0), taps))
    low = steady_rms(apply_filter(tone(5.0), taps))
    high = steady_rms(apply_filter(tone(60.0), taps))
    assert mid / low >= 7.0
    assert mid / high >= 7.0
    # passband ripple: tones well inside the band keep close to unit gain
    ref = steady_rms(tone(25.0))
    for f in (14.0, 20.0, 25.0, 30.0, 36.0):
        gain_db = 20 * math.log10(steady_rms(apply_filter(tone(f), taps)) / ref)
        assert -3.0 <= gain_db <= 3.0, f"{f} Hz gain {gain_db:.2f} dB"


def test_xcorr_matches_two_pass_oracle():
    rng = np.random.default_rng(13)
    for _ in range(50):
        a = rng.normal(0, 15, WINDOW_LEN)
        b = rng.normal(0, 15, WINDOW_LEN)
        assert abs(xcorr(a, b) - naive_xcorr(a, b)) < 1e-9
        # the scaling inside xcorr is exact: the plain formula, bit for bit
        assert xcorr(a, b) == float(np.dot(a, b)) / math.sqrt(
            float(np.dot(a, a)) * float(np.dot(b, b)))


def test_self_correlation_is_exactly_one():
    rng = np.random.default_rng(14)
    for _ in range(50):
        a = rng.normal(0, 15, WINDOW_LEN)
        assert xcorr(a, a) == 1.0
        assert xcorr(a, -a) == -1.0


def test_xcorr_scale_invariant_and_bounded():
    rng = np.random.default_rng(15)
    for _ in range(50):
        a = rng.normal(0, 15, WINDOW_LEN)
        b = rng.normal(0, 15, WINDOW_LEN)
        w = xcorr(a, b)
        assert abs(w) <= 1.0 + 1e-12
        assert abs(xcorr(a, 3.5 * b) - w) < 1e-12
        assert abs(xcorr(a, -b) + w) < 1e-12


def test_xcorr_rejects_zero_energy():
    a = np.zeros(WINDOW_LEN)
    b = np.ones(WINDOW_LEN)
    with pytest.raises(DegenerateSignalError):
        xcorr(a, b)
    with pytest.raises(DegenerateSignalError):
        xcorr(b, a)


def test_xcorr_at_extreme_scales():
    # the plain formula's energy product overflows at 2^520 and 1e150
    # and underflows at 1e-170
    q = np.random.default_rng(17).normal(0, 15, WINDOW_LEN)
    assert xcorr(q * 2.0 ** 520, q) == xcorr(q, q) == 1.0
    assert xcorr(q, q * 2.0 ** -560) == 1.0
    assert abs(xcorr(q * 1e150, q) - 1.0) < 1e-12
    assert abs(xcorr(q * 1e-170, q) - 1.0) < 1e-12


def test_peak_scaled_is_an_exact_power_of_two():
    x = np.random.default_rng(18).normal(0, 15, WINDOW_LEN)
    for k in (-600, -1, 0, 7, 600):
        y = peak_scaled(x * 2.0 ** k)
        assert 0.5 <= np.max(np.abs(y)) < 1.0
        assert np.array_equal(y, peak_scaled(x))
    with pytest.raises(DegenerateSignalError):
        peak_scaled(np.zeros(WINDOW_LEN))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_xcorr_rejects_non_finite_samples(bad):
    q = np.random.default_rng(19).normal(0, 15, WINDOW_LEN)
    b = q.copy()
    b[3] = bad
    for args in ((q, b), (b, q), (b, b)):
        with pytest.raises(ValueError, match="non-finite"):
            xcorr(*args)
    with pytest.raises(ValueError, match="non-finite"):
        peak_scaled(b)


def test_xcorr_shape_mismatch():
    with pytest.raises(ValueError):
        xcorr(np.ones(10), np.ones(11))


def test_area_matches_loop_oracle():
    rng = np.random.default_rng(16)
    # the area is the correctly rounded true sum, so it matches an
    # exact-rational reference bit for bit on arbitrary float inputs
    for _ in range(50):
        a = rng.normal(0, 15, WINDOW_LEN)
        b = rng.normal(0, 15, WINDOW_LEN)
        exact = float(sum(Fraction(abs(float(x) - float(y)))
                          for x, y in zip(a, b)))
        assert area_between(a, b) == exact
        assert abs(area_between(a, b) - naive_area(a, b)) < 1e-9
    # integer-valued windows sum without rounding at all, so any
    # summation order agrees exactly
    for _ in range(50):
        a = rng.integers(-1000, 1000, WINDOW_LEN).astype(float)
        b = rng.integers(-1000, 1000, WINDOW_LEN).astype(float)
        assert area_between(a, b) == naive_area(a, b)


def test_area_basic_properties():
    rng = np.random.default_rng(17)
    a = rng.normal(0, 15, WINDOW_LEN)
    b = rng.normal(0, 15, WINDOW_LEN)
    c = rng.normal(0, 15, WINDOW_LEN)
    assert area_between(a, a) == 0.0
    assert area_between(a, b) == area_between(b, a)
    assert area_between(a, c) <= area_between(a, b) + area_between(b, c) + 1e-9
    # a constant level difference of 10           -> area 256 * 10
    assert area_between(a, a + 10.0) == pytest.approx(2560.0)


def test_an_area_that_overflows_is_inf():
    # each term is finite, but their sum is not
    assert area_between(np.full(256, 1e307), np.zeros(256)) == math.inf
    # a NaN sample is still a ValueError when the other terms overflow
    a = np.full(256, 1e307)
    a[200] = np.nan
    with pytest.raises(ValueError, match="area is NaN"):
        area_between(a, np.zeros(256))


def test_area_is_never_nan():
    a = np.random.default_rng(20).normal(0, 15, WINDOW_LEN)
    b = a + 1.0
    b[3] = np.nan
    for args in ((a, b), (b, a), (b, b)):
        with pytest.raises(ValueError, match="area is NaN"):
            area_between(*args)
    # an infinite sample against a finite one is an infinite area ...
    for bad in (np.inf, -np.inf):
        b[3] = bad
        assert area_between(a, b) == area_between(b, a) == math.inf
        # ... but inf - inf at one sample has no area (numpy also warns)
        with np.errstate(invalid="ignore"), \
                pytest.raises(ValueError, match="area is NaN"):
            area_between(b, b)
    c = a.copy()
    c[3], b[3] = np.inf, -np.inf
    assert area_between(c, b) == math.inf


@pytest.mark.parametrize("call, message", [
    (lambda: apply_filter(np.ones((2, 300)), design_bandpass()),
     "expected a 1-D signal"),
    (lambda: resample(np.ones((2, 300)), 128),
     "expected a non-empty 1-D signal"),
    (lambda: resample(np.empty(0), 128), "expected a non-empty 1-D signal"),
    (lambda: resample(np.ones(300), 0), "source_hz must be positive"),
    (lambda: area_between(np.ones(WINDOW_LEN), np.ones(WINDOW_LEN - 1)),
     re.escape("window shapes differ: (256,) vs (255,)")),
], ids=["filter-2d", "resample-2d", "resample-empty", "resample-rate-0",
        "area-shapes"])
def test_a_malformed_signal_is_a_value_error(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_resample_identity_copy():
    rng = np.random.default_rng(18)
    x = rng.normal(0, 15, 777)
    y = resample(x, 256)
    assert np.array_equal(y, x)
    assert y is not x  # caller may mutate the result freely


def test_resample_preserves_duration_and_ramps():
    x = np.arange(500, dtype=float)          # a 500-sample ramp at 128 Hz
    y = resample(x, 128)
    assert y.size == 1000                    # same duration, twice the rate
    # linear interpolation keeps a ramp linear
    diffs = np.diff(y[:-2])
    np.testing.assert_allclose(diffs, diffs[0], atol=1e-9)
    down = resample(x, 512)                  # the same ramp at 512 Hz
    assert down.size == 250


def test_resample_to_no_samples_is_an_error():
    assert resample(np.ones(4), 1000).size == 1
    with pytest.raises(ValueError, match="resample to none"):
        resample(np.ones(4), 10 ** 9)


def test_window_validation():
    good = SignalWindow(samples=np.zeros(WINDOW_LEN) + 1.0, timestep_index=0)
    assert good.samples.dtype == np.float64
    with pytest.raises(ValueError):
        SignalWindow(samples=np.ones(WINDOW_LEN - 1), timestep_index=0)
    with pytest.raises(ValueError):
        SignalWindow(samples=np.full(WINDOW_LEN, np.nan), timestep_index=0)
    with pytest.raises(ValueError):
        SignalWindow(samples=np.ones(WINDOW_LEN), timestep_index=-1)
    for bad in (np.nan, np.inf, -np.inf):
        x = np.ones(WINDOW_LEN)
        x[9] = bad
        with pytest.raises(ValueError, match="non-finite"):
            window_samples(x)


def test_operation_cost_model():
    # the edge metric must be cheaper than correlation per the cost
    # model that justifies tracking by area
    assert AREA_OPS_PER_WINDOW == 3 * WINDOW_LEN == 768
    assert XCORR_OPS_PER_WINDOW == 3 * (2 * WINDOW_LEN) + 3 == 1539
    assert XCORR_OPS_PER_WINDOW >= 2 * AREA_OPS_PER_WINDOW
