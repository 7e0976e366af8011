"""Correlation search over the slice database (cloud side).

The production scan slides through each 1000-sample slice with a step
that shrinks exponentially as correlation rises, so promising regions
are combed at single-sample resolution while dissimilar ones are crossed
in jumps of up to 250 samples. The exhaustive scan, which correlates
every offset, is the oracle the fast path is tested against.

The sliding scan is a kernel that moves every slice of the store
through its offsets in one lockstep: each round gathers every active
slice's current window from the store's flat float32 buffer, a tile of
rows at a time, correlates them all with the query at once and advances
each slice by its own step. The correlation is screened in float32, with
a derived error bound (see _screen); only the rows whose step or hit the
screen cannot settle, a few percent of them, are rescored in the
kernel's float64 arithmetic, so candidates, omegas, counters and the
trace are that arithmetic's bit for bit. A round holds O(slices) index,
step and omega vectors plus one tile of gathered rows.

Several queries can run in one lockstep (sliding_search_many), as the
concurrent calls of an evaluation do. Its rows are (query, slice)
pairs; where the rows of several queries sit at the same window, it is
gathered once and scored against all of them in one float32 product.
Each query's result is its single search's, bit for bit.

The exhaustive scan correlates the query with every slice in the
frequency domain instead: one float32 FFT product per slice, 64 slices
per batched transform, from a table of slice spectra built on the
store's first exhaustive search. The table keeps the spectra as int16
fixed point, which numpy widens to float32 about ten times as fast as
float16. The scan screens each slice's correlations against one
threshold floor per slice, tests the few that clear it against delta
within a derived error bound (see _error_bound and _floors), and
recomputes with the kernel's float64 arithmetic every offset that
could exceed delta. Its candidates, omegas and counters are those of
the kernel's arithmetic at every offset, bit for bit.

Both scans first scale the query by the power of two that puts its
largest |sample| in [0.5, 1) (dsp.peak_scaled). The scaling is exact,
so no omega changes, and it keeps every float64 product and sum of
either scan inside float64's range for any finite query.

Every search scans every slice in the store.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import dsp
from .mdb import SLICE_LEN, MdbStore

LAST_OFFSET = SLICE_LEN - dsp.WINDOW_LEN  # 744, scanned inclusively
_OFFSETS = LAST_OFFSET + 1

_TILE = 256    # rows gathered at once, so they stay in cache
# (query, slice) rows in one lockstep, 8 queries on a 1920-slice store;
# a round holds about 100 B per row. On that store 10 queries per
# lockstep raised the evaluation's peak RSS about 2 MB more than 8 did,
# and were no faster within the host's noise
_LOCKSTEP_ROWS = 16_000

_NFFT = 1024        # offsets 0..744 of a slice correlate without wrapping
_FFT_ROWS = 64      # slices correlated per block of an FFT scan
_FIXED = 2 ** 10    # the spectra table's fixed-point scale (see _Spectra)
_BUILD_ROWS = 8     # slices per block while building the spectra table


@dataclass(frozen=True)
class Candidate:
    set_id: int
    omega: float
    beta: int


@dataclass
class SearchConfig:
    alpha: float = 0.004
    delta: float = 0.8
    top_k: int = 100

    def __post_init__(self):
        # the largest step, 1/alpha, must fit int64 beside an offset
        if not (2.0 ** -62 <= self.alpha < 1.0):
            raise ValueError("alpha must lie in [2**-62, 1)")
        if not (-1.0 < self.delta < 1.0):
            raise ValueError("delta must lie in (-1, 1)")
        if self.top_k < 1:
            raise ValueError("top_k must be >= 1")


@dataclass
class SearchResult:
    candidates: list
    comparisons_made: int = 0
    degenerate_skipped: int = 0
    trace: list | None = None


def _step_for(alpha: float, omega_clamped: float) -> int:
    return max(1, round(alpha ** (omega_clamped - 1.0)))


def _steps(alpha: float, clamped: np.ndarray) -> np.ndarray:
    """_step_for over an array, element for element: np.power may differ
    from Python's pow in the last bit, which matters only next to a
    half-integer, so those elements are recomputed with _step_for."""
    raw = np.power(alpha, clamped - 1.0)
    steps = np.rint(raw)  # halves to even, as round() does
    for i in np.flatnonzero(np.abs(np.abs(raw - steps) - 0.5) <= 1e-9 * raw):
        steps[i] = _step_for(alpha, float(clamped[i]))
    return np.maximum(steps, 1.0).astype(np.int64)


@np.errstate(invalid="ignore")  # flat windows score 0/0
def _omegas(windows, at, q, q_energy):
    """(energy, omega) of the windows starting at `at` against the query,
    in float64, widened _TILE rows at a time.

    vecdot takes each row's dot with the same kernel as np.dot, so an
    identical window scores exactly 1.0; sqrt of the product keeps it
    there."""
    energy = np.empty(at.size)
    dot = np.empty(at.size)
    for lo in range(0, at.size, _TILE):
        segs = windows[at[lo:lo + _TILE]].astype(np.float64)
        np.vecdot(segs, segs, out=energy[lo:lo + _TILE])
        np.vecdot(segs, q, out=dot[lo:lo + _TILE])
    return energy, dot / np.sqrt(q_energy * energy)


# The screen: float32 dots, within _SCREEN_ERR of the kernel's omega
# wherever the float32 energy lies in (_SCREEN_LO, _SCREEN_HI)
_SCREEN_ERR = 2.0 ** -15
_SCREEN_LO = 2.0 ** -100
_SCREEN_HI = 2.0 ** 100
# relative slack on the screen's step bracket: exp, np.power and pow
# each land within a few ulp of alpha**(omega - 1), far inside it
_STEP_SLACK = 1e-9


@np.errstate(over="ignore", invalid="ignore")  # float32 sums may overflow
def _screen(windows, at, q32, q_energy):
    """Screen omegas, (at.size, k), of the windows starting at `at`
    against q32's k queries, rounded to float32, of energies `q_energy`:
    each window is gathered once, _TILE rows at a time, its float32
    energy taken once, and all queries scored in one float32 matmul. A
    window whose float32 energy lies outside (_SCREEN_LO, _SCREEN_HI)
    scores +inf: it may be flat, or its float32 sums may have
    underflowed or overflowed.

    Every finite screen omega is within _SCREEN_ERR of _omegas'. With
    u = 2^-24 and γ = 256u/(1 - 256u), about 1.526e-5:
      the float32 dot is within γ·Σ|s_i·q32_i| of the exact one in any
      summation order, so in every column of the product; q32 is within
      u of q elementwise, so the dot is within (γ + u + γu)·‖s‖‖q‖ of s·q;
      the float32 energy is within γ of ‖s‖² relative, so its square
      root is within γ/2 + O(γ²) relative, and |omega| ≤ 1;
      float32 underflow, in q32, a product or a square, adds at most
      2^-145·‖s‖ + 2^-142 to either sum. Above _SCREEN_LO, ‖s‖² >
      2^-101, and the query's largest |sample| is in [0.5, 1), so
      ‖q‖ ≥ 0.5: that moves omega by under 2^-40. Below _SCREEN_HI, no
      float32 product or sum overflows;
      the float64 product, root and quotient here, and the kernel's own
      float64 rounding (three 256-term dots, a product, a root and a
      quotient), add under 600·2^-53.
    In all, 1.5γ + u and second-order terms, about 2.30e-5. _SCREEN_ERR
    rounds it up to 2^-15, about 3.05e-5; the margin covers the float64
    sums and comparisons the scan makes with the bound.
    """
    energy = np.empty(at.size, dtype=np.float32)
    dot = np.empty((at.size, len(q32)), dtype=np.float32)
    for lo in range(0, at.size, _TILE):
        s = windows[at[lo:lo + _TILE]]
        np.vecdot(s, s, out=energy[lo:lo + _TILE])
        np.matmul(s, q32.T, out=dot[lo:lo + _TILE])
    sure = (energy > _SCREEN_LO) & (energy < _SCREEN_HI)
    root = np.multiply.outer(energy, q_energy, dtype=np.float64)
    return np.divide(dot, np.sqrt(root, out=root),
                     out=np.full(dot.shape, np.inf), where=sure[:, None])


def _screen_shared(windows, at, bounds, q32, q_energy, lattice, slot,
                   lattice_at):
    """_screen for the rows of several queries: row i is the window
    starting at at[i], and query j, a row of q32, owns rows
    bounds[j]:bounds[j + 1].

    A row where `lattice` is set is at lattice_at[slot[i]], the lattice
    position of its slice: those windows are screened against every
    query at once, so each is gathered once. The other rows are
    screened per query."""
    omega = np.empty(at.size)
    if lattice.any():
        shared = np.zeros(lattice_at.size, dtype=bool)
        shared[slot[lattice]] = True
        shared = np.flatnonzero(shared)
        index = np.empty(lattice_at.size, dtype=np.int64)
        index[shared] = np.arange(shared.size)
        query = np.repeat(np.arange(len(q32)), np.diff(bounds))
        omega[lattice] = _screen(windows, lattice_at[shared], q32, q_energy)[
            index[slot[lattice]], query[lattice]]
    off = np.flatnonzero(~lattice)
    for j, lo, hi in _groups(off, bounds):
        rows = off[lo:hi]
        omega[rows] = _screen(windows, at[rows], q32[j:j + 1],
                              q_energy[j:j + 1])[:, 0]
    return omega


def _groups(index, bounds):
    """(j, lo, hi) for each query j that owns some of the sorted row
    positions `index`, index[lo:hi] (query j owns positions
    bounds[j]:bounds[j + 1])."""
    if len(bounds) == 2:        # one query owns every row
        return [(0, 0, index.size)] if index.size else []
    cut = np.searchsorted(index, bounds).tolist()
    return [(j, lo, hi) for j, (lo, hi) in enumerate(zip(cut, cut[1:]))
            if lo < hi]


def _settle(omega, alpha, delta):
    """(rows to rescore, steps) from screen omegas: a row is rescored if
    its step differs somewhere in omega ± _SCREEN_ERR, or if it could
    exceed delta; the other rows' steps are exact."""
    # the steps at max(omega ∓ _SCREEN_ERR, 0) round alpha**(w - 1)
    # times these factors, where clamping w at 0 caps it at alpha**-1;
    # each end is widened by the slack
    log_alpha = math.log(alpha)
    down = math.exp(_SCREEN_ERR * log_alpha) * (1 - _STEP_SLACK)
    up = math.exp(-_SCREEN_ERR * log_alpha) * (1 + _STEP_SLACK)
    top = alpha ** -1.0
    raw = np.exp((omega - 1.0) * log_alpha)
    low = np.rint(np.minimum(raw * down, top * (1 - _STEP_SLACK)))
    high = np.rint(np.minimum(raw * up, top * (1 + _STEP_SLACK)))
    exact = np.flatnonzero((low != high) | (omega > delta - _SCREEN_ERR))
    # a row left to the screen has omega + _SCREEN_ERR <= delta < 1, so
    # its raw step is above 1 - _STEP_SLACK: low >= 1
    return exact, low.astype(np.int64)


def _lockstep_scan(qs, q_energy, windows, starts, alpha, delta, record_trace):
    """Scan the slices starting at `starts` against the k rows of the
    query matrix `qs` (with energies `q_energy`) in one lockstep.

    Its rows are (query, slice) pairs in query-major order. Each round
    screens every comparison in float32 (_screen) and rescores with
    the kernel's float64 arithmetic (_omegas, then _steps) only the
    rows the screen cannot settle: a row whose step differs somewhere
    in its screen omega ± _SCREEN_ERR, and one that could exceed delta,
    so every candidate keeps the kernel's omega. The latter include
    every window the screen cannot bound, flat ones among them: only
    the exact energy counts a window as degenerate. With record_trace
    (one query only) every row is rescored and nothing is screened.

    With more than one query, rows on the lattice share their gathers
    (_screen_shared). No step exceeds the top step, max(1,
    round(1/alpha)), which a row takes wherever its omega is at most 0.
    So a row is at beta (r - 1) times the top step in round r exactly
    when it took the top step at every visit: that beta is the round's
    lattice, where rows of different queries meet at the same window
    of a slice, in round 1 all of them. Every row's steps, hits and
    counters are its single-query scan's, bit for bit, as the screen
    only decides which rows are rescored.

    Returns, per query, (candidates, comparisons, degenerate skips,
    trace). A slice's candidate is its best omega above delta
    (_best_per_slice), with the slice's index in `starts` as its
    set_id. The trace lists every comparison as (set_id, beta, omega,
    clamped, step) in slice-major order, or is None without
    record_trace.
    """
    k, n = len(qs), starts.size
    rows = np.arange(k * n)     # query j's row for slice s is j * n + s
    edges = n * np.arange(k + 1)
    beta = np.zeros(rows.size, dtype=np.int64)
    q32 = qs.astype(np.float32)
    top_step = _step_for(alpha, 0.0)
    lattice = 0     # the beta of rows that took the top step every time
    trace = [] if record_trace else None
    hits = []   # per round, the (row, beta, omega) columns above delta
    visits = [0] * k
    degenerate = [0] * k
    while rows.size:
        # query j owns rows[bounds[j]:bounds[j + 1]], each one a visit
        if k == 1:      # one query's rows are its slots
            bounds, slot = [0, rows.size], rows
        else:
            bounds, slot = np.searchsorted(rows, edges).tolist(), rows % n
        for j in range(k):
            visits[j] += bounds[j + 1] - bounds[j]
        at = starts[slot] + beta
        if record_trace:
            exact = np.arange(rows.size)
            step = np.empty(rows.size, dtype=np.int64)
        elif k == 1:        # nothing to share
            exact, step = _settle(_screen(windows, at, q32, q_energy)[:, 0],
                                  alpha, delta)
        else:
            exact, step = _settle(
                _screen_shared(windows, at, bounds, q32, q_energy,
                               beta == lattice, slot, starts + lattice),
                alpha, delta)
        if exact.size:
            r, b = rows[exact], beta[exact]
            energy = np.empty(exact.size)
            omega = np.empty(exact.size)
            for j, lo, hi in _groups(exact, bounds):
                energy[lo:hi], omega[lo:hi] = _omegas(
                    windows, at[exact[lo:hi]], qs[j], q_energy[j])
                # a flat segment carries no information: it is skipped,
                # and its omega of NaN clamps to 0, the maximum step
                degenerate[j] += int(np.count_nonzero(energy[lo:hi] == 0.0))
            over = omega > delta
            if np.count_nonzero(over):
                hits.append((r[over], b[over], omega[over]))
            # omega is clamped only after the threshold test, so a
            # negative correlation still produces the maximum step
            clamped = np.where(omega > 0.0, omega, 0.0)
            step[exact] = _steps(alpha, clamped)
            if trace is not None:
                kept = energy != 0.0
                trace.append([c[kept] for c in (r, b, omega, clamped,
                                                step[exact])])
        beta += step
        lattice = min(lattice + top_step, LAST_OFFSET + 1)
        live = beta <= LAST_OFFSET
        if not live.all():
            rows, beta = rows[live], beta[live]
    if trace:       # an empty store runs no round and keeps trace == []
        cols = [np.concatenate(c) for c in zip(*trace)]
        order = np.argsort(cols[0], kind="stable")
        trace = list(zip(*(c[order].tolist() for c in cols)))
    r, b, omega = (map(np.concatenate, zip(*hits)) if hits else
                   (np.empty(0, dtype=np.int64),) * 3)
    j, r = np.divmod(r, max(n, 1))
    return [(_best_per_slice(r[j == i], b[j == i], omega[j == i]),
             visits[i] - degenerate[i], degenerate[i], trace)
            for i in range(k)]


# -- the exhaustive scan in the frequency domain ------------------------------

_U16 = 2.0 ** -11   # unit roundoff of float16
_U32 = 2.0 ** -24   # unit roundoff of float32
_U64 = 2.0 ** -53   # unit roundoff of float64
# Normwise relative error of a float32 FFT of length 1024. Higham,
# Accuracy and Stability of Numerical Algorithms (2002), Thm 24.2 gives
# log2(N)·η with η = μ + γ4(√2 + μ) < 8u for radix 2 and correctly
# rounded twiddles; doubled for pocketfft's radix-4 butterflies and
# its real-input pass.
_FFT_REL = 2 * 10 * 8 * _U32
# Error at one offset of irfft(conj(rfft q)·rfft x), over ‖q‖‖x‖, for
# a 256-sample q and a 1000-sample x. With ε = _FFT_REL, |Q_k| ≤ ‖q‖₁ ≤
# 16‖q‖ and |X_k| ≤ ‖x‖₁ ≤ √1000‖x‖: 31.7ε from the error of Q times X,
# 16ε from Q times the error of X, 16ε from the inverse transform and
# 16·√2γ2 < 46u from the complex products.
_FFT_ABS = 64 * _FFT_REL + 46 * _U32
# The same over the table's fixed-point copy of the spectra. Each part
# is stored as round(X·2^10), so the copy is within 2^-11 = u16 of X
# per part and |ΔX_k| ≤ √2·u16 at every bin of the Hermitian spectrum:
# at one offset, (1/N)·‖Q‖·‖ΔX‖ ≤ (1/N)·√N‖q‖·√(2N)·u16 = √2·u16‖q‖‖x‖
# for the unit-norm q and x. The scan folds the 2^-10 into the query's
# spectrum, exactly but where a part falls below float32's normal
# range: it then moves by at most 2^-150, and times a stored |S_k| <
# 2^15.5 and through the inverse transform that adds under 2^-134.
# 1.5·u16 covers both.
_SPECTRUM_ABS = 1.5 * _U16
# cumulative sums of 1000 exact squares are each within γ999 of the
# slice energy, so a window's energy from two of them is within
# _ENERGY_ERR times the slice's cumulative total
_ENERGY_ERR = 2002 * _U64
# a window's ratio is kept only where its table energy is above this
# share of the slice's: the ratio then fits float16 (it is below 2^15)
# and the window's true energy is at least 3/4 of the table's (2^-30 is
# far above 4·_ENERGY_ERR); other windows are always rescored
_ENERGY_KEEP = 2.0 ** -30


def _error_bound(t):
    """Bound on |FFT omega - kernel omega| at offsets whose table ratio
    (slice norm over window norm) is t. The scan evaluates it in float32
    at the offsets it tests, and in float64 at each slice's extreme
    ratios for its floor (see _floors).

    The FFT omega is y·t, y the float32 correlation of the query and
    the slice, each scaled to unit norm and rounded to float32. Its
    error relative to the true omega is ψ + (1 + ψ)ρ, as |omega| ≤ 1,
    where
      ψ = 2u32 (the float32 rounding of the scaled query and slice)
          + 1.156·(_FFT_ABS + _SPECTRUM_ABS)·t (the FFT error and the
          fixed-point spectra over the window norm: the true energy is
          at least 3/4 of the table's, and t is rounded to float16);
      ρ = 1.01·_ENERGY_ERR·t² (the energy table, through the square
          root of its relative error)
          + u16 + u32 + 2u64 (the ratio's float64 division and float16
          copy, and the float32 product y·t).
    The kernel's own float64 rounding (three 256-term dot products, a
    product, a sqrt and a division) adds 520u64. Underflow in the
    float32 data after scaling adds under 2^-140·t, inside the rounding
    up of _FFT_ABS. The bound is raised by 1% and 4u32 to cover its own
    float32 evaluation and the float32 sums and comparisons made with it.

    As a function of t it is a cubic with non-negative coefficients,
    which _floors relies on.
    """
    psi = 2 * _U32 + (1.156 * (_FFT_ABS + _SPECTRUM_ABS)) * t
    rho = (1.01 * _ENERGY_ERR) * (t * t) + (_U16 + _U32 + 2 * _U64)
    return 1.01 * (520 * _U64 + psi + (1 + psi) * rho) + 4 * _U32


def _flat_windows(x):
    """Which of the 745 windows of each row of `x` are all zero."""
    zeros = np.zeros((x.shape[0], SLICE_LEN + 1), dtype=np.int32)
    np.cumsum(x == 0, axis=1, out=zeros[:, 1:])
    w = dsp.WINDOW_LEN
    return zeros[:, w:] - zeros[:, :-w] == w


@dataclass(frozen=True)
class _Spectra:
    """The FFT scan's per-store table, about 3.55 KB per slice.

    Each slice is scaled to unit norm before its FFT: correlation does
    not see the scale, and float32 then neither overflows nor loses
    quiet slices to underflow. The spectra are kept as int16 fixed
    point, round(X·2^10): a unit slice has |X_k| ≤ ‖x‖₁ ≤ √1000 < 32, so
    every part fits (a constant slice stores 32382 at bin 0), and numpy
    widens int16 to float32 about ten times as fast as float16. The
    ratios are kept in float16. The error bound covers both roundings;
    the table is small because it stays in memory as long as its store
    does.
    """
    # (n, 1026) int16: rfft of each scaled slice times _FIXED, rounded
    # to integers, real and imaginary parts interleaved
    spectra: np.ndarray
    # (n, 745) float16: ‖slice‖/‖window‖; 0 for a flat (all-zero)
    # window, NaN for any other window that is not kept
    ratio: np.ndarray
    # (n, 2) float32: each slice's smallest and largest ratio, NaN where
    # any of its windows has ratio NaN
    span: np.ndarray
    flat: np.ndarray       # (n,) int64: all-zero windows per slice

    @classmethod
    def build(cls, store: MdbStore) -> "_Spectra":
        n = store.num_slices
        w = dsp.WINDOW_LEN
        table = cls(np.empty((n, _NFFT + 2), dtype=np.int16),
                    np.empty((n, _OFFSETS), dtype=np.float16),
                    np.empty((n, 2), dtype=np.float32),
                    np.empty(n, dtype=np.int64))
        slices = sliding_window_view(store.flat, SLICE_LEN)
        for lo in range(0, n, _BUILD_ROWS):
            hi = min(lo + _BUILD_ROWS, n)
            x = slices[store.slice_starts[lo:hi]]
            flat = _flat_windows(x)
            table.flat[lo:hi] = np.count_nonzero(flat, axis=1)
            cum = np.zeros((hi - lo, SLICE_LEN + 1))
            np.cumsum(np.square(x, dtype=np.float64), axis=1, out=cum[:, 1:])
            energy = cum[:, w:] - cum[:, :-w]
            norm = np.sqrt(cum[:, -1:])
            ratio = np.full(energy.shape, np.nan)
            np.divide(norm, np.sqrt(energy), out=ratio,
                      where=energy > _ENERGY_KEEP * cum[:, -1:])
            ratio[flat] = 0.0
            table.ratio[lo:hi] = ratio
            # min and max propagate NaN
            table.span[lo:hi, 0] = table.ratio[lo:hi].min(axis=1)
            table.span[lo:hi, 1] = table.ratio[lo:hi].max(axis=1)
            unit = np.divide(x, norm, out=np.zeros(x.shape), where=norm > 0)
            spectrum = np.fft.rfft(unit.astype(np.float32), _NFFT)
            table.spectra[lo:hi] = np.rint(spectrum.view(np.float32) * _FIXED)
        return table


def _spectra(store: MdbStore) -> _Spectra:
    """The store's table, built on its first exhaustive search."""
    if store.scan_table is None:
        store.scan_table = _Spectra.build(store)
    return store.scan_table


def _floors(table: _Spectra, delta):
    """Per slice, a float32 floor below which no y passes the scan's
    per-offset test at any of the slice's offsets but flat ones; -inf
    for a slice with an unkept window that is not flat.

    The test keeps an offset of ratio t unless, in float32,
    y·t + err(t) <= delta, err being _error_bound. In real arithmetic
    it drops every y <= f(t) = (delta - err(t))/t. The floor is
    min(g(t_lo), g(t_hi)) over the slice's smallest and largest ratio,
    where
      g(t) = (delta - 4u32 - (1 + 32u32)·err(t))/t
    is f less a margin for the test's float32 rounding, evaluated in
    float64 and rounded down to float32. That is the least g takes on
    [t_lo, t_hi]: with c(t) = 4u32 + (1 + 32u32)·err(t), a cubic with
    non-negative coefficients, g(t) = (delta - c(0))/t - (c(t) - c(0))/t,
    whose second term is a polynomial in t with non-negative
    coefficients, so it is convex and increasing for t > 0. If delta >
    c(0), the first term decreases, and so does g; otherwise it is
    concave, and so is g. Either way the least value is at an end.

    A flat window, which the kernel skips, has ratio 0. If delta >
    c(0), g(0) = +inf, and g(t_hi) is still the least g over the other
    windows, as g decreases; otherwise g(0) is -inf or NaN: floor -inf.

    A y at or below the floor is at or below g(t) at each of the
    slice's offsets, so the test drops it. The test's float32 result
    is non-decreasing in y, so it suffices that it drops y = g(t).
    There y·t + c(t) = delta and |y·t| <= 1 + 2·err(t). Rounding y·t
    moves the sum by at most u32·(1 + 2·err), the float32 evaluation
    of err (fifteen roundings of non-negative terms) by under
    16u32·err, rounding the sum by about u32, and delta's own float32
    rounding (NumPy compares a float32 array with delta in float32) by
    at most u32: under 3u32 + 18u32·err(t) in all, with second-order
    terms. The margin covers that, with room for the float64
    evaluation of g.
    """
    t = table.span.astype(np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):  # t = 0
        g = (delta - 4 * _U32 - (1 + 32 * _U32) * _error_bound(t)) / t
    exact = g.min(axis=1)
    floor = exact.astype(np.float32)
    up = floor > exact
    floor[up] = np.nextafter(floor[up], np.float32(-np.inf))
    floor[np.isnan(exact)] = -np.inf
    return floor


def _fft_scan(q, q_energy, store, delta):
    """(candidates, degenerate skips) of the exhaustive scan: an FFT
    correlation per slice, then the kernel's arithmetic at every offset
    that could beat delta.

    Stage 1, per block of slices, keeps the offsets whose correlation y
    is above their slice's floor (_floors): no other offset could pass
    stage 2. Stage 2, once per search, tests each survivor as
        y·t + err(t) > delta, or t is NaN (the window is not kept),
    in float32, with t its table ratio and err _error_bound: an offset
    that fails it cannot have a kernel omega above delta. A flat window
    (t = 0) fails it for any delta above err(0), about 5e-4, and is
    otherwise rescored to a NaN omega, which is not above delta. Every
    survivor is rescored with the kernel's arithmetic (_omegas).
    """
    n = store.num_slices
    if not n:
        return [], 0
    table = _spectra(store)
    floor = _floors(table, delta)[:, None]
    unit = (q / math.sqrt(q_energy)).astype(np.float32)
    # the table's 2^10 is taken out of the query: exact, bar underflow
    query = np.conj(np.fft.rfft(unit, _NFFT)) / _FIXED
    product = np.empty((_FFT_ROWS, _NFFT // 2 + 1), dtype=np.complex64)
    y = np.empty((_FFT_ROWS, _NFFT), dtype=np.float32)
    rows, betas, ys = [], [], []
    for lo in range(0, n, _FFT_ROWS):
        m = min(_FFT_ROWS, n - lo)
        product[:m].view(np.float32)[...] = table.spectra[lo:lo + m]
        product[:m] *= query
        np.fft.irfft(product[:m], _NFFT, out=y[:m])
        # faster than a 2-D np.nonzero at a few survivors per block
        r, b = np.divmod(np.flatnonzero(y[:m, :_OFFSETS] > floor[lo:lo + m]),
                         _OFFSETS)
        rows.append(lo + r)
        betas.append(b)
        ys.append(y[r, b])
    rows, betas, ys = (np.concatenate(c) for c in (rows, betas, ys))
    t = table.ratio[rows, betas].astype(np.float32)
    keep = ~(ys * t + _error_bound(t) <= delta)
    rows, betas = rows[keep], betas[keep]
    windows = sliding_window_view(store.flat, dsp.WINDOW_LEN)
    _energy, omega = _omegas(windows, store.slice_starts[rows] + betas, q,
                             q_energy)
    hit = omega > delta
    return (_best_per_slice(rows[hit], betas[hit], omega[hit]),
            int(table.flat.sum()))


def _best_per_slice(rows, betas, omega):
    """Candidates from omegas at offsets `betas` of slices `rows`: per
    slice, the best omega at its lowest beta, the first best one the
    sliding scan visits."""
    order = np.lexsort((betas, -omega, rows))
    first = order[np.unique(rows[order], return_index=True)[1]]
    return [Candidate(set_id=r, omega=w, beta=b) for r, w, b in
            zip(rows[first].tolist(), omega[first].tolist(),
                betas[first].tolist())]


def _query(window):
    """A window's samples, peak-scaled (see the module docstring), and
    their energy."""
    q = dsp.peak_scaled(dsp.window_samples(window))
    return q, float(np.dot(q, q))


def _result(candidates, used, degenerate, cfg, trace=None):
    candidates.sort(key=lambda c: (-c.omega, c.set_id, c.beta))
    return SearchResult(
        candidates=candidates[:cfg.top_k],
        comparisons_made=used,
        degenerate_skipped=degenerate,
        trace=trace,
    )


def sliding_search_many(windows, store: MdbStore, cfg: SearchConfig,
                        record_trace: bool = False) -> list[SearchResult]:
    """sliding_search of each window, all in one lockstep.

    The results are those of one sliding_search per window, field for
    field. Every window's comparisons go through the one float32 screen
    (_screen), and windows whose scans meet at the same offset of a
    slice share its gather and one float32 product (see
    _lockstep_scan). At most _LOCKSTEP_ROWS (window, slice) rows, and
    at least one window, run in one lockstep; more windows run in
    several. record_trace needs exactly one window.
    """
    queries = [_query(w) for w in windows]
    if record_trace and len(queries) != 1:
        raise ValueError("record_trace needs exactly one window")
    n = store.num_slices
    view = sliding_window_view(store.flat, dsp.WINDOW_LEN) if n else None
    per = max(1, _LOCKSTEP_ROWS // max(n, 1))
    results = []
    for lo in range(0, len(queries), per):
        qs, energies = (np.array(c) for c in zip(*queries[lo:lo + per]))
        scans = _lockstep_scan(qs, energies, view, store.slice_starts,
                               cfg.alpha, cfg.delta, record_trace)
        results += [_result(candidates, used, degenerate, cfg, trace)
                    for candidates, used, degenerate, trace in scans]
    return results


def sliding_search(window, store: MdbStore, cfg: SearchConfig,
                   record_trace: bool = False) -> SearchResult:
    """Exponential sliding-window correlation search for the top-K
    slices matching one second of live signal.

    Every comparison is screened in float32 and rescored in float64
    where the screen's error bound leaves its step or its hit open, so
    the result is the float64 scan's bit for bit. With
    record_trace=True every comparison is rescored, and the result
    carries every visited offset as (set_id, beta, omega,
    omega_clamped, step) for scan audits.
    """
    return sliding_search_many([window], store, cfg, record_trace)[0]


def exhaustive_search(window, store: MdbStore,
                      cfg: SearchConfig) -> SearchResult:
    """Brute-force oracle: correlate at all 745 offsets of every slice,
    with identical thresholding, deduplication and ordering.

    This is one FFT correlation per slice, exactly rescored (see
    _fft_scan): candidates, omegas and counters are those of the
    sliding kernel's arithmetic at every offset, bit for bit.
    The store's spectra table is built on the first call and kept on
    the store. The result carries no trace."""
    q, q_energy = _query(window)
    candidates, degenerate = _fft_scan(q, q_energy, store, cfg.delta)
    return _result(candidates, store.num_slices * _OFFSETS - degenerate,
                   degenerate, cfg)


@dataclass
class SweepRow:
    alpha: float
    mean_comparisons: float
    mean_matches: float
    mean_top100_omega: float


def alpha_sweep(windows, store: MdbStore, alphas, base_cfg: SearchConfig):
    """Sliding-search statistics per alpha over a set of query windows.

    mean_top100_omega pools every returned candidate's omega across the
    inputs (0.0 when nothing matched anywhere).
    """
    if not windows or not alphas:
        raise ValueError("need at least one window and one alpha")
    rows = []
    for alpha in alphas:
        results = sliding_search_many(
            windows, store, dataclasses.replace(base_cfg, alpha=alpha))
        omegas = [c.omega for res in results for c in res.candidates]
        rows.append(SweepRow(
            alpha=float(alpha),
            mean_comparisons=float(np.mean(
                [res.comparisons_made for res in results])),
            mean_matches=float(np.mean(
                [len(res.candidates) for res in results])),
            mean_top100_omega=float(np.mean(omegas)) if omegas else 0.0,
        ))
    return rows
