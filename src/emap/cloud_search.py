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
trace are that arithmetic's bit for bit. A round of q queries holds
O(q × slices) row, beta, window, step and omega vectors, about 82 B
per (query, slice) row, plus one tile of gathered rows.

Several queries can run in one lockstep (sliding_search_many), as the
concurrent calls of an evaluation do. Its rows are (query, slice)
pairs in query-major order, so each query's rows form one run. Where
more rows sit on a round's lattice (see _lockstep_scan) than there are
slices, every slice's lattice window is gathered once and scored
against all queries in one float32 product. Each other row is
screened, and each undecided row rescored, against its run's query,
in one call per round however many queries the lockstep holds.
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
could exceed delta. The floors depend only on the table and delta, so
the table keeps them for the last delta it was searched with. A block
compares offset by offset only the slices whose largest correlation
is above their floor, and skips a block that has none: as every
correlation is finite, no other offset could clear it. Its candidates,
omegas and counters are those of the kernel's arithmetic at every
offset, bit for bit.

Both scans gather windows from the store's one window view
(MdbStore.windows).

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
# (query, slice) rows in one lockstep: 68 queries on a 1920-slice store,
# so each pass of the 40-stream evaluation is one lockstep and gathers
# every slice's beta-0 window once. A round holds about 82 B per row.
# ms per query for one batch of 40 random stream windows on stores of
# colored-noise slices (traced peak), median of 3-5 passes, 2 cores:
#   slices   cap 16,000      cap 80,000      cap 2**17       cap 320,000
#   1920      1.15 (1.7 MB)   0.99 (6.6 MB)   0.99 (6.6 MB)   1.01 (6.6 MB)
#   7680      5.28 (1.9 MB)   4.27 (6.8 MB)   4.19 (11.1 MB)  3.88 (25.6 MB)
#   30720    16.80 (2.5 MB)  17.68 (6.0 MB)  16.13 (11.2 MB) 16.11 (25.9 MB)
_LOCKSTEP_ROWS = 2 ** 17

_NFFT = 1024        # offsets 0..744 of a slice correlate without wrapping
_FFT_ROWS = 64      # slices correlated per block of an FFT scan
_FIXED = 2 ** 10    # the spectra table's fixed-point scale (see _Spectra)
_BUILD_ROWS = 8     # slices per block while building the spectra table;
# _FFT_ROWS blocks build it twice as fast but raise its traced peak by
# 3.3 MB, and oracle-parity builds its table inside each timed run

# a scan's hits, (slices, betas, omegas), where none was above delta
_NO_HITS = (np.empty(0, dtype=np.int64),) * 3


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


def _per_row(q_energy, runs):
    """Each row's query energy, query j's on rows runs[j]:runs[j + 1]. A
    single run's is one scalar, which broadcasts without a per-row copy."""
    if len(runs) == 2:
        return q_energy[0]
    return np.repeat(q_energy, np.diff(runs))


@np.errstate(invalid="ignore")  # flat windows score 0/0
def _omegas(windows, at, runs, qs, q_energy):
    """(energy, omega) in float64 of the windows starting at `at`, each
    against its own query: query j, qs[j] of energy q_energy[j], owns
    rows runs[j]:runs[j + 1]. Each run is widened _TILE rows at a time.

    vecdot takes each row's dot with the same kernel as np.dot, so an
    identical window scores exactly 1.0; sqrt of the product keeps it
    there."""
    energy = np.empty(at.size)
    dot = np.empty(at.size)
    for j, (a, b) in enumerate(zip(runs, runs[1:])):
        for lo in range(a, b, _TILE):
            segs = windows[at[lo:min(lo + _TILE, b)]].astype(np.float64)
            hi = lo + len(segs)
            np.vecdot(segs, segs, out=energy[lo:hi])
            np.vecdot(segs, qs[j], out=dot[lo:hi])
    return energy, dot / np.sqrt(energy * _per_row(q_energy, runs))


# The screen: float32 dots, within _SCREEN_ERR of the kernel's omega
# wherever the float32 energy lies in (_SCREEN_LO, _SCREEN_HI)
_SCREEN_ERR = 2.0 ** -15
_SCREEN_LO = 2.0 ** -100
_SCREEN_HI = 2.0 ** 100
# relative slack on the screen's step bracket: exp, np.power and pow
# each land within a few ulp of alpha**(omega - 1), far inside it
_STEP_SLACK = 1e-9


@np.errstate(over="ignore", invalid="ignore")  # float32 sums may overflow
def _screen(windows, at, q32, q_energy, runs=None):
    """Screen omegas of the windows starting at `at` against the rows of
    q32, of energies q_energy, rounded to float32. Without `runs`, every
    window against every query, (at.size, k), in one float32 matmul per
    tile; with `runs`, each window against its own query only,
    (at.size,), query j owning rows runs[j]:runs[j + 1]. Each run is
    gathered _TILE rows at a time and each window's float32 energy
    taken once. A window whose float32 energy lies outside (_SCREEN_LO,
    _SCREEN_HI) scores +inf: it may be flat, or its float32 sums may
    have underflowed or overflowed.

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
    matrix = runs is None   # one run, scored against the whole matrix
    if matrix:
        runs, queries = [0, at.size], [q32.T]
    else:
        queries = q32
    shape = (at.size, len(q32)) if matrix else at.size
    energy = np.empty(at.size, dtype=np.float32)
    dot = np.empty(shape, dtype=np.float32)
    for j, (a, b) in enumerate(zip(runs, runs[1:])):
        for lo in range(a, b, _TILE):
            s = windows[at[lo:min(lo + _TILE, b)]]
            hi = lo + len(s)
            np.vecdot(s, s, out=energy[lo:hi])
            np.matmul(s, queries[j], out=dot[lo:hi])
    sure = (energy > _SCREEN_LO) & (energy < _SCREEN_HI)
    if matrix:
        root = np.multiply.outer(energy, q_energy, dtype=np.float64)
        sure = sure[:, None]
    else:
        root = np.multiply(energy, _per_row(q_energy, runs), dtype=np.float64)
    return np.divide(dot, np.sqrt(root, out=root), out=np.full(shape, np.inf),
                     where=sure)


def _screen_shared(windows, at, bounds, q32, q_energy, rows, beta, lattice,
                   starts):
    """_screen for the rows of every query of a lockstep round: row i is
    the window starting at at[i], at offset beta[i] of its slice, and
    query j, a row of q32, owns rows bounds[j]:bounds[j + 1]; rows[i] is
    j * n + s for query j and slice s, of the n slices starting at
    `starts`.

    Only where more rows sit at the round's `lattice` beta than there
    are slices is the lattice shared: every slice's lattice window is
    then screened against every query at once, so each is gathered
    once, and the other rows are screened in one more call, each
    against its own query. Otherwise every row is screened against its
    own query in one call. A round of no more rows than slices, which
    every single search is, takes that call before the lattice mask is
    built."""
    if at.size <= starts.size:
        return _screen(windows, at, q32, q_energy, bounds)
    on_lattice = beta == lattice
    on = np.flatnonzero(on_lattice)
    if on.size <= starts.size:
        return _screen(windows, at, q32, q_energy, bounds)
    omega = np.empty(at.size)
    # the product is (n, k): row j * n + s reads its entry (s, j)
    omega[on] = _screen(windows, starts + lattice, q32,
                        q_energy).T.ravel()[rows[on]]
    off = np.flatnonzero(~on_lattice)
    if off.size:
        omega[off] = _screen(windows, at[off], q32, q_energy,
                             np.searchsorted(off, bounds).tolist())
    return omega


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

    Its rows are (query, slice) pairs in query-major order, so each
    query's rows form one run. Each round screens every comparison in
    float32 (_screen) and rescores with the kernel's float64 arithmetic
    (_omegas, then _steps), in one call over every query's run, only
    the rows the screen cannot settle: a row whose step differs
    somewhere in its screen omega ± _SCREEN_ERR, and one that could
    exceed delta, so every candidate keeps the kernel's omega. The
    latter include every window the screen cannot bound, flat ones
    among them: only the exact energy counts a window as degenerate.
    With record_trace (one query only) every row is rescored and
    nothing is screened.

    Rows on the lattice share their gathers where they outnumber the
    slices (_screen_shared), which a single query's rows never do. No
    step exceeds the top step, max(1, round(1/alpha)), which a row
    takes wherever its omega is at most 0. So a row is at beta (r - 1)
    times the top step in round r exactly when it took the top step at
    every visit: that beta is the round's lattice, where rows of
    different queries meet at the same window of a slice, in round 1
    all of them. Every row's steps, hits and counters are its
    single-query scan's, bit for bit, as the screen only decides which
    rows are rescored.

    Returns, per query, (hits, comparisons, degenerate skips, trace).
    The hits are the columns (slices, betas, omegas) of its comparisons
    above delta, in round order, each slice its index in `starts`
    (_result picks each slice's candidate). The trace lists every
    comparison as (set_id, beta, omega, clamped, step) in slice-major
    order, or is None without record_trace.
    """
    k, n = len(qs), starts.size
    rows = np.arange(k * n)     # query j's row for slice s is j * n + s
    edges = n * np.arange(k + 1)
    beta = np.zeros(rows.size, dtype=np.int64)
    at = np.tile(starts, k)     # each row's window, its slice's start + beta
    q32 = qs.astype(np.float32)
    top_step = _step_for(alpha, 0.0)
    lattice = 0     # the beta of rows that took the top step every time
    trace = [] if record_trace else None
    hits = []   # per round, the (row, beta, omega) columns above delta
    visited = []    # every round's bounds, end to end
    degenerate = np.zeros(k, dtype=np.int64)
    while rows.size:
        # query j owns rows[bounds[j]:bounds[j + 1]], each one a visit
        bounds = np.searchsorted(rows, edges).tolist()
        visited += bounds
        if record_trace:
            exact = np.arange(rows.size)
            step = np.empty(rows.size, dtype=np.int64)
        else:
            exact, step = _settle(
                _screen_shared(windows, at, bounds, q32, q_energy, rows,
                               beta, lattice, starts),
                alpha, delta)
        if exact.size:
            r, b = rows[exact], beta[exact]
            runs = np.searchsorted(exact, bounds).tolist()
            energy, omega = _omegas(windows, at[exact], runs, qs, q_energy)
            # a flat segment carries no information: it is skipped, and
            # its omega of NaN clamps to 0, the maximum step
            flat = np.flatnonzero(energy == 0.0)
            if flat.size:
                degenerate += np.diff(np.searchsorted(flat, runs))
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
        at += step
        lattice = min(lattice + top_step, LAST_OFFSET + 1)
        live = beta <= LAST_OFFSET
        if not live.all():
            # np.compress gathers by the mask's indices: indexing with
            # the mask took 1.7-1.9 times as long on 7,680-76,800 rows
            rows, beta, at = (np.compress(live, v) for v in (rows, beta, at))
    if record_trace:
        cols = [np.concatenate(c) for c in zip(*trace)]
        order = np.argsort(cols[0], kind="stable")
        trace = list(zip(*(c[order].tolist() for c in cols)))
    r, b, omega = map(np.concatenate, zip(*hits)) if hits else _NO_HITS
    j, r = np.divmod(r, n)
    visits = np.diff(np.array(visited, np.int64).reshape(-1, k + 1).sum(0))
    made, skipped = (visits - degenerate).tolist(), degenerate.tolist()
    return [((r[j == i], b[j == i], omega[j == i]), made[i], skipped[i], trace)
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


@dataclass
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
    does. It also keeps the per-slice floors (_floors) of the last delta
    it was searched with, 4 B per slice, and its count of flat windows.
    """
    # (n, 1026) int16: rfft of each scaled slice times _FIXED, rounded
    # to integers, real and imaginary parts interleaved
    spectra: np.ndarray
    # (n, 745) float16: ‖slice‖/‖window‖; 0 for a flat (all-zero)
    # window, NaN for any other window that is not kept. Stage 2 of
    # _fft_scan needs it where slices hold quiet stretches, see
    # test_stage_two_rescores_few_rows_on_a_quiet_slice_store
    ratio: np.ndarray
    flat_total: int = 0    # all-zero windows in the store
    # (delta, _floors(self, delta)) for the last delta searched; one
    # tuple, so a reader never pairs one delta with another's floors
    floor_memo: tuple | None = None

    @classmethod
    def build(cls, store: MdbStore) -> "_Spectra":
        n = store.num_slices
        w = dsp.WINDOW_LEN
        table = cls(np.empty((n, _NFFT + 2), dtype=np.int16),
                    np.empty((n, _OFFSETS), dtype=np.float16))
        slices = sliding_window_view(store.flat, SLICE_LEN)
        for lo in range(0, n, _BUILD_ROWS):
            hi = min(lo + _BUILD_ROWS, n)
            x = slices[store.slice_starts[lo:hi]]
            flat = _flat_windows(x)
            table.flat_total += int(np.count_nonzero(flat))
            cum = np.zeros((hi - lo, SLICE_LEN + 1))
            np.cumsum(np.square(x, dtype=np.float64), axis=1, out=cum[:, 1:])
            energy = cum[:, w:] - cum[:, :-w]
            norm = np.sqrt(cum[:, -1:])
            ratio = np.full(energy.shape, np.nan)
            np.divide(norm, np.sqrt(energy), out=ratio,
                      where=energy > _ENERGY_KEEP * cum[:, -1:])
            ratio[flat] = 0.0
            table.ratio[lo:hi] = ratio
            unit = np.divide(x, norm, out=np.zeros(x.shape), where=norm > 0)
            spectrum = np.fft.rfft(unit.astype(np.float32), _NFFT)
            table.spectra[lo:hi] = np.rint(spectrum.view(np.float32) * _FIXED)
        return table

    def floors(self, delta):
        """_floors(self, delta), computed once per delta in a row."""
        memo = self.floor_memo
        if memo is None or memo[0] != delta:
            memo = self.floor_memo = (delta, _floors(self, delta))
        return memo[1]


def _spectra(store: MdbStore) -> _Spectra:
    """The store's table, built on its first exhaustive search."""
    if store.scan_table is None:
        store.scan_table = _Spectra.build(store)
    return store.scan_table


def _floors(table: _Spectra, delta):
    """Per slice, a float32 floor below which no y passes the scan's
    per-offset test at any of the slice's offsets but flat ones; -inf
    for a slice with an unkept window that is not flat. The scan takes
    them through _Spectra.floors, which keeps them for the last delta.

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
    # each slice's smallest and largest ratio; min and max propagate NaN
    t = np.stack([table.ratio.min(axis=1), table.ratio.max(axis=1)],
                 axis=1).astype(np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):  # t = 0
        g = (delta - 4 * _U32 - (1 + 32 * _U32) * _error_bound(t)) / t
    exact = g.min(axis=1)
    floor = exact.astype(np.float32)
    up = floor > exact
    floor[up] = np.nextafter(floor[up], np.float32(-np.inf))
    floor[np.isnan(exact)] = -np.inf
    return floor


def _fft_scan(q, q_energy, store, delta):
    """(hits, degenerate skips) of the exhaustive scan: an FFT
    correlation per slice, then the kernel's arithmetic at every offset
    that could beat delta. The hits are the columns (slices, betas,
    omegas) of the offsets above delta.

    Stage 1, per block of slices, keeps the offsets whose correlation y
    is above their slice's floor (_floors, kept on the table for the
    last delta): no other offset could pass stage 2. It compares offset
    by offset only the rows whose largest y is above their floor, and
    skips a block that has no such row. That is exact: y is finite, so
    a row has an offset above its floor only if its maximum is.
    Stage 2, once per search, tests each survivor as
        y·t + err(t) > delta, or t is NaN (the window is not kept),
    in float32, with t its table ratio and err _error_bound: an offset
    that fails it cannot have a kernel omega above delta. A flat window
    (t = 0) fails it for any delta above err(0), about 5e-4, and is
    otherwise rescored to a NaN omega, which is not above delta. Every
    survivor is rescored with the kernel's arithmetic (_omegas).
    """
    n = store.num_slices
    table = _spectra(store)
    floor = table.floors(delta)
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
        block, f = y[:m, :_OFFSETS], floor[lo:lo + m]
        # only the rows whose maximum is above their floor can pass
        live = np.flatnonzero(block.max(axis=1) > f)
        if not live.size:
            continue
        block, f = block[live], f[live]
        # faster than a 2-D np.nonzero at a few survivors per block
        r, b = np.divmod(np.flatnonzero(block > f[:, None]), _OFFSETS)
        r = live[r]
        rows.append(lo + r)
        betas.append(b)
        ys.append(y[r, b])
    if not rows:
        return _NO_HITS, table.flat_total
    rows, betas, ys = (np.concatenate(c) for c in (rows, betas, ys))
    t = table.ratio[rows, betas].astype(np.float32)
    keep = ~(ys * t + _error_bound(t) <= delta)
    rows, betas = rows[keep], betas[keep]
    _energy, omega = _omegas(store.windows, store.slice_starts[rows] + betas,
                             [0, rows.size], [q], [q_energy])
    hit = omega > delta
    return (rows[hit], betas[hit], omega[hit]), table.flat_total


def _query(window):
    """A window's samples, peak-scaled (see the module docstring), and
    their energy."""
    q = dsp.peak_scaled(dsp.window_samples(window))
    return q, float(np.dot(q, q))


def _result(hits, used, degenerate, cfg, trace=None):
    """The SearchResult of a scan's hits, columns (slices, betas,
    omegas) of the comparisons above delta. A slice's candidate is its
    best omega at its lowest beta, the first best one the sliding scan
    visits; the top_k candidates by omega, then set_id, then beta."""
    rows, betas, omega = hits
    order = np.lexsort((betas, -omega, rows))
    # slices are non-negative, so -1 starts the first run
    first = order[np.flatnonzero(np.diff(rows[order], prepend=-1))]
    candidates = [Candidate(set_id=r, omega=w, beta=b) for r, w, b in
                  zip(rows[first].tolist(), omega[first].tolist(),
                      betas[first].tolist())]
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
    _lockstep_scan). One lockstep runs at least one window and at most
    _LOCKSTEP_ROWS (window, slice) rows, 68 windows on a 1920-slice
    store; more windows run in several. record_trace needs exactly one
    window.
    """
    queries = [_query(w) for w in windows]
    if record_trace and len(queries) != 1:
        raise ValueError("record_trace needs exactly one window")
    per = max(1, _LOCKSTEP_ROWS // store.num_slices)
    results = []
    for lo in range(0, len(queries), per):
        qs, energies = (np.array(c) for c in zip(*queries[lo:lo + per]))
        scans = _lockstep_scan(qs, energies, store.windows, store.slice_starts,
                               cfg.alpha, cfg.delta, record_trace)
        results += [_result(hits, used, degenerate, cfg, trace)
                    for hits, used, degenerate, trace in scans]
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
    hits, degenerate = _fft_scan(q, q_energy, store, cfg.delta)
    return _result(hits, store.num_slices * _OFFSETS - degenerate,
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
