"""Correlation search over the slice database (cloud side).

The production scan slides through each 1000-sample slice with a step
that shrinks exponentially as correlation rises, so promising regions
are combed at single-sample resolution while dissimilar ones are crossed
in jumps of up to 250 samples. The exhaustive scan at step 1 is kept as
the oracle the fast path is tested against.

Both scans are one kernel that moves a chunk of slices through their
offsets in lockstep: each round gathers every active slice's current
window from the store's flat float32 buffer, correlates them all with
the query at once and advances each slice by its own step.

Every search scans every slice in the store: chunks of slices are
scanned serially or on `workers` threads and folded in slice order, so
the result does not depend on the worker count.
"""

from __future__ import annotations

import dataclasses
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import dsp
from .mdb import SLICE_LEN, MdbStore

LAST_OFFSET = SLICE_LEN - dsp.WINDOW_LEN  # 744, scanned inclusively

_CHUNK = 1024  # slices moved in lockstep by one kernel call


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
    workers: int = 1

    def __post_init__(self):
        if not (0.0 < self.alpha < 1.0):
            raise ValueError("alpha must lie in (0, 1)")
        if not (-1.0 < self.delta < 1.0):
            raise ValueError("delta must lie in (-1, 1)")
        if self.top_k < 1:
            raise ValueError("top_k must be >= 1")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")


@dataclass
class SearchResult:
    candidates: list
    comparisons_made: int = 0
    slices_scanned: int = 0
    elapsed: float = 0.0
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


@np.errstate(invalid="ignore")  # flat segments score 0/0
def _scan_chunk(q, q_energy, windows, starts, alpha, delta, exhaustive,
                record_trace):
    """Scan the slices starting at `starts` in lockstep.

    Returns per-slice comparisons, degenerate skips, best omega above
    delta (-inf if none) and its beta (ties keep the lower beta), plus
    the trace columns (row, beta, omega, clamped, step) in slice-major
    order, or None without record_trace.
    """
    n = starts.size
    visits = np.zeros(n, dtype=np.int64)
    degenerate = np.zeros(n, dtype=np.int64)
    best = np.full(n, -np.inf)
    best_beta = np.full(n, -1, dtype=np.int64)
    rows = np.arange(n)
    beta = np.zeros(n, dtype=np.int64)
    buf = np.empty((n, dsp.WINDOW_LEN))  # one float64 copy per round, reused
    trace = [] if record_trace else None
    while rows.size:
        segs = buf[:rows.size]
        segs[...] = windows[starts[rows] + beta]
        # vecdot takes each row's dot with the same kernel as np.dot, so
        # an identical segment scores exactly 1.0 against the query
        energy = np.vecdot(segs, segs)
        visits[rows] += 1
        # a flat segment carries no information: it is skipped, and its
        # omega of NaN clamps to 0, the maximum step
        flat = energy == 0.0
        if np.count_nonzero(flat):
            degenerate[rows[flat]] += 1
        # sqrt of the product keeps an identical segment at exactly 1.0
        omega = np.vecdot(segs, q) / np.sqrt(q_energy * energy)
        hit = (omega > delta) & (omega > best[rows])
        if np.count_nonzero(hit):
            best[rows[hit]] = omega[hit]
            best_beta[rows[hit]] = beta[hit]
        # omega is clamped only after the threshold test, so a negative
        # correlation still produces the maximum step
        clamped = np.where(omega > 0.0, omega, 0.0)
        step = np.ones_like(beta) if exhaustive else _steps(alpha, clamped)
        if trace is not None:
            trace.append([c[~flat] for c in (rows, beta, omega, clamped, step)])
        beta += step
        live = beta <= LAST_OFFSET
        rows, beta = rows[live], beta[live]
    if trace is not None:
        cols = [np.concatenate(c) for c in zip(*trace)]
        order = np.argsort(cols[0], kind="stable")
        trace = [c[order] for c in cols]
    return visits - degenerate, degenerate, best, best_beta, trace


def _run_search(window, store: MdbStore, cfg: SearchConfig, exhaustive: bool,
                record_trace: bool):
    q = dsp.window_samples(window)
    q_energy = float(np.dot(q, q))
    if q_energy == 0.0:
        raise dsp.DegenerateSignalError("query window has zero energy")

    t0 = time.perf_counter()
    n = store.num_slices
    windows = sliding_window_view(store.flat, dsp.WINDOW_LEN) if n else None

    def scan(lo):
        return _scan_chunk(q, q_energy, windows,
                           store.slice_starts[lo:lo + _CHUNK], cfg.alpha,
                           cfg.delta, exhaustive, record_trace)

    chunks = range(0, n, _CHUNK)
    if cfg.workers > 1:
        with ThreadPoolExecutor(max_workers=cfg.workers) as pool:
            results = iter(list(pool.map(scan, chunks)))
    else:
        results = map(scan, chunks)
    candidates = []
    trace = [] if record_trace else None
    used = degenerate = 0
    for lo in chunks:
        comps, degen, best, best_beta, part = next(results)
        used += int(comps.sum())
        degenerate += int(degen.sum())
        candidates += [Candidate(set_id=lo + row, omega=float(best[row]),
                                 beta=int(best_beta[row]))
                       for row in np.flatnonzero(best_beta >= 0).tolist()]
        if part is not None:
            trace.extend(zip((part[0] + lo).tolist(),
                             *(c.tolist() for c in part[1:])))

    candidates.sort(key=lambda c: (-c.omega, c.set_id, c.beta))
    return SearchResult(
        candidates=candidates[:cfg.top_k],
        comparisons_made=used,
        slices_scanned=n,
        elapsed=time.perf_counter() - t0,
        degenerate_skipped=degenerate,
        trace=trace,
    )


def sliding_search(window, store: MdbStore, cfg: SearchConfig,
                   record_trace: bool = False) -> SearchResult:
    """Exponential sliding-window correlation search for the top-K
    slices matching one second of live signal.

    With record_trace=True the result carries every visited offset as
    (set_id, beta, omega, omega_clamped, step) for scan audits.
    """
    return _run_search(window, store, cfg, False, record_trace)


def exhaustive_search(window, store: MdbStore, cfg: SearchConfig,
                      record_trace: bool = False) -> SearchResult:
    """Brute-force oracle: correlate at all 745 offsets of every slice,
    with identical thresholding, deduplication and ordering."""
    return _run_search(window, store, cfg, True, record_trace)


@dataclass
class SweepRow:
    alpha: float
    mean_comparisons: float
    mean_matches: float
    mean_top100_omega: float


def alpha_sweep(windows, store: MdbStore, alphas,
                base_cfg: SearchConfig | None = None):
    """Sliding-search statistics per alpha over a set of query windows.

    mean_top100_omega pools every returned candidate's omega across the
    inputs (0.0 when nothing matched anywhere).
    """
    if not windows or not alphas:
        raise ValueError("need at least one window and one alpha")
    base = base_cfg or SearchConfig()
    rows = []
    for alpha in alphas:
        cfg = dataclasses.replace(base, alpha=alpha)
        comps = []
        matches = []
        omegas = []
        for w in windows:
            res = sliding_search(w, store, cfg)
            comps.append(res.comparisons_made)
            matches.append(len(res.candidates))
            omegas.extend(c.omega for c in res.candidates)
        rows.append(SweepRow(
            alpha=float(alpha),
            mean_comparisons=float(np.mean(comps)),
            mean_matches=float(np.mean(matches)),
            mean_top100_omega=float(np.mean(omegas)) if omegas else 0.0,
        ))
    return rows
