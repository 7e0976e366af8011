"""The lockstep scan kernel against a plain per-slice loop.

`reference_search` below is the scan as a loop over one slice and one
offset at a time, with two np.dot calls per comparison. The kernel must
reproduce everything observable about it: candidates, counters and
the trace. Its np.vecdot runs the same dot kernel
as np.dot on each row, so omegas must agree exactly, not just within
rounding.
"""

import math

import numpy as np
import pytest

from emap import cloud_search
from emap.cloud_search import (
    LAST_OFFSET,
    SearchConfig,
    _scan_chunk,
    _step_for,
    _steps,
    exhaustive_search,
    sliding_search,
)
from emap.dsp import WINDOW_LEN, SignalWindow, window_samples
from emap.mdb import SLICE_LEN, SourceSignal, build_store

# -- the reference: one slice, one offset at a time --------------------------

def _ref_scan_slice(q, q_energy, samples, set_id, alpha, delta, exhaustive,
                    trace):
    hits = []
    comparisons = 0
    degenerate = 0
    max_step = 1 if exhaustive else _step_for(alpha, 0.0)
    beta = 0
    while beta <= LAST_OFFSET:
        seg = samples[beta:beta + WINDOW_LEN]
        energy = float(np.dot(seg, seg))
        if energy == 0.0:
            degenerate += 1
            beta += max_step
            continue
        omega = float(np.dot(q, seg)) / math.sqrt(q_energy * energy)
        comparisons += 1
        if omega > delta:
            hits.append((omega, beta))
        clamped = omega if omega > 0.0 else 0.0
        step = 1 if exhaustive else _step_for(alpha, clamped)
        if trace is not None:
            trace.append((set_id, beta, omega, clamped, step))
        beta += step
    return hits, comparisons, degenerate


def reference_search(window, store, cfg, exhaustive=False,
                     record_trace=False):
    """(candidates, comparisons, slices scanned, degenerate, trace)."""
    q = window_samples(window)
    q_energy = float(np.dot(q, q))
    trace = [] if record_trace else None
    cands = []
    comparisons = degenerate = scanned = 0
    for set_id in range(store.num_slices):
        samples = store.get_slice(set_id).samples.astype(np.float64)
        hits, comps, degen = _ref_scan_slice(
            q, q_energy, samples, set_id, cfg.alpha, cfg.delta, exhaustive,
            trace)
        scanned += 1
        comparisons += comps
        degenerate += degen
        if hits:
            omega, beta = min(hits, key=lambda h: (-h[0], h[1]))
            cands.append((set_id, omega, beta))
    cands.sort(key=lambda c: (-c[1], c[0], c[2]))
    return cands[:cfg.top_k], comparisons, scanned, degenerate, trace


def assert_same_as_reference(q, store, cfg, exhaustive=False):
    search = exhaustive_search if exhaustive else sliding_search
    got = search(q, store, cfg, record_trace=True)
    cands, comps, scanned, degen, trace = reference_search(
        q, store, cfg, exhaustive, record_trace=True)
    assert [(c.set_id, c.omega, c.beta) for c in got.candidates] == cands
    assert got.comparisons_made == comps
    assert got.slices_scanned == scanned
    assert got.degenerate_skipped == degen
    assert got.trace == trace
    return got


def eval_windows(world, n=20, seed=5):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        live = world.streams[int(rng.integers(len(world.streams)))].samples
        start = int(rng.integers(live.size - WINDOW_LEN + 1))
        out.append(SignalWindow(samples=live[start:start + WINDOW_LEN]))
    return out


# -- parity --------------------------------------------------------------------

def test_sliding_matches_reference_on_parity_corpus(parity_world):
    corpus, store = parity_world
    for q in corpus.queries:
        assert_same_as_reference(q, store, SearchConfig())


def test_exhaustive_matches_reference(parity_world):
    corpus, store = parity_world
    for q in corpus.queries[:3]:
        assert_same_as_reference(q, store, SearchConfig(), exhaustive=True)


def test_sliding_matches_reference_on_eval_world(eval_world):
    world, store = eval_world
    assert store.num_slices > cloud_search._CHUNK, "needs several chunks"
    hits = 0
    for q in eval_windows(world):
        hits += bool(assert_same_as_reference(q, store,
                                              SearchConfig()).candidates)
    assert hits > 0


def test_degenerate_slices_match_reference(tmp_path):
    rng = np.random.default_rng(3)
    x = rng.normal(0, 15, 3 * SLICE_LEN)
    x[SLICE_LEN + 100:SLICE_LEN + 700] = 0.0   # flat stretch mid-slice
    x[2 * SLICE_LEN:] = 0.0                    # a wholly flat slice
    store = build_store([SourceSignal(id=0, samples=x)], tmp_path / "s")
    q = SignalWindow(samples=x[:WINDOW_LEN])
    for exhaustive in (False, True):
        got = assert_same_as_reference(q, store, SearchConfig(), exhaustive)
        assert got.degenerate_skipped > 0


def test_equal_omegas_in_a_slice_keep_the_lower_beta(tmp_path):
    # a 50-sample period repeats the same window every 50 offsets
    period = np.random.default_rng(4).normal(0, 15, 50)
    x = np.tile(period, 2 * SLICE_LEN // 50)
    store = build_store([SourceSignal(id=0, samples=x)], tmp_path / "s")
    q = SignalWindow(samples=store.get_slice(1).samples[:WINDOW_LEN])
    for exhaustive in (False, True):
        got = assert_same_as_reference(q, store, SearchConfig(), exhaustive)
        assert [(c.set_id, c.beta, c.omega) for c in got.candidates] == \
            [(0, 0, 1.0), (1, 0, 1.0)]


def test_workers_scan_chunks_with_identical_results(eval_world):
    world, store = eval_world
    for q in eval_windows(world, n=3):
        ref = sliding_search(q, store, SearchConfig(), record_trace=True)
        got = sliding_search(q, store, SearchConfig(workers=2),
                             record_trace=True)
        for field in ("candidates", "comparisons_made", "slices_scanned",
                      "degenerate_skipped", "trace"):
            assert getattr(got, field) == getattr(ref, field)


# -- kernel properties -----------------------------------------------------------

def test_row_omega_does_not_depend_on_its_batch(eval_world):
    world, store = eval_world
    q = window_samples(eval_windows(world, n=1)[0])
    q_energy = float(np.dot(q, q))
    windows = np.lib.stride_tricks.sliding_window_view(store.flat, WINDOW_LEN)
    starts = store.slice_starts[:300]
    _c, _d, _b, _bb, batch = _scan_chunk(q, q_energy, windows, starts,
                                         0.004, 0.8, False, True)
    batch_rows = {}
    for row, beta, omega in zip(*(c.tolist() for c in batch[:3])):
        batch_rows[(row, beta)] = omega
    for row in (0, 1, 17, 150, 299):
        _c, _d, _b, _bb, alone = _scan_chunk(
            q, q_energy, windows, starts[row:row + 1], 0.004, 0.8, False,
            True)
        for beta, omega in zip(alone[1].tolist(), alone[2].tolist()):
            assert batch_rows[(row, beta)] == omega


@pytest.mark.parametrize("alpha", [0.001, 0.004, 0.02, 0.1, 0.5, 0.9])
def test_vectorised_step_equals_step_for(alpha):
    dense = np.linspace(0.0, 1.0, 200_001)
    # every omega where alpha**(omega-1) is a half-integer, and its
    # neighbouring doubles
    top = alpha ** -1.0
    halves = np.arange(1.5, top, 1.0)
    ties = 1.0 + np.log(halves) / math.log(alpha)
    near = np.concatenate([ties, np.nextafter(ties, 0.0),
                           np.nextafter(ties, 2.0)])
    near = near[(near >= 0.0) & (near <= 1.0)]
    for grid in (dense, near):
        want = [_step_for(alpha, w) for w in grid.tolist()]
        assert _steps(alpha, grid).tolist() == want


def test_trace_is_slice_major_in_beta_order(eval_world):
    world, store = eval_world
    res = sliding_search(eval_windows(world, n=1)[0], store, SearchConfig(),
                         record_trace=True)
    keys = [(t[0], t[1]) for t in res.trace]
    assert keys == sorted(keys)
    assert {t[0] for t in res.trace} == set(range(store.num_slices))
    assert all(type(v) is int for v in (keys[0][0], keys[0][1],
                                        res.trace[0][4]))
