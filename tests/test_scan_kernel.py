"""The lockstep scan kernel and the FFT exhaustive scan against a plain
per-slice loop.

`reference_search` below is the scan as a loop over one slice and one
offset at a time, with two np.dot calls per comparison. The kernel must
reproduce everything observable about it: candidates, counters and
the trace. Its np.vecdot runs the same dot kernel
as np.dot on each row, so omegas must agree exactly, not just within
rounding. Without a trace the kernel screens in float32 and rescores
with that arithmetic, and with a trace it rescores every comparison, so
both must agree exactly, on stores at float32's edges as well. The FFT
exhaustive scan rescores its picks with that same arithmetic, so it too
must agree exactly, on hostile stores as well.
`exact_search` is the exhaustive reference vectorised over slices, for
stores where the per-offset loop would take seconds per query.
"""

import functools
import math
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emap import cloud_search
from emap.cloud_search import (
    _FIXED,
    _SCREEN_ERR,
    _SCREEN_HI,
    _SCREEN_LO,
    LAST_OFFSET,
    SearchConfig,
    _error_bound,
    _floors,
    _omegas,
    _lockstep_scan,
    _screen,
    _spectra,
    _step_for,
    _steps,
    exhaustive_search,
    sliding_search,
    sliding_search_many,
)
from emap.dsp import WINDOW_LEN, SignalWindow, peak_scaled, window_samples
from emap.mdb import SLICE_LEN, MdbStore, SourceSignal, build_store

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
    """(candidates, comparisons, degenerate, trace)."""
    q = window_samples(window)
    q_energy = float(np.dot(q, q))
    trace = [] if record_trace else None
    cands = []
    comparisons = degenerate = 0
    for set_id in range(store.num_slices):
        samples = store.get_slice(set_id).samples.astype(np.float64)
        hits, comps, degen = _ref_scan_slice(
            q, q_energy, samples, set_id, cfg.alpha, cfg.delta, exhaustive,
            trace)
        comparisons += comps
        degenerate += degen
        if hits:
            omega, beta = min(hits, key=lambda h: (-h[0], h[1]))
            cands.append((set_id, omega, beta))
    cands.sort(key=lambda c: (-c[1], c[0], c[2]))
    return cands[:cfg.top_k], comparisons, degenerate, trace


def exact_omegas(window, store, rows=16):
    """(energy, omega), each (slices, 745): the reference's arithmetic at
    every offset of every slice, `rows` slices at a time. np.vecdot
    takes each dot with np.dot's kernel, so these are the per-offset
    loop's values bit for bit."""
    q = window_samples(window)
    q_energy = float(np.dot(q, q))
    windows = np.lib.stride_tricks.sliding_window_view(store.flat,
                                                       WINDOW_LEN)
    offsets = np.arange(LAST_OFFSET + 1)
    energy = np.empty((store.num_slices, offsets.size))
    omega = np.empty_like(energy)
    for lo in range(0, store.num_slices, rows):
        segs = windows[store.slice_starts[lo:lo + rows, None]
                       + offsets].astype(np.float64)
        e = energy[lo:lo + rows] = np.vecdot(segs, segs)
        with np.errstate(invalid="ignore"):   # flat windows score 0/0
            omega[lo:lo + rows] = np.vecdot(segs, q) / np.sqrt(q_energy * e)
    return energy, omega


def exact_search(window, store, cfg, exhaustive=True, record_trace=False):
    """reference_search's exhaustive result, without a trace, from
    exact_omegas."""
    assert exhaustive and not record_trace
    energy, omega = exact_omegas(window, store)
    hit = omega > cfg.delta
    cands = []
    for set_id in np.flatnonzero(hit.any(axis=1)).tolist():
        # argmax keeps the first, lowest, beta among equal omegas
        beta = int(np.argmax(np.where(hit[set_id], omega[set_id], -np.inf)))
        cands.append((set_id, float(omega[set_id, beta]), beta))
    cands.sort(key=lambda c: (-c[1], c[0], c[2]))
    flat = int(np.count_nonzero(energy == 0.0))
    return cands[:cfg.top_k], energy.size - flat, flat, None


def assert_same_as_reference(q, store, cfg, exhaustive=False,
                             reference=reference_search):
    """The scan against `reference`: same candidates bit for bit, same
    counters, and for the sliding scan the same trace, and the same
    candidates and counters again without a trace (the screened path)."""
    if exhaustive:
        runs = [exhaustive_search(q, store, cfg)]
    else:
        runs = [sliding_search(q, store, cfg, record_trace=True),
                sliding_search(q, store, cfg)]
    cands, comps, degen, trace = reference(
        q, store, cfg, exhaustive, record_trace=not exhaustive)
    for got in runs:
        assert [(c.set_id, c.omega, c.beta) for c in got.candidates] == cands
        assert got.comparisons_made == comps
        assert got.degenerate_skipped == degen
    assert runs[0].trace == trace
    assert runs[-1].trace is None
    return runs[0]


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


# -- kernel properties -----------------------------------------------------------

def test_row_omega_does_not_depend_on_its_batch(eval_world):
    world, store = eval_world
    q = window_samples(eval_windows(world, n=1)[0])
    q_energy = float(np.dot(q, q))
    windows = np.lib.stride_tricks.sliding_window_view(store.flat, WINDOW_LEN)
    starts = store.slice_starts[:300]
    [(*_, batch)] = _lockstep_scan(q[None], np.array([q_energy]), windows,
                                   starts, 0.004, 0.8, True)
    batch_rows = {(row, beta): omega for row, beta, omega, *_ in batch}
    for row in (0, 1, 17, 150, 299):
        [(*_, alone)] = _lockstep_scan(q[None], np.array([q_energy]),
                                       windows, starts[row:row + 1], 0.004,
                                       0.8, True)
        for _row, beta, omega, *_ in alone:
            assert batch_rows[(row, beta)] == omega


def test_sliding_search_memory_is_linear_in_slices(eval_world):
    # one round holds O(slices) index, step and omega vectors plus one
    # _TILE-row tile widened to float64 (512 KiB); gathering every
    # slice's window at once would take 1920 x 256 x 4 B, about 1.9 MB
    world, store = eval_world
    q = eval_windows(world, n=1)[0]
    tracemalloc.start()
    try:
        sliding_search(q, store, SearchConfig())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert store.num_slices == 1920
    assert peak < 1 << 20


def test_smallest_alpha_scans_like_the_reference(parity_world):
    # the largest step, 2**62, still fits int64 beside any offset
    corpus, store = parity_world
    for q in corpus.queries[:3]:
        assert_same_as_reference(q, store, SearchConfig(alpha=2.0 ** -62))


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


# -- the float32 screen ---------------------------------------------------------

def rescored_windows(q, store, cfg):
    """Positions in store.flat of the windows an untraced sliding search
    rescores in float64."""
    seen = []
    omegas = cloud_search._omegas

    def spy(windows, at, q, q_energy):
        seen.extend(at.tolist())
        return omegas(windows, at, q, q_energy)

    cloud_search._omegas = spy
    try:
        sliding_search(q, store, cfg)
    finally:
        cloud_search._omegas = omegas
    return set(seen)


@st.composite
def screen_world(draw):
    """Small signals with runs that take float32 to its edges: windows
    scaled by 1e-20 (float32 energies below the screen's range, some
    squares subnormal), by 1e19 (float32 energies that overflow) and by
    1e-40 (float32 subnormal samples), zero runs and constant runs, some
    at a slice start, where every scan looks; plus a query cut from the
    signals or made of noise, with noise mixed in so omegas spread."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    signals = []
    for sid in range(draw(st.integers(1, 3))):
        n = SLICE_LEN * draw(st.integers(1, 3)) + draw(st.integers(0, 300))
        x = rng.normal(0, 15, n)
        for fill in draw(st.lists(st.sampled_from(
                ["zero", "constant", 1e-20, 1e19, 1e-40]), max_size=4)):
            run = draw(st.integers(1, 3 * WINDOW_LEN))
            at = draw(st.one_of(
                st.integers(0, n - 1),
                st.integers(0, n // SLICE_LEN - 1).map(SLICE_LEN.__mul__)))
            if fill == "zero":
                x[at:at + run] = 0.0
            elif fill == "constant":
                x[at:at + run] = draw(st.sampled_from([-7.5, 1e-20, 1e19]))
            else:
                x[at:at + run] *= fill
        # two loud runs may overlap; 1e38 is within float32's range
        signals.append(SourceSignal(id=sid, samples=np.clip(x, -1e38, 1e38)))
    if draw(st.booleans()):
        sid = draw(st.integers(0, len(signals) - 1))
        at = draw(st.integers(0, signals[sid].samples.size - WINDOW_LEN))
        q = signals[sid].samples[at:at + WINDOW_LEN].astype(np.float32)
        q = q.astype(np.float64)
    else:
        q = rng.normal(0, 15, WINDOW_LEN)
    peak = np.max(np.abs(q))
    q = q + draw(st.sampled_from([0.0, 0.05, 0.5])) * peak * rng.normal(
        0, 1, WINDOW_LEN)
    if not q.any():
        q = rng.normal(0, 15, WINDOW_LEN)
    return signals, q


def offset_zero_omegas(q, store):
    """The reference's (energy, omega) at offset 0 of every slice."""
    q = window_samples(q)
    q_energy = float(np.dot(q, q))
    out = []
    for set_id in range(store.num_slices):
        seg = store.get_slice(set_id).samples[:WINDOW_LEN].astype(np.float64)
        energy = float(np.dot(seg, seg))
        omega = (float(np.dot(q, seg)) / math.sqrt(q_energy * energy)
                 if energy else math.nan)
        out.append((energy, omega))
    return out


@settings(max_examples=60, deadline=None)
@given(world=screen_world(), data=st.data())
def test_screened_scan_matches_reference_at_float32_edges(world, data):
    """Trace on and off against the reference, with delta or a step
    boundary put within the screen's bound of an offset-0 omega, and the
    windows that the screen cannot settle shown to be rescored."""
    signals, q = world
    q = SignalWindow(samples=q)
    with tempfile.TemporaryDirectory() as root:
        store = build_store(signals, root)
        at_zero = offset_zero_omegas(q, store)
        targets = [w for _e, w in at_zero if not math.isnan(w)]
        alpha = data.draw(st.sampled_from([0.001, 0.004, 0.1]))
        delta = data.draw(st.sampled_from([-0.5, 0.8, 0.99]))
        near = None        # (what, omega) within the bound of a target
        if targets:
            target = data.draw(st.sampled_from(targets))
            shift = data.draw(st.floats(-_SCREEN_ERR / 2, _SCREEN_ERR / 2))
            if data.draw(st.booleans()):
                delta = min(max(target + shift, -0.999999), 0.999999)
                near = ("delta", delta)
            elif 0.0 < target + shift < 1.0:
                # alpha**(w - 1) is the half-integer k + 0.5 at w =
                # target + shift: a step boundary
                k = data.draw(st.integers(1, 300))
                boundary = target + shift
                a = (k + 0.5) ** (1.0 / (boundary - 1.0))
                if 2.0 ** -62 <= a < 1.0:
                    alpha = a
                    near = ("step", boundary)
        cfg = SearchConfig(alpha=alpha, delta=delta,
                           top_k=data.draw(st.sampled_from([1, 100])))
        assert_same_as_reference(q, store, cfg)
        rescored = rescored_windows(q, store, cfg)
        for set_id, (energy, omega) in enumerate(at_zero):
            start = int(store.slice_starts[set_id])
            # flat, or clearly outside the float32 screen's range
            outside = not (4 * _SCREEN_LO < energy < _SCREEN_HI / 4)
            settles_nothing = near is not None and \
                abs(omega - near[1]) <= _SCREEN_ERR / 4
            if outside or settles_nothing:
                assert start in rescored, (set_id, energy, omega, near)


def test_screen_sends_float32_edge_windows_to_rescoring(tmp_path):
    """One slice per float32 edge, each scanned at offset 0: its window
    is rescored, and the scan agrees with the reference."""
    rng = np.random.default_rng(8)
    x = rng.normal(0, 15, 6 * SLICE_LEN)
    x[:SLICE_LEN] *= 1e-20                         # energy below the range
    x[SLICE_LEN:2 * SLICE_LEN] *= 1e19             # float32 energy overflows
    x[2 * SLICE_LEN:3 * SLICE_LEN] *= 1e-40        # float32 subnormals
    x[3 * SLICE_LEN:4 * SLICE_LEN] = 0.0           # flat
    store = build_store([SourceSignal(id=0, samples=x)], tmp_path / "s")
    q = SignalWindow(samples=store.get_slice(5).samples[:WINDOW_LEN])
    got = assert_same_as_reference(q, store, SearchConfig())
    assert got.degenerate_skipped > 0
    rescored = rescored_windows(q, store, SearchConfig())
    assert {0, 1000, 2000, 3000} <= rescored
    # the self-match at slice 5 is above delta: rescored, and exactly 1.0
    assert 5000 in rescored
    assert got.candidates[0].omega == 1.0


def test_screen_error_stays_inside_its_bound():
    """|screen omega - kernel omega| <= _SCREEN_ERR on adversarial rows:
    the query equal to the row, its negation, the row with half its
    signs flipped (omega near 0 from large terms), and rows whose
    samples span 2^-60 to 2^40. Each query is screened alone and in a
    4-query matrix, whose columns must each keep the bound."""
    rng = np.random.default_rng(9)
    rows = [rng.normal(0, 15, WINDOW_LEN) for _ in range(4)]
    for lo, hi in ((-60, 40), (-30, 30), (-10, 35)):
        mags = 2.0 ** rng.uniform(lo, hi, WINDOW_LEN)
        rows.append(mags * rng.choice([-1.0, 1.0], WINDOW_LEN))
    spike = np.full(WINDOW_LEN, 1e-6)
    spike[17] = 1e6
    rows += [spike, np.full(WINDOW_LEN, 3.0), np.tile([1e9, -1e9], 128),
             rng.normal(0, 15, WINDOW_LEN) * 1e12]
    flat = np.concatenate(rows).astype(np.float32)
    windows = np.lib.stride_tricks.sliding_window_view(flat, WINDOW_LEN)
    at = np.arange(len(rows)) * WINDOW_LEN
    queries = []
    for s in rows:
        s = s.astype(np.float32).astype(np.float64)
        flips = rng.permutation(np.repeat([-1.0, 1.0], WINDOW_LEN // 2))
        queries += [s, -s, s * flips, s + rng.normal(0, 1, WINDOW_LEN)
                    * np.abs(s)]
    queries = np.array([peak_scaled(q) for q in queries])
    q_energy = np.vecdot(queries, queries)
    q32 = queries.astype(np.float32)
    for lo in range(0, len(queries), 4):
        matrix = _screen(windows, at, q32[lo:lo + 4], q_energy[lo:lo + 4])
        assert matrix.shape == (at.size, 4)
        for j in range(lo, lo + 4):
            alone = _screen(windows, at, q32[j:j + 1], q_energy[j:j + 1])
            _energy, exact = _omegas(windows, at, queries[j], q_energy[j])
            for screen in (alone[:, 0], matrix[:, j - lo]):
                assert np.isfinite(screen).all()
                assert np.all(np.abs(screen - exact) <= _SCREEN_ERR)


# -- the FFT exhaustive scan ----------------------------------------------------

@st.composite
def hostile_world(draw):
    """A small store with zero runs of at least one window, windows
    scaled by 1e-30 beside a loud burst, slices that repeat one segment
    and signals near either end of float32's range, plus a query cut
    where those are."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    signals, spots = [], []
    for sid in range(draw(st.integers(1, 3))):
        n = SLICE_LEN * draw(st.integers(1, 3)) + draw(st.integers(0, 300))
        x = rng.normal(0, 15, n)
        if draw(st.booleans()):
            run = draw(st.integers(WINDOW_LEN, min(n, 3 * WINDOW_LEN)))
            at = draw(st.integers(0, n - run))
            x[at:at + run] = 0.0
            spots += [(sid, max(0, at - WINDOW_LEN // 2)), (sid, at + run)]
        if draw(st.booleans()):
            # at 1e20 the quiet samples underflow float32 once the slice
            # is scaled to unit norm
            at = draw(st.integers(0, n - 2 * WINDOW_LEN))
            x[at:at + WINDOW_LEN] *= 1e-30
            x[at + WINDOW_LEN:at + 2 * WINDOW_LEN] *= draw(
                st.sampled_from([1e6, 1e20]))
            spots += [(sid, at), (sid, at + WINDOW_LEN // 2)]
        if draw(st.booleans()):
            at = SLICE_LEN * draw(st.integers(0, n // SLICE_LEN - 1))
            period = draw(st.integers(8, 120))
            x[at:at + SLICE_LEN] = np.resize(rng.normal(0, 15, period),
                                             SLICE_LEN)
            spots += [(sid, at), (sid, at + draw(st.integers(0, 200)))]
        # near the ends of float32's range; 1e38 is within it
        gain = draw(st.sampled_from([1.0, 1e-36, 1e30]))
        signals.append(SourceSignal(id=sid,
                                    samples=np.clip(x * gain, -1e38, 1e38)))
        spots.append((sid, draw(st.integers(0, n - WINDOW_LEN))))
    sid, at = draw(st.sampled_from(spots))
    at = min(at, signals[sid].samples.size - WINDOW_LEN)
    # float32 as the store holds it, then scaled as a live window may be
    q = signals[sid].samples[at:at + WINDOW_LEN].astype(np.float32)
    q = q.astype(np.float64) * draw(st.sampled_from([1.0, 1e-30, 3e25]))
    if not q.any():
        q = rng.normal(0, 15, WINDOW_LEN)
    return signals, q


@settings(max_examples=60, deadline=None)
@given(world=hostile_world(),
       delta=st.one_of(st.sampled_from([-0.999999, -0.99, 0.0, 0.99,
                                        0.999999]),
                       st.floats(-0.999, 0.999)),
       top_k=st.sampled_from([1, 3, 100]))
def test_fft_scan_matches_reference_on_hostile_stores(world, delta, top_k):
    signals, q = world
    with tempfile.TemporaryDirectory() as root:
        store = build_store(signals, root)
        assert_same_as_reference(SignalWindow(samples=q), store,
                                 SearchConfig(delta=delta, top_k=top_k),
                                 exhaustive=True)


def test_fft_scan_matches_kernel_on_the_worlds(parity_world, eval_world):
    # the kernel's arithmetic at every offset, vectorised over slices
    corpus, store = parity_world
    for q in corpus.queries:
        assert_same_as_reference(q, store, SearchConfig(), exhaustive=True,
                                 reference=exact_search)
    world, store = eval_world
    for q in eval_windows(world, n=1):
        assert_same_as_reference(q, store, SearchConfig(), exhaustive=True,
                                 reference=exact_search)


def test_query_scale_changes_neither_scan(parity_world):
    """A power-of-two scale is exact, so both scans give the unscaled
    query's result bit for bit, out to scales whose energy products
    would leave float64. Other scales round the samples: the picks
    stay, the omegas move by rounding."""
    corpus, store = parity_world
    q = window_samples(corpus.queries[0])
    cfg = SearchConfig()
    for search in (functools.partial(sliding_search, record_trace=True),
                   exhaustive_search):
        want = search(q, store, cfg)
        assert want.candidates
        for k in (-560, -300, 300, 520):
            got = search(q * 2.0 ** k, store, cfg)
            assert got == want
        for scale in (1e150, 1e-170):
            got = search(q * scale, store, cfg).candidates
            assert [(c.set_id, c.beta) for c in got] == \
                [(c.set_id, c.beta) for c in want.candidates]
            assert max(abs(g.omega - w.omega)
                       for g, w in zip(got, want.candidates)) <= 1e-12


def test_spectra_are_built_on_the_first_exhaustive_search(tmp_path,
                                                          parity_world):
    corpus, _store = parity_world
    build_store(corpus.store_signals, tmp_path / "s")
    store = MdbStore.load(tmp_path / "s")
    assert store.scan_table is None
    sliding_search(corpus.queries[0], store, SearchConfig())
    assert store.scan_table is None
    exhaustive_search(corpus.queries[0], store, SearchConfig())
    table = store.scan_table
    exhaustive_search(corpus.queries[1], store, SearchConfig())
    assert store.scan_table is table
    # about 3.5 KB per slice
    size = sum(a.nbytes for a in vars(table).values())
    assert size < 3600 * store.num_slices


def fft_correlation(window, table):
    """y at every offset: the query's and each slice's unit-norm float32
    correlation from the table's spectra, as the FFT scan forms it: the
    int16 spectra widened to float32, the table's scale taken out of
    the query's spectrum."""
    q = window_samples(window)
    unit = (q / math.sqrt(np.dot(q, q))).astype(np.float32)
    spectra = table.spectra.astype(np.float32).view(np.complex64)
    query = np.conj(np.fft.rfft(unit, 1024)) / _FIXED
    return np.fft.irfft(spectra * query, 1024)[:, :LAST_OFFSET + 1]


def test_fixed_point_spectra_fit_int16_at_their_extremes(tmp_path):
    """A unit slice has |X_k| <= sqrt(1000), so its spectrum times 2^10
    fits int16; a constant slice (bin 0) and an alternating one (bin
    512) reach that bound. The scan matches the reference on them, on a
    noise slice and on a zero slice that holds one spike."""
    noise = np.random.default_rng(8).normal(0, 15, SLICE_LEN)
    spike = np.zeros(SLICE_LEN)
    spike[400] = 3.0
    x = np.concatenate([np.full(SLICE_LEN, 2.0),
                        np.resize([1.0, -1.0], SLICE_LEN), noise, spike])
    store = build_store([SourceSignal(id=0, samples=x)], tmp_path / "s")
    table = _spectra(store)
    assert table.spectra.dtype == np.int16
    peak = np.abs(table.spectra.astype(np.int32)).max(axis=1)
    assert peak.max() <= 32767
    assert peak[0] == peak[1] == round(math.sqrt(SLICE_LEN) * _FIXED)
    for at in (0, 1000, 2100, 3300):
        q = SignalWindow(samples=x[at:at + WINDOW_LEN])
        for delta in (0.8, 0.0, -0.5):
            assert_same_as_reference(q, store, SearchConfig(delta=delta),
                                     exhaustive=True)


def test_error_bound_holds_at_every_offset(parity_world):
    """The derived bound against the FFT omega's measured error, at every
    kept offset of the parity store."""
    corpus, store = parity_world
    table = _spectra(store)
    bound = _error_bound(table.ratio.astype(np.float32))
    for q in corpus.queries[:3]:
        _energy, exact = exact_omegas(q, store)
        err = np.abs(fft_correlation(q, table) * table.ratio - exact)
        kept = ~np.isnan(table.ratio)
        assert kept.all()
        assert np.all(err[kept] <= bound[kept])


@pytest.fixture(scope="module")
def flat_run_store(tmp_path_factory):
    """(store, queries): twelve noise slices. Slices 0, 1, 2 and 4 hold
    zero runs of at least one window, slice 6 is all zero, and slice 8's
    zero run holds a 1e-30 sample, so its windows there are unkept but
    not flat. The queries are windows of the store, some partly zero."""
    x = np.random.default_rng(5).normal(0, 15, 12 * SLICE_LEN)
    for at, run in ((300, 300), (1000, 256), (2744, 256), (4100, 600),
                    (6000, 1000), (8200, 300)):
        x[at:at + run] = 0.0
    x[8350] = 1e-30
    store = build_store([SourceSignal(id=0, samples=x)],
                        tmp_path_factory.mktemp("flat") / "store")
    queries = [SignalWindow(samples=x[at:at + WINDOW_LEN])
               for at in (0, 250, 1100, 4050, 8100)]
    return store, queries


@pytest.mark.parametrize("delta", [-0.999999, -0.5, 0.0, 0.5, 0.8,
                                   0.999999])
def test_floor_is_sound_for_every_delta(parity_world, flat_run_store, delta):
    """Each slice's floor is at most f(t) = (delta - err(t))/t, taken in
    float64, at every offset of the slice, and every offset that the
    per-offset float32 test keeps is above its slice's floor, so the
    scan's first stage drops nothing its second would keep.

    On a store with flat windows (ratio 0) and unkept ones (NaN), the
    bound holds at every offset with a positive ratio, and every offset
    whose kernel omega exceeds delta is above its slice's floor."""
    corpus, store = parity_world
    table = _spectra(store)
    floor = np.broadcast_to(_floors(table, delta)[:, None], table.ratio.shape)
    t = table.ratio.astype(np.float64)
    assert np.all(floor <= (delta - _error_bound(t)) / t)
    t = table.ratio.astype(np.float32)
    for q in corpus.queries[:3]:
        y = fft_correlation(q, table)
        kept = ~(y * t + _error_bound(t) <= delta)
        assert kept.any()
        assert np.all(y[kept] > floor[kept])

    store, queries = flat_run_store
    table = _spectra(store)
    floor = np.broadcast_to(_floors(table, delta)[:, None], table.ratio.shape)
    t = table.ratio.astype(np.float64)
    positive = t > 0
    with np.errstate(divide="ignore", invalid="ignore"):   # t = 0
        f = (delta - _error_bound(t)) / t
    assert np.all(floor[positive] <= f[positive])
    for q in queries:
        _energy, exact = exact_omegas(q, store)
        over = exact > delta
        assert over.any()
        assert np.all(fft_correlation(q, table)[over] > floor[over])


def test_a_slice_whose_only_unkept_windows_are_flat_has_a_finite_floor(
        flat_run_store):
    """Flat windows have ratio 0 in the table, so they leave their
    slice's floor finite above err(0); a window that is unkept but not
    flat still leaves it at -inf. Both scans match the reference there,
    with delta above and below err(0), where flat windows are rescored
    to a NaN omega."""
    store, queries = flat_run_store
    table = _spectra(store)
    assert np.flatnonzero(table.flat).tolist() == [0, 1, 2, 4, 6]
    floor = _floors(table, 0.8)
    assert np.isfinite(floor[[0, 1, 2, 4]]).all()
    assert np.isneginf(floor[8])
    for delta in (1e-4, 0.8):
        for q in queries:
            cfg = SearchConfig(delta=delta)
            assert_same_as_reference(q, store, cfg, exhaustive=True)
            assert_same_as_reference(q, store, cfg)


# -- many queries in one lockstep -------------------------------------------------

def assert_many_is_single(windows, store, cfg):
    """sliding_search_many against one sliding_search per window: the
    results are equal."""
    many = sliding_search_many(windows, store, cfg)
    assert len(many) == len(windows)
    for got, w in zip(many, windows):
        want = sliding_search(w, store, cfg)
        assert got == want
    return many


def nonzero_windows(store):
    """(set_id, first window) of every slice whose first window is not
    all zeros."""
    return [(set_id, store.get_slice(set_id).samples[:WINDOW_LEN])
            for set_id in range(store.num_slices)
            if store.get_slice(set_id).samples[:WINDOW_LEN].any()]


# alpha 0.9 has top step 1, where every row stays on the lattice;
# alpha 0.001 has top step 1000, past the last offset, so the lattice
# is beta 0 alone
@settings(max_examples=30, deadline=None)
@given(data=st.data(), alpha=st.sampled_from([0.9, 0.001, 0.004]),
       delta=st.sampled_from([0.5, 0.8]))
def test_many_queries_scan_as_one_query_each(flat_run_store, data, alpha,
                                             delta):
    """Batches of 1 to 6 windows, repeats among them, on a random noise
    store or on one with zero runs: each window cut from a stored slice
    finds that slice at beta 0 with omega exactly 1.0."""
    with tempfile.TemporaryDirectory() as root:
        if data.draw(st.booleans(), label="random store"):
            rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
            store = build_store(
                [SourceSignal(id=sid, samples=rng.normal(
                    0, 15, SLICE_LEN * int(rng.integers(1, 4))
                    + int(rng.integers(0, 300))))
                 for sid in range(int(rng.integers(1, 4)))], root)
        else:
            store = flat_run_store[0]
            rng = np.random.default_rng(data.draw(st.integers(0, 99)))
        own = nonzero_windows(store)
        at = rng.integers(0, store.flat.size - WINDOW_LEN + 1, 2)
        pool = ([("slice", set_id, x) for set_id, x in own[:3]]
                + [("offset", None, store.flat[a:a + WINDOW_LEN])
                   for a in at if store.flat[a:a + WINDOW_LEN].any()]
                + [("noise", None, rng.normal(0, 15, WINDOW_LEN))])
        batch = data.draw(st.lists(st.sampled_from(pool), min_size=1,
                                   max_size=6))
        cfg = SearchConfig(alpha=alpha, delta=delta)
        many = assert_many_is_single(
            [SignalWindow(samples=x) for _kind, _sid, x in batch], store, cfg)
        for (kind, set_id, _x), res in zip(batch, many):
            if kind == "slice":
                assert (set_id, 1.0, 0) in [
                    (c.set_id, c.omega, c.beta) for c in res.candidates]


def test_many_queries_above_the_row_cap(eval_world):
    """A batch larger than one lockstep holds, on the eval store: stream
    openings (which every stream sends first and all share beta 0 of
    every slice), random windows, repeats, and self-matches."""
    world, store = eval_world
    per_lockstep = cloud_search._LOCKSTEP_ROWS // store.num_slices
    openings = [SignalWindow(samples=s.samples[:WINDOW_LEN])
                for s in world.streams[:8]]
    own = [SignalWindow(samples=x)
           for _sid, x in nonzero_windows(store)[500:503]]
    batch = openings + eval_windows(world, n=8) + own + openings[:3]
    assert len(batch) > 2 * per_lockstep
    many = assert_many_is_single(batch, store, SearchConfig())
    assert [res.candidates[0].omega for res in many[16:19]] == [1.0] * 3
    assert sliding_search_many([], store, SearchConfig()) == []
    with pytest.raises(ValueError, match="exactly one window"):
        sliding_search_many(openings[:2], store, SearchConfig(),
                            record_trace=True)
