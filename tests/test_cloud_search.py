"""Correlation search against the exhaustive oracle and its own contract."""

import math
import re

import numpy as np
import pytest

from emap import cloud_search
from emap.cloud_search import (
    LAST_OFFSET,
    SearchConfig,
    _step_for,
    alpha_sweep,
    exhaustive_search,
    sliding_search,
    sliding_search_many,
)
from emap.dsp import DegenerateSignalError, SignalWindow, WINDOW_LEN, xcorr
from emap.mdb import SLICE_LEN, SourceSignal, build_store


def single_slice_store(tmp_path, seed=0, n=SLICE_LEN):
    rng = np.random.default_rng(seed)
    sig = SourceSignal(id=0, samples=rng.normal(0, 15, n),
                       anomaly_spans=[], dataset_tag="unit")
    return build_store([sig], tmp_path / "store")


def window_of(store, set_id, offset=0):
    s = store.get_slice(set_id).samples[offset:offset + WINDOW_LEN]
    return SignalWindow(samples=s, timestep_index=0)


def test_scan_covers_all_745_offsets(tmp_path):
    store = single_slice_store(tmp_path)
    res = exhaustive_search(window_of(store, 0), store, SearchConfig())
    assert LAST_OFFSET == 744
    assert res.comparisons_made == 745


def test_planted_window_scores_exactly_one(parity_world):
    corpus, store = parity_world
    q = window_of(store, 5)
    for search in (sliding_search, exhaustive_search):
        res = search(q, store, SearchConfig())
        top = res.candidates[0]
        assert top.set_id == 5
        assert top.omega == 1.0
        assert top.beta == 0


def test_step_schedule_endpoints():
    # alpha 0.004: total dissimilarity jumps 250 samples, a perfect
    # match crawls at 1
    assert _step_for(0.004, 0.0) == 250
    assert _step_for(0.004, 1.0) == 1
    assert _step_for(0.5, 0.0) == 2
    for w in np.linspace(0.0, 1.0, 21):
        s = _step_for(0.004, float(w))
        assert 1 <= s <= 250


def test_trace_matches_step_formula(parity_world):
    corpus, store = parity_world
    res = sliding_search(corpus.queries[0], store, SearchConfig(),
                         record_trace=True)
    assert res.trace, "trace recording requested but empty"
    zeros = ones = 0
    for set_id, beta, omega, clamped, step in res.trace:
        assert clamped == (omega if omega > 0.0 else 0.0)
        assert step == _step_for(0.004, clamped)
        if clamped == 0.0:
            zeros += 1
            assert step == 250
        if omega >= 0.999:
            ones += 1
            assert step == 1
    assert zeros > 0 and ones > 0


def test_candidates_sorted_and_unique_per_slice(parity_world):
    corpus, store = parity_world
    for q in corpus.queries[:5]:
        res = sliding_search(q, store, SearchConfig())
        omegas = [c.omega for c in res.candidates]
        assert omegas == sorted(omegas, reverse=True)
        ids = [c.set_id for c in res.candidates]
        assert len(ids) == len(set(ids)), "one candidate per slice at most"
        assert len(res.candidates) <= 100
        for c in res.candidates:
            assert c.omega > 0.8
            assert 0 <= c.beta <= LAST_OFFSET


def test_tie_break_prefers_lower_set_id(tmp_path):
    rng = np.random.default_rng(21)
    base = rng.normal(0, 15, SLICE_LEN)
    # two byte-identical parents: identical omegas at every offset
    signals = [SourceSignal(id=i, samples=base.copy(), anomaly_spans=[],
                            dataset_tag="twins") for i in range(2)]
    store = build_store(signals, tmp_path / "store")
    res = sliding_search(window_of(store, 0), store, SearchConfig(top_k=100))
    assert [c.set_id for c in res.candidates[:2]] == [0, 1]
    assert res.candidates[0].omega == res.candidates[1].omega == 1.0


def test_top_k_truncation(parity_world):
    corpus, store = parity_world
    res = sliding_search(corpus.queries[0], store, SearchConfig(top_k=3))
    assert len(res.candidates) == 3
    full = sliding_search(corpus.queries[0], store, SearchConfig(top_k=100))
    assert [c.set_id for c in res.candidates] == \
        [c.set_id for c in full.candidates[:3]]


def test_soundness_reevaluation(parity_world):
    corpus, store = parity_world
    for q in corpus.queries[:5]:
        for search in (sliding_search, exhaustive_search):
            res = search(q, store, SearchConfig())
            for c in res.candidates:
                seg = store.get_slice(c.set_id).samples[c.beta:c.beta + WINDOW_LEN]
                assert abs(xcorr(q.samples, seg) - c.omega) < 1e-9


def test_exhaustive_dominates_and_agrees_on_shared_offsets(parity_world):
    corpus, store = parity_world
    everything = SearchConfig(top_k=store.num_slices)
    for q in corpus.queries[:5]:
        fast = sliding_search(q, store, SearchConfig())
        oracle = {c.set_id: c for c in exhaustive_search(q, store,
                                                         everything).candidates}
        x = q.samples
        for c in fast.candidates:
            # the sliding scan saw a subset of the oracle's offsets and
            # computed the per-offset correlation there, bit for bit
            seg = store.get_slice(c.set_id).samples[c.beta:c.beta + WINDOW_LEN]
            seg = seg.astype(np.float64)
            assert c.omega == float(np.dot(x, seg)) / math.sqrt(
                float(np.dot(x, x)) * float(np.dot(seg, seg)))
            best = oracle[c.set_id]
            assert best.omega >= c.omega
            if best.beta == c.beta:
                assert best.omega == c.omega


def test_raising_delta_never_adds_candidates(parity_world):
    corpus, store = parity_world
    q = corpus.queries[1]
    loose = sliding_search(q, store, SearchConfig(delta=0.8))
    tight = sliding_search(q, store, SearchConfig(delta=0.95))
    loose_ids = {c.set_id for c in loose.candidates}
    tight_ids = {c.set_id for c in tight.candidates}
    assert tight_ids <= loose_ids
    assert len(tight.candidates) <= len(loose.candidates)


def test_degenerate_slices_are_skipped_not_fatal(tmp_path):
    rng = np.random.default_rng(22)
    sig_ok = SourceSignal(id=0, samples=rng.normal(0, 15, SLICE_LEN),
                          anomaly_spans=[], dataset_tag="unit")
    sig_flat = SourceSignal(id=1, samples=np.zeros(SLICE_LEN),
                            anomaly_spans=[], dataset_tag="unit")
    store = build_store([sig_ok, sig_flat], tmp_path / "store")
    res = sliding_search(window_of(store, 0), store, SearchConfig())
    assert res.degenerate_skipped > 0
    assert all(c.set_id != 1 for c in res.candidates)


def test_zero_energy_query_raises(tmp_path):
    store = single_slice_store(tmp_path)
    q = SignalWindow(samples=np.zeros(WINDOW_LEN), timestep_index=0)
    for search in (sliding_search, exhaustive_search):
        with pytest.raises(DegenerateSignalError):
            search(q, store, SearchConfig())


def test_search_config_validation():
    with pytest.raises(ValueError):
        SearchConfig(alpha=0.0)
    with pytest.raises(ValueError):
        SearchConfig(alpha=1.0)
    # below 2**-62 the largest step, 1/alpha, would not fit int64
    SearchConfig(alpha=2.0 ** -62)
    for alpha in (np.nextafter(2.0 ** -62, 0.0), 1e-19, 1e-200, 1e-320):
        with pytest.raises(ValueError, match=re.escape("[2**-62, 1)")):
            SearchConfig(alpha=alpha)
    with pytest.raises(ValueError):
        SearchConfig(delta=1.0)
    with pytest.raises(ValueError):
        SearchConfig(top_k=0)


def test_alpha_sweep_report(parity_world):
    corpus, store = parity_world
    alphas = [0.001, 0.004, 0.1]
    rows = alpha_sweep(corpus.queries[:4], store, alphas, SearchConfig())
    assert [r.alpha for r in rows] == alphas
    comps = [r.mean_comparisons for r in rows]
    # a larger alpha shrinks the skip at fixed dissimilarity, costing
    # more comparisons
    assert comps == sorted(comps)
    for r in rows:
        assert r.mean_matches > 0
        assert 0.8 < r.mean_top100_omega <= 1.0
    for windows, alphas in (([], alphas), (corpus.queries[:1], [])):
        with pytest.raises(ValueError,
                           match="need at least one window and one alpha"):
            alpha_sweep(windows, store, alphas, SearchConfig())


def test_alpha_sweep_keeps_the_rest_of_the_base_config(parity_world,
                                                       monkeypatch):
    corpus, store = parity_world
    base = SearchConfig(delta=0.9, top_k=2)
    seen = []

    def recording(windows, store, cfg, record_trace=False):
        seen.append((len(windows), cfg))
        return sliding_search_many(windows, store, cfg, record_trace)

    monkeypatch.setattr(cloud_search, "sliding_search_many", recording)
    row, = alpha_sweep(corpus.queries[:3], store, [0.02], base_cfg=base)
    cfg = SearchConfig(alpha=0.02, delta=0.9, top_k=2)
    assert seen == [(3, cfg)]
    runs = [sliding_search(q, store, cfg) for q in corpus.queries[:3]]
    assert row.mean_comparisons == np.mean([r.comparisons_made for r in runs])
    assert row.mean_matches == np.mean([len(r.candidates) for r in runs])
    assert row.mean_matches <= 2
