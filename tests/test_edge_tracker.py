"""Area-based candidate tracking, probability trend, and call triggers."""

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import emap.edge_tracker as et
from emap.cloud_search import (
    Candidate,
    SearchResult,
    exhaustive_search,
    sliding_search,
)
from emap.dsp import SignalWindow, WINDOW_LEN, area_between, window_samples
from emap.edge_tracker import (
    ANOMALY_PREDICTED,
    NORMAL,
    UNDECIDED,
    TrackerConfig,
    classify,
    init_tracker,
    needs_cloud_call,
    report_json_record,
    swap_in,
    tracker_step,
)
from emap.mdb import SLICE_LEN, SourceSignal, build_store, get_parent_segment


def make_store(tmp_path, parents, labels=None, n=2048):
    """Store whose parent i holds the given samples, labeled per labels."""
    labels = labels or [0] * len(parents)
    signals = []
    for i, (samples, label) in enumerate(zip(parents, labels)):
        spans = [(0, len(samples), "seizure")] if label else []
        signals.append(SourceSignal(id=i, samples=samples,
                                    anomaly_spans=spans, dataset_tag="unit"))
    return build_store(signals, tmp_path / "store")


def result_for(store, set_ids, beta=0):
    cands = [Candidate(set_id=s, omega=0.99, beta=beta) for s in set_ids]
    return SearchResult(candidates=cands, comparisons_made=0,
                        degenerate_skipped=0)


def window_at(samples, w):
    return SignalWindow(samples=samples[w * WINDOW_LEN:(w + 1) * WINDOW_LEN],
                        timestep_index=w)


def test_initial_probability_is_label_fraction(tmp_path):
    rng = np.random.default_rng(31)
    # 1024-sample parents produce exactly one slice each, so slice ids
    # and parent ids coincide
    parents = [rng.normal(0, 15, 1024) for _ in range(100)]
    labels = [1] * 22 + [0] * 78
    store = make_store(tmp_path, parents, labels)
    state = init_tracker(result_for(store, range(100)), store, TrackerConfig())
    assert state.p_anomaly() == 0.22
    assert state.pa_history == [0.22]
    all_normal = init_tracker(result_for(store, range(30, 60)), store,
                              TrackerConfig())
    assert all_normal.p_anomaly() == 0.0


def test_init_rejects_empty_result(tmp_path):
    store = make_store(tmp_path, [np.random.default_rng(0).normal(0, 15, 2048)])
    empty = SearchResult(candidates=[], comparisons_made=0,
                         degenerate_skipped=0)
    with pytest.raises(ValueError):
        init_tracker(empty, store, TrackerConfig())


def test_identical_stream_keeps_everyone(tmp_path):
    rng = np.random.default_rng(32)
    live = rng.normal(0, 15, 2048)
    # three parents that all contain the live stream verbatim
    store = make_store(tmp_path, [live.copy() for _ in range(3)])
    # each 2048-sample parent holds two slices; track the lead slice of
    # each parent
    state = init_tracker(result_for(store, [0, 2, 4]), store, TrackerConfig())
    live_q = store.parent_samples(0)   # track the quantized copy exactly
    for w in range(1, 4):
        rep = tracker_step(state, window_at(live_q, w), store)
        assert rep.removed_dissimilar == []
        assert rep.removed_exhausted == []
        assert rep.alive == 3
        assert rep.p_anomaly == state.pa_history[0]


def test_constant_offset_candidate_is_removed(tmp_path):
    rng = np.random.default_rng(33)
    live = rng.normal(0, 15, 2048)
    off = live.copy()
    off[WINDOW_LEN:] += 10.0           # area 256 * 10 = 2560 > 900 from w1 on
    store = make_store(tmp_path, [live.copy(), off])
    state = init_tracker(result_for(store, [0, 2]), store, TrackerConfig())
    live_q = store.parent_samples(0)
    rep = tracker_step(state, window_at(live_q, 1), store)
    assert [r.set_id for r in rep.removed_dissimilar] == [2]
    assert rep.removed_dissimilar[0].area == pytest.approx(2560.0, abs=1.0)
    assert rep.alive == 1
    # removals are permanent
    rep2 = tracker_step(state, window_at(live_q, 2), store)
    assert rep2.alive == 1
    assert rep2.removed_dissimilar == []
    assert [c.set_id for c in state.tracked] == [0]


def test_parent_exhaustion_is_its_own_reason(tmp_path):
    rng = np.random.default_rng(34)
    live = rng.normal(0, 15, 2048)
    # an identical but shorter recording: it tracks perfectly until the
    # recording simply runs out at sample 1212
    short = live[:SLICE_LEN + 212].copy()
    store = make_store(tmp_path, [live.copy(), short])
    # live parent covers slices 0 and 1; the short parent is slice 2
    state = init_tracker(result_for(store, [0, 2]), store, TrackerConfig())
    live_q = store.parent_samples(0)
    exhausted = []
    for w in range(1, 6):
        rep = tracker_step(state, window_at(live_q, w), store)
        assert rep.removed_dissimilar == []
        if rep.removed_exhausted:
            exhausted = rep.removed_exhausted
            break
    assert [r.set_id for r in exhausted] == [2]
    assert [c.set_id for c in state.tracked] == [0]


def test_candidate_dead_on_arrival_when_parent_cannot_continue(tmp_path):
    rng = np.random.default_rng(42)
    live = rng.normal(0, 15, 2048)
    minimal = live[:SLICE_LEN].copy()     # no material beyond the slice
    store = make_store(tmp_path, [live.copy(), minimal])
    res = SearchResult(
        candidates=[Candidate(set_id=0, omega=0.99, beta=0),
                    Candidate(set_id=2, omega=0.99, beta=700)],
        comparisons_made=0, degenerate_skipped=0)
    # the second candidate would need samples [956:1212) of its
    # 1000-sample parent
    state = init_tracker(res, store, TrackerConfig())
    assert [c.set_id for c in state.tracked] == [0]


def test_tracked_set_is_in_set_id_order(tmp_path):
    rng = np.random.default_rng(43)
    parents = [rng.normal(0, 15, 2048) for _ in range(6)]
    store = make_store(tmp_path, parents)
    state = init_tracker(result_for(store, [7, 2, 11, 0]), store,
                         TrackerConfig())
    assert [c.set_id for c in state.tracked] == [0, 2, 7, 11]
    swap_in(state, result_for(store, [9, 4, 5]), store)
    assert [c.set_id for c in state.tracked] == [4, 5, 9]


def test_swap_in_rejects_a_cursor_that_is_not_ahead(tmp_path):
    # steps_ahead 0 would seed every cursor on the matched window itself
    rng = np.random.default_rng(44)
    store = make_store(tmp_path, [rng.normal(0, 15, 2048) for _ in range(2)])
    state = init_tracker(result_for(store, [0]), store, TrackerConfig())
    for steps_ahead in (0, -1):
        with pytest.raises(ValueError, match="steps_ahead must be >= 1"):
            swap_in(state, result_for(store, [2]), store,
                    steps_ahead=steps_ahead)
        with pytest.raises(ValueError, match="steps_ahead must be >= 1"):
            init_tracker(result_for(store, [2]), store, TrackerConfig(),
                         steps_ahead=steps_ahead)
    assert [c.set_id for c in state.tracked] == [0]


def test_cursor_advances_by_window_each_survival(tmp_path):
    rng = np.random.default_rng(35)
    live = rng.normal(0, 15, 2048)
    store = make_store(tmp_path, [live.copy()])
    state = init_tracker(result_for(store, [0]), store, TrackerConfig())
    assert state.tracked[0].cursor == WINDOW_LEN
    live_q = store.parent_samples(0)
    for w in range(1, 5):
        tracker_step(state, window_at(live_q, w), store)
        assert state.tracked[0].cursor == (w + 1) * WINDOW_LEN


def test_cloud_call_threshold_and_cadence(tmp_path):
    rng = np.random.default_rng(36)
    parents = [rng.normal(0, 15, 2048) for _ in range(50)]
    store = make_store(tmp_path, parents)
    cfg = TrackerConfig(tracking_threshold=10, max_iterations_per_set=5)

    state = init_tracker(result_for(store, range(9)), store, cfg)
    assert needs_cloud_call(state) == (True, "threshold")

    state = init_tracker(result_for(store, range(50)), store, cfg)
    state.iteration_in_set = 5
    assert needs_cloud_call(state) == (True, "cadence")
    state.iteration_in_set = 2
    assert needs_cloud_call(state) == (False, None)
    # threshold outranks cadence when both hold
    state9 = init_tracker(result_for(store, range(9)), store, cfg)
    state9.iteration_in_set = 7
    assert needs_cloud_call(state9) == (True, "threshold")


def history_state(pa, trend_window=2, floor=0.5):
    cfg = TrackerConfig(trend_window=trend_window, pa_floor=floor)
    return et.TrackerState(tracked=[], pa_history=list(pa), config=cfg)


def test_classification_rules():
    assert classify(history_state([0.22, 0.35, 0.55, 0.66])) == ANOMALY_PREDICTED
    assert classify(history_state([0.3, 0.3, 0.3])) == NORMAL
    assert classify(history_state([0.22])) == UNDECIDED
    assert classify(history_state([0.5, 0.4, 0.45])) == UNDECIDED
    # rising but still below the floor is not yet an anomaly verdict
    assert classify(history_state([0.1, 0.2, 0.3])) == UNDECIDED
    assert classify(history_state([0.6, 0.5, 0.4])) == NORMAL


def test_swap_in_replaces_set_and_keeps_history(tmp_path):
    rng = np.random.default_rng(37)
    parents = [rng.normal(0, 15, 2048) for _ in range(6)]
    store = make_store(tmp_path, parents, labels=[1, 0, 0, 1, 1, 1])
    state = init_tracker(result_for(store, [0, 1, 2]), store, TrackerConfig())
    state.iteration_in_set = 4
    history_before = list(state.pa_history)

    swap_in(state, result_for(store, [3, 4, 5]), store)
    assert [c.set_id for c in state.tracked] == [3, 4, 5]
    assert state.pa_history[:len(history_before)] == history_before
    assert state.iteration_in_set == 0

    empty = SearchResult(candidates=[], comparisons_made=0,
                         degenerate_skipped=0)
    state.iteration_in_set = 3
    swap_in(state, empty, store)
    # nothing fresh: the old set keeps tracking
    assert [c.set_id for c in state.tracked] == [3, 4, 5]
    assert state.iteration_in_set == 0


def test_step_never_computes_correlation(tmp_path, monkeypatch):
    rng = np.random.default_rng(38)
    live = rng.normal(0, 15, 2048)
    store = make_store(tmp_path, [live.copy()])
    state = init_tracker(result_for(store, [0]), store, TrackerConfig())

    def banned(*a, **k):
        raise AssertionError("correlation evaluated on the edge path")

    monkeypatch.setattr(et.dsp, "xcorr", banned)
    rep = tracker_step(state, window_at(store.parent_samples(0), 1), store)
    assert rep.alive == 1
    assert rep.area_computations == 1


def test_step_cost_is_one_area_per_alive_candidate(tmp_path):
    rng = np.random.default_rng(39)
    parents = [rng.normal(0, 15, 2048) for _ in range(8)]
    store = make_store(tmp_path, parents)
    state = init_tracker(result_for(store, range(8)), store, TrackerConfig())
    rng2 = np.random.default_rng(40)
    rep = tracker_step(
        state, SignalWindow(samples=rng2.normal(0, 15, WINDOW_LEN),
                            timestep_index=1), store)
    assert rep.area_computations == 8


def test_removal_decisions_replay_exactly(prob_world):
    sc, store = prob_world
    res = sliding_search(
        SignalWindow(samples=sc.live.samples[:WINDOW_LEN], timestep_index=0),
        store, sc.search_cfg)
    state = init_tracker(res, store, sc.tracker_cfg)
    thresh = sc.tracker_cfg.area_threshold
    for it in range(1, 6):
        snapshot = {c.set_id: c.cursor for c in state.tracked}
        win = window_at(sc.live.samples, it)
        rep = tracker_step(state, win, store)
        for rem in rep.removed_dissimilar:
            _, pid, poff, _, _ = store.slice_meta(rem.set_id)
            seg = get_parent_segment(store, rem.set_id,
                                     snapshot[rem.set_id] - poff, WINDOW_LEN)
            a = area_between(win.samples, seg)
            assert a == rem.area
            assert a > thresh
        for cand in state.tracked:
            seg = get_parent_segment(store, cand.set_id,
                                     snapshot[cand.set_id] - cand.parent_offset,
                                     WINDOW_LEN)
            assert area_between(win.samples, seg) <= thresh


def test_non_finite_live_windows_are_rejected(prob_world):
    # a bare array skips SignalWindow's own check; NaN areas would
    # never exceed the threshold, and NaN omegas never exceed delta
    sc, store = prob_world
    state = init_tracker(sliding_search(window_at(sc.live.samples, 0), store,
                                        sc.search_cfg),
                         store, sc.tracker_cfg)
    alive = len(state.tracked)
    for bad in (np.nan, np.inf, -np.inf):
        x = sc.live.samples[WINDOW_LEN:2 * WINDOW_LEN].copy()
        x[100] = bad
        for search in (sliding_search, exhaustive_search):
            with pytest.raises(ValueError, match="non-finite"):
                search(x, store, sc.search_cfg)
        with pytest.raises(ValueError, match="non-finite"):
            tracker_step(state, x, store)
    assert state.iteration == 0
    assert len(state.tracked) == alive


def test_probability_follows_the_scripted_trajectory(prob_world):
    # the scenario's schedule fixes every alive count, so P_A is exact:
    # 22/100, 22/77, 22/62, 22/50, 22/40, 22/32
    sc, store = prob_world
    res = sliding_search(window_at(sc.live.samples, 0), store, sc.search_cfg)
    state = init_tracker(res, store, sc.tracker_cfg)
    for it in range(1, 6):
        tracker_step(state, window_at(sc.live.samples, it), store)
    assert state.pa_history == sc.expected_pa


def test_report_json_shape(tmp_path):
    rng = np.random.default_rng(41)
    store = make_store(tmp_path, [rng.normal(0, 15, 2048)])
    state = init_tracker(result_for(store, [0]), store, TrackerConfig())
    rep = tracker_step(state, window_at(store.parent_samples(0), 1), store)
    rec = report_json_record(rep)
    assert set(rec) == {"iteration", "alive", "removed_dissimilar",
                        "removed_exhausted", "p_anomaly", "classification",
                        "cloud_call", "step_micros"}
    assert isinstance(rec["removed_dissimilar"], int)
    assert rec["iteration"] == 1
    fixed = report_json_record(rep, step_micros=0)
    assert fixed["step_micros"] == 0


def test_tracker_config_validation():
    with pytest.raises(ValueError):
        TrackerConfig(area_threshold=0.0)
    with pytest.raises(ValueError):
        TrackerConfig(tracking_threshold=0)
    with pytest.raises(ValueError):
        TrackerConfig(tracking_threshold=100)
    with pytest.raises(ValueError):
        TrackerConfig(trend_window=0)
    # NaN compares false with everything, so a NaN threshold would
    # silently keep every candidate
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="area_threshold"):
            TrackerConfig(area_threshold=bad)
        with pytest.raises(ValueError, match="pa_floor"):
            TrackerConfig(pa_floor=bad)


def reference_step(state, window, store):
    """The per-candidate loop that tracker_step batches: one segment
    lookup and one exact area per tracked candidate, in set_id order."""
    x = window_samples(window)
    removed_dissimilar = []
    removed_exhausted = []
    kept = []
    areas = 0
    for cand in state.tracked:
        rel = cand.cursor - cand.parent_offset
        seg = get_parent_segment(store, cand.set_id, rel, WINDOW_LEN)
        if seg is None:
            removed_exhausted.append(et.Removal(set_id=cand.set_id,
                                                cursor=cand.cursor))
            continue
        area = area_between(x, seg)
        areas += 1
        if area > state.config.area_threshold:
            removed_dissimilar.append(et.Removal(
                set_id=cand.set_id, cursor=cand.cursor, area=area))
        else:
            cand.cursor += WINDOW_LEN
            kept.append(cand)
    state.tracked = kept
    state.iteration += 1
    state.iteration_in_set += 1
    alive = len(kept)
    pa = state.p_anomaly()
    state.pa_history.append(pa)
    wants, reason = needs_cloud_call(state)
    return et.IterationReport(
        iteration=state.iteration, alive=alive,
        removed_dissimilar=removed_dissimilar,
        removed_exhausted=removed_exhausted, p_anomaly=pa,
        classification=classify(state),
        cloud_call=reason if wants else None, step_micros=0,
        area_computations=areas, timestep_index=window.timestep_index)


@pytest.fixture(scope="module")
def diff_store(tmp_path_factory):
    """Eight slices over parents whose lengths leave 0 to 1000 samples
    past their last slice."""
    rng = np.random.default_rng(70)
    lengths = [1000, 1255, 1512, 2048, 3001]
    signals = [SourceSignal(id=i, samples=rng.normal(0, 15, n),
                            anomaly_spans=[(0, n, "seizure")] if i % 2 else [],
                            dataset_tag="unit")
               for i, n in enumerate(lengths)]
    return build_store(signals, tmp_path_factory.mktemp("diff") / "store")


def fingerprint(state, report):
    """Everything a step decides; areas as hex, so equal means equal
    bit for bit."""
    def removals(rs):
        return [(r.set_id, r.cursor,
                 None if r.area is None else r.area.hex()) for r in rs]
    return (
        [(c.set_id, c.cursor) for c in state.tracked],
        [p.hex() for p in state.pa_history],
        state.iteration, state.iteration_in_set,
        report.iteration, report.alive,
        removals(report.removed_dissimilar), removals(report.removed_exhausted),
        report.p_anomaly.hex(), report.classification, report.cloud_call,
        report.area_computations, report.timestep_index)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_batched_step_matches_the_per_candidate_loop(diff_store, data):
    store = diff_store
    set_ids = data.draw(st.lists(st.integers(0, store.num_slices - 1),
                                 unique=True, max_size=8), label="set_ids")
    tracked = []
    for sid in sorted(set_ids):
        # a removed candidate is no longer in the tracked set
        if not data.draw(st.sampled_from([True, True, True, False])):
            continue
        _sid, pid, poff, label, _kind = store.slice_meta(sid)
        n = store.parent_samples(pid).size
        # the last segment that fits, one sample past it, and beyond
        cursor = data.draw(st.one_of(
            st.sampled_from([n - WINDOW_LEN, n - WINDOW_LEN + 1,
                             n - WINDOW_LEN - 1, n, n + 300]),
            st.integers(poff, n - WINDOW_LEN)))
        tracked.append(et.TrackedCandidate(
            set_id=sid, label=label, cursor=cursor,
            parent_offset=poff, parent_len=n, omega_at_match=0.9))
    fitting = [c for c in tracked if c.cursor + WINDOW_LEN <= c.parent_len]

    def segment(cand):
        return get_parent_segment(store, cand.set_id,
                                  cand.cursor - cand.parent_offset, WINDOW_LEN)

    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    anchoring = data.draw(st.sampled_from([None, "dyadic", "ties"]))
    if fitting and anchoring == "dyadic":
        # the segment plus dyadic steps: both sums of |x - seg| are exact
        steps = rng.integers(-64, 65, WINDOW_LEN).astype(np.float64)
        x = (segment(data.draw(st.sampled_from(fitting)))
             + np.ldexp(steps, -data.draw(st.integers(0, 10))))
    elif fitting and anchoring == "ties":
        # 1024 where each of numpy's eight partial sums per 128-term
        # block starts, 2**-43 (half an ulp of 1024) elsewhere: every
        # small term ties and rounds away, so the row sum falls about
        # 8 ulps short of the exact area
        steps = np.full(WINDOW_LEN, 2.0 ** -43)
        steps[np.arange(WINDOW_LEN) % 128 < 8] = 1024.0
        x = (segment(data.draw(st.sampled_from(fitting)))
             + steps * rng.choice([-1.0, 1.0], WINDOW_LEN))
    else:
        x = rng.normal(0, 15, WINDOW_LEN)
    window = SignalWindow(samples=x, timestep_index=3)

    threshold = float(rng.uniform(100.0, 6000.0))
    if fitting:
        seg = segment(data.draw(st.sampled_from(fitting)))
        # that candidate's exact area, or its rounded float64 row sum,
        # which a third of random rows miss by an ulp or more
        area = data.draw(st.sampled_from([
            area_between(x, seg), float(np.abs(x - seg).sum())]))
        edge = data.draw(st.sampled_from([None, 0.0, -np.inf, np.inf]))
        if edge is not None and area > 0:
            # at, one ulp below or one ulp above it
            threshold = area if edge == 0.0 else float(np.nextafter(area, edge))
    state = et.TrackerState(
        tracked=tracked, pa_history=[0.25, 0.5],
        config=TrackerConfig(area_threshold=threshold, tracking_threshold=2,
                             max_iterations_per_set=2),
        iteration=7, iteration_in_set=1)
    expected_state = copy.deepcopy(state)
    expected = reference_step(expected_state, window, store)
    got = tracker_step(state, window, store)
    assert fingerprint(state, got) == fingerprint(expected_state, expected)
