"""Simulated cloud-edge loop: timing, overlap, determinism, evaluation."""

import dataclasses
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from emap import cloud_search, orchestrator
from emap.cloud_search import sliding_search
from emap.dsp import SignalWindow, WINDOW_LEN
from emap.edge_tracker import (
    init_tracker,
    report_json_record,
    swap_in,
    tracker_step,
)
from emap.mdb import SourceSignal, build_store
from emap.scenarios import evaluation_world
from emap.orchestrator import (
    LinkModel,
    RunConfig,
    SimConfig,
    evaluate_batch,
    run_stream,
)


ZERO_LINK = LinkModel(uplink_fixed_us=0, uplink_per_sample_us=0,
                      downlink_fixed_us=0, downlink_per_signal_us=0)


def test_link_defaults_meet_budgets():
    link = LinkModel()
    assert link.uplink_latency(WINDOW_LEN) <= 1000          # one window, 1 ms
    assert link.downlink_latency(100) <= 200_000            # full set, 200 ms
    # monotone in payload
    assert link.uplink_latency(512) > link.uplink_latency(256)
    assert link.downlink_latency(10) < link.downlink_latency(100)
    assert link.uplink_latency(0) >= 0


def test_initial_overhead_is_the_exact_sum(prob_world):
    sc, store = prob_world
    # 1 ms up, 2.8 s search, 199 ms down: exactly 3.0 s end to end
    link = LinkModel(uplink_fixed_us=1000, uplink_per_sample_us=0,
                     downlink_fixed_us=199_000, downlink_per_signal_us=0)
    sim = SimConfig(cloud_search_s=2.8)
    out = run_stream(sc.live, store, sc.search_cfg, sc.tracker_cfg, link, sim)
    t = out.timing
    assert t.delta_ec_us == 1000
    assert t.delta_cs_us == 2_800_000
    assert t.delta_ce_us == 199_000
    assert t.delta_initial_us == 3_000_000
    assert t.delta_initial_us == t.delta_ec_us + t.delta_cs_us + t.delta_ce_us


def test_zero_latency_run_equals_direct_tracking(prob_world):
    sc, store = prob_world
    sim = SimConfig(cloud_search_s=0.0)
    out = run_stream(sc.live, store, sc.search_cfg, sc.tracker_cfg,
                     ZERO_LINK, sim)

    res = sliding_search(
        SignalWindow(samples=sc.live.samples[:WINDOW_LEN], timestep_index=0),
        store, sc.search_cfg)
    state = init_tracker(res, store, sc.tracker_cfg)
    direct = []
    n_windows = sc.live.samples.size // WINDOW_LEN
    for w in range(1, n_windows):
        win = SignalWindow(
            samples=sc.live.samples[w * WINDOW_LEN:(w + 1) * WINDOW_LEN],
            timestep_index=w)
        rep = tracker_step(state, win, store)
        direct.append((rep.timestep_index, rep.alive, rep.p_anomaly))

    got = [(r.timestep_index, r.alive, r.p_anomaly) for r in out.reports]
    assert got == direct
    assert out.timing.delta_initial_us == 0


def test_overlap_keeps_old_set_tracking(overlap_world):
    sc, store = overlap_world
    out = run_stream(sc.live, store, sc.search_cfg, sc.tracker_cfg,
                     sc.link, sc.sim)
    # the alive count decays to the call threshold at iteration 3
    trigger = next(r for r in out.reports if r.cloud_call is not None)
    assert trigger.iteration == sc.expected_call_iteration
    assert trigger.cloud_call == "threshold"

    events = out.timeline
    req_times = [e.t_sim_us for e in events if e.kind == "cloud_call_request"]
    assert req_times, "no background search was requested"
    first_req = req_times[0]
    swap_after = next(e.t_sim_us for e in events
                      if e.kind == "swap_in" and e.t_sim_us > first_req)
    old_set_steps = [e for e in events if e.kind == "track_step"
                     and first_req < e.t_sim_us <= swap_after]
    need = math.ceil(sc.sim.cloud_search_s
                     + sc.link.downlink_latency(0) / 1e6)
    assert len(old_set_steps) >= need


def test_timeline_is_ordered_and_structured(overlap_world):
    sc, store = overlap_world
    out = run_stream(sc.live, store, sc.search_cfg, sc.tracker_cfg,
                     sc.link, sc.sim)
    times = [e.t_sim_us for e in out.timeline]
    assert times == sorted(times)
    kinds = {e.kind for e in out.timeline}
    assert kinds <= {"sample", "uplink", "search_start", "search_done",
                     "downlink", "swap_in", "track_step",
                     "cloud_call_request"}
    # each cloud call unrolls as uplink, search_start, search_done,
    # downlink in simulated-time order
    seq = [e for e in out.timeline
           if e.kind in ("uplink", "search_start", "search_done", "downlink")]
    for i in range(0, len(seq) - 3, 4):
        assert [e.kind for e in seq[i:i + 4]] == \
            ["uplink", "search_start", "search_done", "downlink"]
        assert seq[i].t_sim_us <= seq[i + 1].t_sim_us \
            <= seq[i + 2].t_sim_us <= seq[i + 3].t_sim_us
    ms = out.timeline[0].to_json_dict()
    assert set(ms) == {"t_sim_ms", "kind", "detail"}


def test_swaps_apply_only_after_delivery(overlap_world):
    sc, store = overlap_world
    out = run_stream(sc.live, store, sc.search_cfg, sc.tracker_cfg,
                     sc.link, sc.sim)
    downs = [e.t_sim_us for e in out.timeline if e.kind == "downlink"]
    swaps = [e.t_sim_us for e in out.timeline if e.kind == "swap_in"]
    assert len(swaps) <= len(downs)
    for i, s in enumerate(swaps):
        # delivery i completes no later than the boundary that applies it
        assert downs[i] <= s


def test_run_stream_is_deterministic(overlap_world):
    sc, store = overlap_world
    runs = []
    for _ in range(2):
        out = run_stream(sc.live, store, sc.search_cfg, sc.tracker_cfg,
                         sc.link, sc.sim)
        runs.append((
            [(e.t_sim_us, e.kind, repr(e.detail)) for e in out.timeline],
            [(r.iteration, r.alive, r.p_anomaly, r.classification,
              r.cloud_call) for r in out.reports],
            out.final_classification,
        ))
    assert runs[0] == runs[1]


def test_run_stream_input_validation(prob_world):
    # every store has a slice (build_store refuses an empty corpus), so
    # a stream shorter than 2 s is the loop's one refusal
    sc, store = prob_world
    rng = np.random.default_rng(50)
    stub = SourceSignal(id=900, samples=rng.normal(0, 15, 300),
                        anomaly_spans=[], dataset_tag="unit")
    with pytest.raises(ValueError, match="live signal 900 has 300 samples; "
                       "it must span at least 2 seconds"):
        run_stream(stub, store, sc.search_cfg, sc.tracker_cfg, ZERO_LINK,
                   SimConfig())


def test_evaluation_rejects_store_overlap(eval_world):
    world, store = eval_world
    leaked = world.store_signals[0]
    cfg = world.run_config
    with pytest.raises(ValueError):
        evaluate_batch([leaked], store, cfg.search, cfg.tracker, cfg.link,
                       cfg.sim)
    with pytest.raises(ValueError, match="empty evaluation corpus"):
        evaluate_batch([], store, cfg.search, cfg.tracker, cfg.link, cfg.sim)


def disjoint_store(tmp_path, parents, ids=None):
    ids = ids or range(10, 10 + len(parents))
    return build_store([SourceSignal(id=i, samples=p, anomaly_spans=[],
                                     dataset_tag="unit")
                        for i, p in zip(ids, parents)], tmp_path / "store")


def evaluate_streams(store, *streams):
    cfg = RunConfig()
    corpus = [SourceSignal(id=900 + i, samples=s, anomaly_spans=[],
                           dataset_tag="unit")
              for i, s in enumerate(streams)]
    return evaluate_batch(corpus, store, cfg.search, cfg.tracker, cfg.link,
                          cfg.sim)


def test_disjointness_compares_in_stored_precision(tmp_path):
    rng = np.random.default_rng(60)
    parents = [rng.normal(0, 15, 2048) for _ in range(3)]
    store = disjoint_store(tmp_path, parents)
    # the float64 original differs from every stored sample, yet it is
    # the stored signal once quantized
    fresh = rng.normal(0, 15, 2048)
    with pytest.raises(ValueError, match=r"stream 901 .*\(signal 11\)"):
        evaluate_streams(store, fresh, parents[1])
    one_ulp = store.parent_samples(11).copy()
    one_ulp[1500] = np.nextafter(one_ulp[1500], np.float32(np.inf))
    assert len(evaluate_streams(store, one_ulp.astype(np.float64))
               .outcomes) == 1


def test_disjointness_names_the_first_equal_parent(tmp_path):
    rng = np.random.default_rng(61)
    twin = rng.normal(0, 15, 2048)
    parents = [rng.normal(0, 15, 2048), twin, twin.copy()]
    # manifest order, not id order, decides which one is named
    store = disjoint_store(tmp_path, parents, ids=[5, 30, 20])
    with pytest.raises(ValueError, match=r"\(signal 30\)"):
        evaluate_streams(store, twin)


def test_disjointness_needs_the_whole_parent(tmp_path):
    rng = np.random.default_rng(62)
    parent = rng.normal(0, 15, 2048)
    store = disjoint_store(tmp_path, [parent])
    tail_differs = parent.copy()
    tail_differs[1000:] = rng.normal(0, 15, 1048)
    prefix = parent[:1536]
    assert len(evaluate_streams(store, tail_differs, prefix).outcomes) == 2


def test_disjointness_treats_signed_zeros_as_equal(tmp_path):
    rng = np.random.default_rng(63)
    parent = rng.normal(0, 15, 2048)
    parent[700] = 0.0
    store = disjoint_store(tmp_path, [parent])
    negative_zero = parent.copy()
    negative_zero[700] = -0.0
    with pytest.raises(ValueError, match=r"\(signal 10\)"):
        evaluate_streams(store, negative_zero)


def test_evaluate_batch_shape_and_gate(eval_world):
    world, store = eval_world
    cfg = world.run_config
    streams = world.streams[:3] + world.streams[-3:]   # 3 anomalous, 3 normal
    sim = SimConfig(cloud_search_s=cfg.sim.cloud_search_s,
                    eval_after_cloud_calls=2, batch_size=3,
                    report_step_micros=0)
    table = evaluate_batch(streams, store, cfg.search, cfg.tracker,
                           cfg.link, sim)
    assert [r.batch for r in table.rows] == ["0", "1", "mean"]
    assert sum(r.n for r in table.rows[:-1]) == 6
    for row in table.rows:
        assert 0.0 <= row.accuracy <= 1.0
        assert 0.0 <= row.false_positive_rate <= 1.0
    # the prediction gate: an anomalous outcome needs two applied cloud
    # responses before its latched prediction counts
    assert streams[0].anomaly_spans
    assert table.outcomes[0].prediction is not None
    late = evaluate_batch(streams, store, cfg.search, cfg.tracker, cfg.link,
                          dataclasses.replace(sim, eval_after_cloud_calls=99))
    assert [out.prediction for out in late.outcomes] == [None] * 6
    assert late.mean_row.accuracy == 0.5   # the normal streams alone


def test_each_evaluation_pass_runs_as_one_lockstep(eval_world, monkeypatch):
    """Every pass of the 40-stream evaluation sends its windows to one
    sliding_search_many call, and that call scans them all in one
    lockstep; no call is made once every stream has returned."""
    world, store = eval_world
    cfg = world.run_config
    calls = []      # per sliding_search_many call: windows, lockstep sizes
    many, scan = orchestrator.sliding_search_many, cloud_search._lockstep_scan

    def counted_many(windows, *args):
        calls.append((len(windows), []))
        return many(windows, *args)

    def counted_scan(qs, *args):
        calls[-1][1].append(len(qs))
        return scan(qs, *args)

    monkeypatch.setattr(orchestrator, "sliding_search_many", counted_many)
    monkeypatch.setattr(cloud_search, "_lockstep_scan", counted_scan)
    evaluate_batch(world.streams, store, cfg.search, cfg.tracker, cfg.link,
                   cfg.sim)
    assert calls[0][0] == len(world.streams) == 40
    assert all(n >= 1 and sizes == [n] for n, sizes in calls)


def test_lead_time_measures_onset_gap(eval_world):
    world, store = eval_world
    cfg = world.run_config
    anom = next(s for s in world.streams if s.anomaly_spans)
    out = run_stream(anom, store, cfg.search, cfg.tracker, cfg.link, cfg.sim)
    hit = out.prediction
    assert hit is not None
    onset_s = anom.onset_sample / 256.0
    lead = out.lead_time_s
    assert lead == pytest.approx(onset_s - hit[1])
    assert lead > 0


@pytest.mark.parametrize("swapped, accuracy, fpr, lead", [
    (False, 1.0, 0.0, 3.0),
    (True, 0.0, 1.0, None),
], ids=["labels-as-built", "labels-swapped"])
def test_scoring_counts_misses_and_false_alarms(tmp_path, swapped, accuracy,
                                                fpr, lead):
    # one anomalous and one normal stream; swapping the twins' labels
    # turns the hit into a miss and the correct rejection into a false
    # alarm, so the anomalous stream yields no lead time
    world = evaluation_world(2026, n_anomalous=1, n_normal=1)

    def swap(s):
        spans = [] if s.anomaly_spans else [(0, s.samples.size, "seizure")]
        return dataclasses.replace(s, anomaly_spans=spans)

    signals = [swap(s) if swapped and s.dataset_tag == "eval-twin" else s
               for s in world.store_signals]
    store = build_store(signals, tmp_path / "store")
    cfg = world.run_config
    table = evaluate_batch(world.streams, store, cfg.search, cfg.tracker,
                           cfg.link, cfg.sim)
    assert [r.batch for r in table.rows] == ["0", "mean"]
    for row in table.rows:
        assert (row.n, row.anomaly_kind) == (2, "seizure")
        assert row.accuracy == accuracy
        assert row.false_positive_rate == fpr
        assert row.mean_lead_time_s == lead


def test_batch_rows_name_mixed_and_absent_kinds(tmp_path):
    # streams are 2 anomalous then 2 normal; relabelling the second
    # stream's span makes batch 0 hold two kinds and leaves batch 1
    # without any, and no sample changes
    world = evaluation_world(2026, n_anomalous=2, n_normal=2)
    second = world.streams[1]
    (start, end, _kind), = second.anomaly_spans
    streams = [world.streams[0],
               dataclasses.replace(second,
                                   anomaly_spans=[(start, end, "stroke")]),
               *world.streams[2:]]
    store = build_store(world.store_signals, tmp_path / "store")
    cfg = world.run_config
    table = evaluate_batch(streams, store, cfg.search, cfg.tracker, cfg.link,
                           dataclasses.replace(cfg.sim, batch_size=2))
    assert [(r.batch, r.n, r.anomaly_kind) for r in table.rows] == [
        ("0", 2, "mixed"), ("1", 2, "none"), ("mean", 4, "mixed")]


def test_a_cut_stream_replays_the_full_run(eval_world):
    """The loop is causal: boundary k reads only window k-1. So a stream
    cut at sample `cut` gives the full run's reports up to its last
    boundary, cut // 256 s, and the full run's prediction if that falls
    by then."""
    world, store = eval_world
    cfg = world.run_config

    def fields(reports):
        return [dataclasses.replace(r, step_micros=0) for r in reports]

    predicted = set()
    for live in [world.streams[i] for i in (0, 9, 20, 39)]:
        full = run_stream(live, store, cfg.search, cfg.tracker, cfg.link,
                          cfg.sim)
        for cut in (5 * WINDOW_LEN, 16 * WINDOW_LEN + 200, 17 * WINDOW_LEN,
                    20 * WINDOW_LEN):
            end_s = cut // WINDOW_LEN
            out = run_stream(SourceSignal(id=live.id,
                                          samples=live.samples[:cut]),
                             store, cfg.search, cfg.tracker, cfg.link,
                             cfg.sim)
            steps = sum(e.kind == "track_step"
                        and e.t_sim_us <= end_s * orchestrator.US_PER_S
                        for e in full.timeline)
            assert len(out.reports) == steps
            assert fields(out.reports) == fields(full.reports)[:steps]
            hit = full.prediction
            assert out.prediction == (hit if hit and hit[1] <= end_s
                                      else None)
            predicted.add(out.prediction is not None)
    # both answers occur, so the comparison is not vacuous
    assert predicted == {True, False}


def test_sim_config_rejects_non_finite_latency():
    # 1e303 s overflows once the loop converts it to microseconds
    for bad in (np.nan, np.inf, -np.inf, -1.0, 1e303):
        with pytest.raises(ValueError, match="cloud_search_s"):
            SimConfig(cloud_search_s=bad)
        if np.isfinite(bad):
            with pytest.raises(ValueError, match="cloud_search_s"):
                RunConfig.from_dict({"sim": {"cloud_search_s": bad}})
    assert SimConfig(cloud_search_s=0.0).cloud_search_s == 0.0
    assert SimConfig(cloud_search_s=1e300).cloud_search_s == 1e300


def test_evaluation_names_a_stream_shorter_than_two_seconds(tmp_path):
    rng = np.random.default_rng(64)
    store = disjoint_store(tmp_path, [rng.normal(0, 15, 2048)])
    with pytest.raises(ValueError, match="live signal 901 has 300 samples; "
                                         "it must span at least 2 seconds"):
        evaluate_streams(store, rng.normal(0, 15, 2048),
                         rng.normal(0, 15, 300))


def test_run_config_round_trips():
    cfg = RunConfig()
    again = RunConfig.from_dict(cfg.to_dict())
    assert again.to_dict() == cfg.to_dict()
    cfg.search.alpha = 0.01
    cfg.tracker.tracking_threshold = 4
    cfg.link.downlink_fixed_us = 60_000
    cfg.sim.cloud_search_s = 1.5
    cfg.seed = 99
    again = RunConfig.from_dict(cfg.to_dict())
    assert again.to_dict() == cfg.to_dict()
    assert again.search.alpha == 0.01
    assert again.tracker.tracking_threshold == 4
    # defaults carry the calibrated constants
    base = RunConfig()
    assert base.search.alpha == 0.004
    assert base.search.delta == 0.8
    assert base.search.top_k == 100
    assert base.tracker.area_threshold == 900.0
    assert base.tracker.max_iterations_per_set == 5
    # the fixed geometry lives in dsp and mdb, not in the config
    assert set(base.to_dict()) == {"seed", "search", "tracker", "link", "sim"}
    with pytest.raises(TypeError):
        RunConfig.from_dict({"window_len": 256})
    # a config file holds int64 values, and so does the seed
    last = RunConfig(seed=2 ** 63 - 1)
    assert RunConfig.from_dict(last.to_dict()).seed == 2 ** 63 - 1
    with pytest.raises(ValueError, match=r"seed must be < 2\*\*63"):
        RunConfig(seed=2 ** 63)


@pytest.fixture(scope="module")
def small_eval(tmp_path_factory):
    world = evaluation_world(2026, n_anomalous=2, n_normal=2)
    store = build_store(world.store_signals,
                        tmp_path_factory.mktemp("small_eval") / "store")
    live = next(s for s in world.streams if s.id == 5000)
    return world.run_config, store, live


def run_with(cfg, store, live, samples):
    stream = SourceSignal(id=live.id, samples=samples,
                          anomaly_spans=live.anomaly_spans,
                          dataset_tag=live.dataset_tag)
    return run_stream(stream, store, cfg.search, cfg.tracker, cfg.link,
                      cfg.sim)


def events(out):
    return [(e.t_sim_us, e.kind, e.detail) for e in out.timeline]


def test_zero_energy_window_defers_the_cloud_call(small_eval):
    cfg, store, live = small_eval
    samples = live.samples.copy()
    samples[14 * WINDOW_LEN:15 * WINDOW_LEN] = 0.0   # a flat second
    out = run_with(cfg, store, live, samples)
    base = run_with(cfg, store, live, live.samples)
    # identical until the flat second completes at 15 s
    before = [e for e in events(out) if e[0] < 15_000_000]
    assert before == [e for e in events(base) if e[0] < 15_000_000]
    at = lambda t: [(k, d) for tt, k, d in events(out) if tt == t]
    # the flat second empties the tracked set; no search is sent for it
    assert ("cloud_call_deferred",
            {"window": 14, "reason": "zero_energy_window"}) in at(15_000_000)
    assert "uplink" not in [k for k, _d in at(15_000_000)]
    assert all(d.get("window") != 14 for _t, k, d in events(out)
               if k == "search_start")
    # the call goes out with the next window
    kinds = [k for k, _d in at(16_000_000)]
    assert kinds.index("cloud_call_request") < kinds.index("uplink")
    assert ("search_start", {"window": 15}) in [
        (k, d) for _t, k, d in events(out) if k == "search_start"]
    assert len(out.reports) == len(base.reports)
    times = [e.t_sim_us for e in out.timeline]
    assert times == sorted(times)


def test_initial_call_waits_for_a_nonzero_window(small_eval):
    cfg, store, live = small_eval
    # a flat first second, then the stream as it was
    samples = np.concatenate([np.zeros(WINDOW_LEN),
                              live.samples[:-WINDOW_LEN]])
    out = run_with(cfg, store, live, samples)
    base = run_with(cfg, store, live, live.samples)
    assert events(out)[:3] == [
        (1_000_000, "sample", {"window": 0}),
        (1_000_000, "cloud_call_deferred",
         {"window": 0, "reason": "zero_energy_window"}),
        (2_000_000, "sample", {"window": 1})]
    assert events(out)[3][1] == "uplink"
    assert ("search_start", {"window": 1}) in [
        (k, d) for _t, k, d in events(out)]
    assert out.timing == base.timing
    # one second late, the same initial set is tracked
    assert out.reports[0].timestep_index == base.reports[0].timestep_index + 1
    assert out.reports[0].alive == base.reports[0].alive


@pytest.mark.parametrize("flat", [[0], [0, 1]], ids=["window-0", "windows-0-1"])
def test_an_empty_initial_call_is_retried(small_eval, flat):
    cfg, store, live = small_eval
    samples = live.samples.copy()
    for w in flat:
        samples[w * WINDOW_LEN:(w + 1) * WINDOW_LEN] = 0.0
    out = run_with(cfg, store, live, samples)
    first = len(flat)     # the first window a search can score
    empties = [(t, d["window"]) for t, k, d in events(out)
               if k == "initial_call_empty"]
    starts = [(t, d["window"]) for t, k, d in events(out)
              if k == "search_start"]
    # that window is off the slice grid: no candidate comes back
    assert empties[0][1] == first
    up = cfg.link.uplink_latency(WINDOW_LEN)
    for t, _w in empties:
        # the next boundary sends a fresh initial call with its own window
        assert (t + 1_000_000 + up, t // 1_000_000) in starts
    # no retry on this stream lands on the grid either
    assert all(d["candidates"] == 0 for _t, k, d in events(out)
               if k == "search_done")
    assert len(empties) > 1     # it keeps retrying
    assert out.reports == []
    assert out.final_classification == "undecided"
    assert out.timing is None


def test_a_retried_initial_call_starts_tracking(small_eval):
    cfg, store, live = small_eval
    # four seconds of noise that matches nothing, then the stream: the
    # first call (window 0) comes back empty at 4 s and the retry at 5 s
    # sends window 4, the stream's opening second
    noise = np.random.default_rng(8).normal(0.0, 15.0, 4 * WINDOW_LEN)
    samples = np.concatenate([noise, live.samples[:-4 * WINDOW_LEN]])
    out = run_with(cfg, store, live, samples)
    base = run_with(cfg, store, live, live.samples)
    assert ("initial_call_empty", {"window": 0}) in \
        [(k, d) for t, k, d in events(out) if t == 4_000_000]
    assert ("search_start", {"window": 4}) in \
        [(k, d) for _t, k, d in events(out)]
    # timing describes the call that started tracking
    assert out.timing == base.timing
    assert out.reports[0].timestep_index == base.reports[0].timestep_index + 4
    assert out.reports[0].alive == base.reports[0].alive


def test_a_stream_of_large_scale_removes_its_candidates_as_dissimilar(
        small_eval):
    """The search does not see scale, so a stream 1e306 times its
    world's finds its twins; 256 differences near 1e307 then overflow
    the area sum, which is inf, and every candidate is removed with
    that area."""
    cfg, store, live = small_eval
    out = run_with(cfg, store, live, live.samples * 1e306)
    removed = [r for rep in out.reports for r in rep.removed_dissimilar]
    assert removed and out.reports[0].alive == 0
    assert all(r.area == math.inf for r in removed)


@pytest.fixture(scope="module")
def small_eval_streams():
    return evaluation_world(2026, n_anomalous=2, n_normal=2).streams


def assert_tracked_in_set_id_order(state):
    ids = [c.set_id for c in state.tracked]
    assert ids == sorted(ids)


def checked_init_tracker(*args, **kwargs):
    state = init_tracker(*args, **kwargs)
    assert_tracked_in_set_id_order(state)
    return state


def checked_swap_in(*args, **kwargs):
    state = swap_in(*args, **kwargs)
    assert_tracked_in_set_id_order(state)
    return state


def checked_tracker_step(state, window, store):
    """tracker_step that checks the tracked set it leaves behind: the
    report's alive candidates, in set_id order, none of them removed."""
    report = tracker_step(state, window, store)
    assert report.alive == len(state.tracked)
    assert_tracked_in_set_id_order(state)
    removed = report.removed_dissimilar + report.removed_exhausted
    assert {r.set_id for r in removed}.isdisjoint(
        c.set_id for c in state.tracked)
    return report


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@example(stream=0, flat={0}, link=LinkModel(), cloud_search_s=2.8,
         eval_after=2)
@given(stream=st.integers(0, 3),
       flat=st.sets(st.integers(0, 23), max_size=24),
       link=st.builds(LinkModel,
                      uplink_fixed_us=st.integers(0, 2_000_000),
                      uplink_per_sample_us=st.integers(0, 5_000),
                      downlink_fixed_us=st.integers(0, 3_000_000),
                      downlink_per_signal_us=st.integers(0, 30_000)),
       cloud_search_s=st.floats(0.0, 8.0),
       eval_after=st.integers(1, 3))
def test_run_stream_invariants(small_eval, small_eval_streams, stream, flat,
                               link, cloud_search_s, eval_after):
    cfg, store, _live = small_eval
    live = small_eval_streams[stream]
    samples = live.samples.copy()
    for w in flat:
        samples[w * WINDOW_LEN:(w + 1) * WINDOW_LEN] = 0.0
    zeroed = SourceSignal(id=live.id, samples=samples,
                          anomaly_spans=live.anomaly_spans,
                          dataset_tag=live.dataset_tag)
    sim = dataclasses.replace(cfg.sim, cloud_search_s=cloud_search_s,
                              eval_after_cloud_calls=eval_after)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(orchestrator, "init_tracker", checked_init_tracker)
        mp.setattr(orchestrator, "swap_in", checked_swap_in)
        mp.setattr(orchestrator, "tracker_step", checked_tracker_step)
        out = run_stream(zeroed, store, cfg.search, cfg.tracker, link, sim)

    times = [e.t_sim_us for e in out.timeline]
    assert times == sorted(times)
    n_windows = samples.size // WINDOW_LEN
    assert [e.detail["window"] for e in out.timeline
            if e.kind == "sample"] == list(range(n_windows))
    # calls are sequential: the i-th delivery is the one the i-th
    # swap_in (or dropped empty initial result) applies
    deliveries = [e.t_sim_us + e.detail["duration_us"]
                  for e in out.timeline if e.kind == "downlink"]
    applied = [e.t_sim_us for e in out.timeline
               if e.kind in ("swap_in", "initial_call_empty")]
    assert len(applied) <= len(deliveries)
    for t_applied, t_delivered in zip(applied, deliveries):
        assert t_delivered <= t_applied
    # the prediction, rederived from the timeline: the first anomaly
    # call made with eval_after swap_ins before it
    swaps = 0
    predicted = []
    for e in out.timeline:
        swaps += e.kind == "swap_in"
        if (e.kind == "track_step" and swaps >= eval_after
                and e.detail["classification"] == "anomaly_predicted"):
            predicted.append((e.detail["iteration"], e.t_sim_us / 1e6))
    assert out.prediction == (predicted[0] if predicted else None)
    for r in out.reports:
        assert 0.0 <= r.p_anomaly <= 1.0
    if not out.reports:
        assert out.final_classification == "undecided"


def with_samples(live, samples):
    return SourceSignal(id=live.id, samples=samples,
                        anomaly_spans=live.anomaly_spans,
                        dataset_tag=live.dataset_tag,
                        onset_sample=live.onset_sample)


def written_lines(out):
    """An outcome as the lines `emap simulate` writes for it."""
    return ([json.dumps(e.to_json_dict()) for e in out.timeline],
            [json.dumps(report_json_record(r, step_micros=0))
             for r in out.reports])


def test_evaluate_batch_runs_each_stream_as_run_stream(small_eval,
                                                       small_eval_streams):
    """evaluate_batch searches the windows of all streams together; each
    outcome is still run_stream's, byte for byte. Stream 0's first
    window is all zeros, which defers its call alone; stream 2 is 15 s
    of a 24 s world; stream 3 is noise that never gets candidates."""
    cfg, store, _live = small_eval
    s = small_eval_streams
    flat_start = s[0].samples.copy()
    flat_start[:WINDOW_LEN] = 0.0
    noise = np.random.default_rng(8).normal(0.0, 15.0, s[3].samples.size)
    corpus = [with_samples(s[0], flat_start), s[1],
              with_samples(s[2], s[2].samples[:15 * WINDOW_LEN]),
              with_samples(s[3], noise)]
    table = evaluate_batch(corpus, store, cfg.search, cfg.tracker, cfg.link,
                           cfg.sim)
    alone = [run_stream(live, store, cfg.search, cfg.tracker, cfg.link,
                        cfg.sim) for live in corpus]
    assert ([written_lines(out) for out in table.outcomes]
            == [written_lines(out) for out in alone])
    assert [[e.detail["window"] for e in out.timeline
             if e.kind == "cloud_call_deferred"]
            for out in table.outcomes] == [[0], [], [], []]
    assert [sum(e.kind == "sample" for e in out.timeline)
            for out in table.outcomes] == [24, 24, 15, 24]
    assert table.outcomes[1].reports and table.outcomes[2].reports
    assert table.outcomes[3].reports == []
    assert table.outcomes[3].final_classification == "undecided"


def test_evaluate_batch_raises_run_stream_error_on_a_nan(small_eval,
                                                         small_eval_streams):
    cfg, store, _live = small_eval
    s = small_eval_streams
    samples = s[1].samples.copy()
    samples[10 * WINDOW_LEN + 7] = np.nan
    bad = with_samples(s[1], samples)
    args = (store, cfg.search, cfg.tracker, cfg.link, cfg.sim)
    with pytest.raises(ValueError) as alone:
        run_stream(bad, *args)
    with pytest.raises(ValueError) as batch:
        evaluate_batch([s[0], bad, s[2]], *args)
    assert str(batch.value) == str(alone.value)
    assert "non-finite" in str(batch.value)


BATCH_DIGEST = """
import hashlib, json, sys
import numpy as np
from emap import MdbStore, evaluate_batch
from emap.cloud_search import sliding_search_many
from emap.dsp import SignalWindow, WINDOW_LEN
from emap.edge_tracker import report_json_record
from emap.scenarios import evaluation_world

world = evaluation_world(2026, n_anomalous=4, n_normal=4)
cfg = world.run_config
store = MdbStore.load(sys.argv[1])
table = evaluate_batch(world.streams, store, cfg.search, cfg.tracker,
                       cfg.link, cfg.sim)
digest = hashlib.sha256()
for out in table.outcomes:
    for record in ([e.to_json_dict() for e in out.timeline]
                   + [report_json_record(r, step_micros=0)
                      for r in out.reports]):
        digest.update(json.dumps(record).encode() + b"\\n")
rng = np.random.default_rng(5)
windows = []
for _ in range(40):
    live = world.streams[int(rng.integers(len(world.streams)))].samples
    start = int(rng.integers(live.size - WINDOW_LEN + 1))
    windows.append(SignalWindow(samples=live[start:start + WINDOW_LEN]))
many = hashlib.sha256()
for res in sliding_search_many(windows, store, cfg.search):
    many.update(repr((res.candidates, res.comparisons_made,
                      res.degenerate_skipped)).encode())
print(len(table.outcomes), digest.hexdigest(), len(windows), many.hexdigest())
"""


def test_evaluate_batch_is_identical_under_one_and_two_blas_threads(
        tmp_path):
    """The batched search scores windows that several streams share with
    a float32 matrix-matrix product, where one stream's search (`emap
    simulate`, criterion 11) makes only matrix-vector products. The
    same holds for 40 random stream windows in one sliding_search_many
    call, whose lattice screen multiplies by a 40-column query matrix.
    OpenBLAS sizes its thread pool when numpy is imported, so each count
    runs in its own process."""
    world = evaluation_world(2026, n_anomalous=4, n_normal=4)
    build_store(world.store_signals, tmp_path / "store")
    src = os.path.dirname(os.path.dirname(orchestrator.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH"))
                           if p)
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS=threads)
        digests.append(subprocess.run(
            [sys.executable, "-c", BATCH_DIGEST, str(tmp_path / "store")],
            env=env, check=True, capture_output=True, text=True).stdout)
    assert digests[0].split()[::2] == ["8", "40"]
    assert digests[0] == digests[1]
