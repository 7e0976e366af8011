"""Simulated cloud-edge loop: timing, overlap, determinism, evaluation."""

import dataclasses
import math

import numpy as np
import pytest

from emap.cloud_search import sliding_search
from emap.dsp import SignalWindow, WINDOW_LEN
from emap.edge_tracker import init_tracker, tracker_step
from emap.mdb import SourceSignal, build_store
from emap.scenarios import evaluation_world
from emap.orchestrator import (
    LinkModel,
    RunConfig,
    SimConfig,
    TimingReport,
    evaluate_batch,
    predict_at_offsets,
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
    sim = SimConfig(cloud_search_time_mode="configured", cloud_search_s=2.8)
    out = run_stream(sc.live, store, sc.search_cfg, sc.tracker_cfg, link, sim)
    t = out.timing
    assert t.delta_ec_us == 1000
    assert t.delta_cs_us == 2_800_000
    assert t.delta_ce_us == 199_000
    assert t.delta_initial_us == 3_000_000
    assert t.delta_initial_us == t.delta_ec_us + t.delta_cs_us + t.delta_ce_us


def test_timing_report_rejects_broken_sum():
    with pytest.raises(ValueError):
        TimingReport(delta_ec_us=1, delta_cs_us=2, delta_ce_us=3,
                     delta_initial_us=7)


def test_zero_latency_run_equals_direct_tracking(prob_world):
    sc, store = prob_world
    sim = SimConfig(cloud_search_time_mode="configured", cloud_search_s=0.0)
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


def test_run_stream_input_validation(tmp_path, prob_world):
    sc, store = prob_world
    rng = np.random.default_rng(50)
    stub = SourceSignal(id=900, samples=rng.normal(0, 15, 300),
                        anomaly_spans=[], dataset_tag="unit")
    with pytest.raises(ValueError):
        run_stream(stub, store, sc.search_cfg, sc.tracker_cfg, ZERO_LINK,
                   SimConfig())
    empty_store = build_store([], tmp_path / "empty")
    ok = SourceSignal(id=901, samples=rng.normal(0, 15, 2048),
                      anomaly_spans=[], dataset_tag="unit")
    with pytest.raises(ValueError):
        run_stream(ok, empty_store, sc.search_cfg, sc.tracker_cfg,
                   ZERO_LINK, SimConfig())


def test_evaluation_rejects_store_overlap(eval_world):
    world, store = eval_world
    leaked = world.store_signals[0]
    cfg = world.run_config
    with pytest.raises(ValueError):
        evaluate_batch([leaked], store, cfg.search, cfg.tracker, cfg.link,
                       cfg.sim)


def test_evaluate_batch_shape_and_gate(eval_world):
    world, store = eval_world
    cfg = world.run_config
    streams = world.streams[:3] + world.streams[-3:]   # 3 anomalous, 3 normal
    sim = SimConfig(cloud_search_time_mode=cfg.sim.cloud_search_time_mode,
                    cloud_search_s=cfg.sim.cloud_search_s,
                    eval_after_cloud_calls=cfg.sim.eval_after_cloud_calls,
                    batch_size=3, report_step_micros=0)
    table = evaluate_batch(streams, store, cfg.search, cfg.tracker,
                           cfg.link, sim)
    assert [r.batch for r in table.rows] == ["0", "1", "mean"]
    assert sum(r.n for r in table.rows[:-1]) == 6
    for row in table.rows:
        assert 0.0 <= row.accuracy <= 1.0
        assert 0.0 <= row.false_positive_rate <= 1.0
    # the prediction gate: an anomalous outcome needs two applied cloud
    # responses before its latched prediction counts
    anomalous_out = table.outcomes[0]
    assert anomalous_out.truth_label == 1
    assert anomalous_out.first_prediction(min_transmissions=2) is not None
    late = anomalous_out.first_prediction(min_transmissions=99)
    assert late is None


def test_lead_time_measures_onset_gap(eval_world):
    world, store = eval_world
    cfg = world.run_config
    anom = next(s for s in world.streams if s.anomaly_spans)
    out = run_stream(anom, store, cfg.search, cfg.tracker, cfg.link, cfg.sim)
    hit = out.first_prediction(cfg.sim.eval_after_cloud_calls)
    assert hit is not None
    onset_s = anom.onset_sample / 256.0
    lead = out.lead_time_s(cfg.sim.eval_after_cloud_calls)
    assert lead == pytest.approx(onset_s - hit[1])
    assert lead > 0


def test_predict_at_offsets_truncation(eval_world):
    world, store = eval_world
    cfg = world.run_config
    anom = next(s for s in world.streams if s.anomaly_spans)
    rows = predict_at_offsets(anom, [2.0, 5.0], store, cfg.search,
                              cfg.tracker, cfg.link, cfg.sim)
    by_offset = {r["offset_s"]: r["predicted"] for r in rows}
    # prediction latches 3 s ahead of onset: visible with 2 s of margin
    # trimmed away, gone when the stream stops 5 s before onset
    assert by_offset[2.0] is True
    assert by_offset[5.0] is False
    with pytest.raises(ValueError):
        predict_at_offsets(anom, [100.0], store, cfg.search, cfg.tracker,
                           cfg.link, cfg.sim)
    normal = next(s for s in world.streams if not s.anomaly_spans)
    with pytest.raises(ValueError):
        predict_at_offsets(normal, [2.0], store, cfg.search, cfg.tracker,
                           cfg.link, cfg.sim)


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
    assert out.timing == dataclasses.replace(
        base.timing, step_micros=out.timing.step_micros)
    # one second late, the same initial set is tracked
    assert out.reports[0].timestep_index == base.reports[0].timestep_index + 1
    assert out.reports[0].alive == base.reports[0].alive
