"""Acceptance gate: one test per release criterion.

Each test prints exactly one line, `[criterion NN] <name>: PASS|FAIL
(<measured values>)`, then asserts. Criteria run in numbered order and
reuse the session corpora from conftest, so the whole gate is seeded
and reproducible.
"""

import math
import os
import subprocess
import sys
import time

import numpy as np

from emap import cli as emap_cli
from emap.cloud_search import SearchConfig, exhaustive_search, sliding_search
from emap.dsp import SignalWindow, WINDOW_LEN, apply_filter, area_between, design_bandpass, xcorr
from emap.edge_tracker import init_tracker, tracker_step
from emap.mdb import get_parent_segment
from emap.orchestrator import LinkModel, evaluate_batch, run_stream


def _line(capsys, num, name, ok, detail):
    with capsys.disabled():
        print(f"[criterion {num:02d}] {name}: {'PASS' if ok else 'FAIL'} "
              f"({detail})")


def _window_at(samples, i):
    return SignalWindow(samples=samples[i * WINDOW_LEN:(i + 1) * WINDOW_LEN],
                        timestep_index=i)


# -- 1: oracle equivalence ---------------------------------------------------

def _naive_filter(x, taps):
    y = np.zeros(x.size)
    for k in range(x.size):
        acc = 0.0
        for i in range(taps.size):
            if k - i >= 0:
                acc += taps[i] * x[k - i]
        y[k] = acc
    return y


def _naive_xcorr(a, b):
    num = math.fsum(float(ai) * float(bi) for ai, bi in zip(a, b))
    ea = math.fsum(float(v) * float(v) for v in a)
    eb = math.fsum(float(v) * float(v) for v in b)
    return num / math.sqrt(ea * eb)


def _naive_area(a, b):
    return math.fsum(abs(float(ai) - float(bi)) for ai, bi in zip(a, b))


def test_c01_dsp_oracle_equivalence(capsys):
    rng = np.random.default_rng(101)
    taps = design_bandpass()
    t0 = time.perf_counter()
    worst_f = worst_x = 0.0
    area_exact = True
    for _ in range(100):
        sig = rng.normal(0.0, 15.0, 120)
        worst_f = max(worst_f, float(np.max(np.abs(
            apply_filter(sig, taps) - _naive_filter(sig, taps)))))
        a = rng.normal(0.0, 15.0, WINDOW_LEN)
        b = rng.normal(0.0, 15.0, WINDOW_LEN)
        worst_x = max(worst_x, abs(xcorr(a, b) - _naive_xcorr(a, b)))
        if area_between(a, b) != _naive_area(a, b):
            area_exact = False
    elapsed = time.perf_counter() - t0
    ok = worst_f <= 1e-9 and worst_x <= 1e-9 and area_exact and elapsed < 5.0
    _line(capsys, 1, "dsp oracle equivalence", ok,
          f"filter diff {worst_f:.2e}, xcorr diff {worst_x:.2e}, "
          f"area exact={area_exact}, {elapsed:.2f}s")
    assert worst_f <= 1e-9
    assert worst_x <= 1e-9
    assert area_exact
    assert elapsed < 5.0


# -- 2: filter selectivity ---------------------------------------------------

def test_c02_filter_selectivity(capsys):
    t0 = time.perf_counter()
    taps = design_bandpass()
    t = np.arange(512) / 256.0

    def steady_rms(hz):
        y = apply_filter(np.sin(2 * np.pi * hz * t), taps)[100:]
        return float(np.sqrt(np.mean(y * y)))

    r_pass = steady_rms(25.0)
    ratio_low = r_pass / steady_rms(5.0)
    ratio_high = r_pass / steady_rms(60.0)
    elapsed = time.perf_counter() - t0
    ok = ratio_low >= 7.0 and ratio_high >= 7.0 and elapsed < 1.0
    _line(capsys, 2, "filter selectivity", ok,
          f"25Hz/5Hz {ratio_low:.0f}x, 25Hz/60Hz {ratio_high:.0f}x, "
          f"{elapsed:.2f}s")
    assert ratio_low >= 7.0
    assert ratio_high >= 7.0
    assert elapsed < 1.0


# -- 3-5 share one set of searches over the parity corpus --------------------

_parity_cache: dict = {}


def _parity_runs(parity_world):
    if "runs" not in _parity_cache:
        corpus, store = parity_world
        cfg = SearchConfig()
        t0 = time.perf_counter()
        runs = [(sliding_search(q, store, cfg, record_trace=True),
                 exhaustive_search(q, store, cfg))
                for q in corpus.queries]
        _parity_cache["elapsed"] = time.perf_counter() - t0
        _parity_cache["runs"] = runs
        _parity_cache["store"] = store
        _parity_cache["corpus"] = corpus
    return _parity_cache


def test_c03_search_quality_parity(capsys, parity_world):
    cache = _parity_runs(parity_world)
    store, runs = cache["store"], cache["runs"]
    assert store.num_slices >= 200
    assert len(runs) == 20
    mean_fast = float(np.mean(
        [np.mean([c.omega for c in fast.candidates]) for fast, _ in runs]))
    mean_slow = float(np.mean(
        [np.mean([c.omega for c in slow.candidates]) for _, slow in runs]))
    elapsed = cache["elapsed"]
    ok = mean_fast >= 0.95 * mean_slow and elapsed < 60.0
    _line(capsys, 3, "search quality parity", ok,
          f"sliding mean omega {mean_fast:.4f} vs exhaustive "
          f"{mean_slow:.4f}, ratio {mean_fast / mean_slow:.4f} >= 0.95, "
          f"{store.num_slices} slices, 20 queries, {elapsed:.1f}s")
    assert mean_fast >= 0.95 * mean_slow
    assert elapsed < 60.0


def test_c04_pruning_ratio(capsys, parity_world):
    cache = _parity_runs(parity_world)
    runs = cache["runs"]
    fast_total = sum(fast.comparisons_made for fast, _ in runs)
    slow_total = sum(slow.comparisons_made for _, slow in runs)
    ratio = slow_total / fast_total
    ok = ratio >= 5.0
    _line(capsys, 4, "pruning ratio", ok,
          f"exhaustive {slow_total} / sliding {fast_total} comparisons "
          f"= {ratio:.1f}x >= 5x")
    assert ratio >= 5.0


def test_c05_step_formula_conformance(capsys, parity_world):
    cache = _parity_runs(parity_world)
    zero_steps = []
    unit_steps = []
    for fast, _ in cache["runs"]:
        for _set_id, _beta, omega, clamped, step in fast.trace:
            if clamped == 0.0:
                zero_steps.append(step)
            if omega >= 0.999:
                unit_steps.append(step)
    ok = (len(zero_steps) > 0 and len(unit_steps) > 0
          and all(s == 250 for s in zero_steps)
          and all(s == 1 for s in unit_steps))
    _line(capsys, 5, "step formula conformance", ok,
          f"{len(zero_steps)} zero-similarity steps all "
          f"{sorted(set(zero_steps))}, {len(unit_steps)} near-match steps "
          f"all {sorted(set(unit_steps))}")
    assert zero_steps and unit_steps
    assert all(s == 250 for s in zero_steps)
    assert all(s == 1 for s in unit_steps)


# -- 6: probability growth ---------------------------------------------------

def test_c06_probability_growth(capsys, prob_world):
    sc, store = prob_world
    t0 = time.perf_counter()
    res = sliding_search(_window_at(sc.live.samples, 0), store, sc.search_cfg)
    state = init_tracker(res, store, sc.tracker_cfg)
    n_tracked = len(state.tracked)
    n_anom = sum(c.label for c in state.tracked)
    for it in range(1, 6):
        tracker_step(state, _window_at(sc.live.samples, it), store)
    elapsed = time.perf_counter() - t0
    hist = state.pa_history
    increasing = all(b > a for a, b in zip(hist, hist[1:]))
    ok = (n_tracked == 100 and abs(n_anom - 22) <= 3
          and hist[-1] >= 0.60 and increasing and elapsed < 30.0)
    _line(capsys, 6, "probability growth", ok,
          f"initial {n_anom}/100 anomalous, P_A "
          f"{' -> '.join(f'{p:.2f}' for p in hist)}, {elapsed:.1f}s")
    assert n_tracked == 100
    assert abs(n_anom - 22) <= 3
    assert hist[-1] >= 0.60
    assert increasing
    assert elapsed < 30.0


# -- 7: removal soundness ----------------------------------------------------

def test_c07_removal_soundness(capsys, prob_world):
    sc, store = prob_world
    res = sliding_search(_window_at(sc.live.samples, 0), store, sc.search_cfg)
    state = init_tracker(res, store, sc.tracker_cfg)
    thresh = sc.tracker_cfg.area_threshold
    removals = survivors = 0
    sound = True
    for it in range(1, 6):
        snapshot = {c.set_id: c.cursor for c in state.tracked}
        win = _window_at(sc.live.samples, it)
        rep = tracker_step(state, win, store)
        for rem in rep.removed_dissimilar:
            _, _pid, poff, _, _ = store.slice_meta(rem.set_id)
            seg = get_parent_segment(store, rem.set_id,
                                     snapshot[rem.set_id] - poff, WINDOW_LEN)
            a = area_between(win.samples, seg)
            sound &= (a == rem.area) and (a > thresh)
            removals += 1
        for cand in state.tracked:
            seg = get_parent_segment(store, cand.set_id,
                                     snapshot[cand.set_id] - cand.parent_offset,
                                     WINDOW_LEN)
            sound &= area_between(win.samples, seg) <= thresh
            survivors += 1
    ok = sound and removals > 0 and survivors > 0
    _line(capsys, 7, "removal soundness", ok,
          f"{removals} removals all above threshold with exact logged "
          f"areas, {survivors} survivor checks all at or below")
    assert sound
    assert removals > 0 and survivors > 0


# -- 8: timing model ---------------------------------------------------------

def test_c08_timing_model(capsys, overlap_world):
    sc, store = overlap_world
    link = LinkModel()
    up = link.uplink_latency(256)
    down = link.downlink_latency(100)

    out = run_stream(sc.live, store, sc.search_cfg, sc.tracker_cfg,
                     sc.link, sc.sim)
    t = out.timing
    additive = (t.delta_initial_us
                == t.delta_ec_us + t.delta_cs_us + t.delta_ce_us)

    req = next(e.t_sim_us for e in out.timeline
               if e.kind == "cloud_call_request")
    swap = next(e.t_sim_us for e in out.timeline
                if e.kind == "swap_in" and e.t_sim_us > req)
    down_ev = next(e for e in out.timeline
                   if e.kind == "downlink" and req < e.t_sim_us <= swap)
    cs_us = int(round(sc.sim.cloud_search_s * 1e6))
    need = math.ceil((cs_us + down_ev.detail["duration_us"]) / 1e6)
    # the swap applies at the first boundary at or after delivery, so
    # the span from request through that boundary holds ceil(delta)
    # one-second iterations, all served from the old candidate set
    # (the refresh here is empty, so the set carries over)
    served = [e for e in out.timeline
              if e.kind == "track_step" and req < e.t_sim_us <= swap]
    no_stall = all(b.t_sim_us - a.t_sim_us == 1_000_000
                   for a, b in zip(served, served[1:]))
    ok = (additive and up <= 1000 and down <= 200_000
          and len(served) >= need and no_stall)
    _line(capsys, 8, "timing model", ok,
          f"delta sum exact={additive}, uplink(256)={up}us <= 1ms, "
          f"downlink(100)={down}us <= 200ms, {len(served)} old-set "
          f"iterations across the in-flight span (need >= {need}), "
          f"gapless={no_stall}")
    assert additive
    assert up <= 1000
    assert down <= 200_000
    assert len(served) >= need
    assert no_stall


# -- 9: edge real-time bound -------------------------------------------------

def test_c09_edge_step_wall_time(capsys, prob_world):
    sc, store = prob_world
    res = sliding_search(_window_at(sc.live.samples, 0), store, sc.search_cfg)
    state = init_tracker(res, store, sc.tracker_cfg)
    alive = len(state.tracked)
    win = _window_at(sc.live.samples, 1)
    t0 = time.perf_counter()
    rep = tracker_step(state, win, store)
    wall_ms = (time.perf_counter() - t0) * 1e3
    ok = alive == 100 and wall_ms < 100.0
    _line(capsys, 9, "edge real-time bound", ok,
          f"one step over {rep.area_computations} candidates took "
          f"{wall_ms:.2f}ms < 100ms")
    assert alive == 100
    assert rep.area_computations == 100
    assert wall_ms < 100.0


# -- 10: end-to-end synthetic accuracy ---------------------------------------

def test_c10_synthetic_accuracy(capsys, eval_world):
    world, store = eval_world
    cfg = world.run_config
    n_anom = sum(1 for s in world.streams if s.anomaly_spans)
    n_norm = len(world.streams) - n_anom
    t0 = time.perf_counter()
    table = evaluate_batch(world.streams, store, cfg.search, cfg.tracker,
                           cfg.link, cfg.sim)
    elapsed = time.perf_counter() - t0
    m = table.mean_row
    lead = "n/a" if m.mean_lead_time_s is None else f"{m.mean_lead_time_s:.1f}s"
    ok = (n_anom == 20 and n_norm == 20 and m.accuracy >= 0.90
          and m.false_positive_rate <= 0.20 and elapsed < 300.0)
    _line(capsys, 10, "end-to-end synthetic accuracy", ok,
          f"20+20 streams, kind={m.anomaly_kind}, accuracy "
          f"{m.accuracy:.2f} >= 0.90, false positives "
          f"{m.false_positive_rate:.2f} <= 0.20, mean lead {lead}, "
          f"{elapsed:.0f}s")
    assert n_anom == 20 and n_norm == 20
    assert m.accuracy >= 0.90
    assert m.false_positive_rate <= 0.20
    assert elapsed < 300.0


# -- 11: determinism ---------------------------------------------------------

def test_c11_determinism(capsys, cli_world, tmp_path):
    # the float32 screen's np.matmul is where a search can use more
    # than one BLAS thread, and OpenBLAS sizes its thread pool when
    # numpy is imported, so each count runs `emap simulate` in its own
    # process
    live = sorted(cli_world["eval"].glob("*.csv"))[0]
    src = os.path.dirname(os.path.dirname(emap_cli.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH"))
                           if p)
    blobs = []
    for tag, blas_threads in (("a", "1"), ("b", "1"), ("c", "2")):
        out = tmp_path / tag
        env = dict(os.environ, PYTHONPATH=path,
                   OPENBLAS_NUM_THREADS=blas_threads)
        subprocess.run([sys.executable, "-m", "emap.cli",
                        "--config", str(cli_world["config"]), "simulate",
                        "--store", str(cli_world["store"]),
                        "--live", str(live), "--out", str(out)],
                       env=env, check=True, capture_output=True)
        blobs.append(((out / "timeline.jsonl").read_bytes(),
                      (out / "reports.jsonl").read_bytes()))
    same_seed = blobs[0] == blobs[1]
    same_blas = blobs[0] == blobs[2]
    ok = same_seed and same_blas
    _line(capsys, 11, "determinism", ok,
          f"repeat run byte-identical={same_seed}, OPENBLAS_NUM_THREADS "
          f"1 vs 2 byte-identical={same_blas}")
    assert same_seed
    assert same_blas
