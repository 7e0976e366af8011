"""Command-line entry point for reproducible experiments.

Exit codes: 0 success, 2 bad arguments or config, 3 data errors,
4 budget violations under --strict.
"""

from __future__ import annotations

import argparse
import dataclasses
import glob
import json
import os
import sys
import time

import numpy as np

from . import dsp, scenarios
from .cloud_search import SearchConfig, alpha_sweep, exhaustive_search, sliding_search
from .edge_tracker import init_tracker, report_json_record, tracker_step
from .mdb import CsvFormatError, MdbStore, build_store, ingest_csv
from .orchestrator import RunConfig, evaluate_batch, run_stream

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_BUDGET = 4


class BudgetViolation(RuntimeError):
    pass


def _load_config(args) -> RunConfig:
    if args.config:
        try:
            with open(args.config, encoding="utf-8") as fh:
                cfg = RunConfig.from_dict(json.load(fh))
        except (OSError, json.JSONDecodeError, TypeError, ValueError) as e:
            raise SystemExit(
                _usage_error(f"bad config file {args.config}: {e}"))
    else:
        cfg = RunConfig()
    if args.seed is not None:
        cfg.seed = args.seed
    if args.threads is not None:
        if args.threads < 1:
            raise SystemExit(_usage_error("--threads must be >= 1"))
        cfg.search.workers = args.threads
    return cfg


def _usage_error(msg: str) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return EXIT_USAGE


def _read_sidecar(csv_path):
    side = os.path.splitext(csv_path)[0] + ".json"
    if not os.path.exists(side):
        return {}
    with open(side, encoding="utf-8") as fh:
        meta = json.load(fh)
    if not isinstance(meta, dict):
        raise ValueError(f"{side}: not a JSON object")
    rate = meta.get("sample_rate_hz", dsp.SAMPLE_RATE_HZ)
    if type(rate) is not int or rate <= 0:    # bool is not an int here
        raise ValueError(f"{side}: sample_rate_hz {rate!r} is not a "
                         "positive integer")
    return meta


def _ingest_with_sidecar(csv_path, default_id):
    meta = _read_sidecar(csv_path)
    sig = ingest_csv(
        csv_path,
        sample_rate_hz=meta.get("sample_rate_hz", dsp.SAMPLE_RATE_HZ),
        anomaly_spans=[tuple(s) for s in meta.get("spans", [])],
        dataset_tag=meta.get("dataset_tag", ""),
        signal_id=int(meta.get("id", default_id)))
    if meta.get("onset_sample") is not None:
        sig.onset_sample = int(meta["onset_sample"])
    return sig


def _corpus_from_dir(in_dir):
    paths = sorted(glob.glob(os.path.join(in_dir, "*.csv")))
    if not paths:
        raise ValueError(f"no .csv files in {in_dir}")
    return [_ingest_with_sidecar(p, i) for i, p in enumerate(paths)]


# -- subcommands -----------------------------------------------------------

def _check_synth_args(args):
    for flag, count in (("--normal", args.normal),
                        ("--anomalous", args.anomalous)):
        if count < 0:
            raise SystemExit(_usage_error(f"{flag} must be >= 0, got {count}"))
    try:
        scenarios.synth_length_samples(args.length_s)
    except ValueError as e:
        raise SystemExit(_usage_error(f"--length-s: {e}"))


def cmd_synth(args, cfg: RunConfig) -> int:
    _check_synth_args(args)
    if args.mode == "corpus":
        signals = scenarios.synth_corpus(cfg.seed, args.normal,
                                         args.anomalous,
                                         anomaly_kind=args.kind,
                                         length_s=args.length_s)
        scenarios.write_corpus_csv(signals, args.out)
        n_anom = sum(1 for s in signals if s.anomaly_spans)
        print(f"wrote {len(signals)} signals to {args.out} "
              f"({n_anom} anomalous, kind={args.kind})")
    else:
        world = scenarios.evaluation_world(cfg.seed,
                                           n_anomalous=args.anomalous,
                                           n_normal=args.normal)
        scenarios.write_corpus_csv(world.store_signals,
                                   os.path.join(args.out, "store"))
        scenarios.write_corpus_csv(world.streams,
                                   os.path.join(args.out, "eval"))
        with open(os.path.join(args.out, "config.json"), "w",
                  encoding="utf-8") as fh:
            json.dump(world.run_config.to_dict(), fh, indent=2,
                      sort_keys=True)
            fh.write("\n")
        n_anom = sum(1 for s in world.streams if s.anomaly_spans)
        print(f"wrote evaluation world to {args.out}: "
              f"{len(world.store_signals)} store signals, "
              f"{len(world.streams)} streams ({n_anom} anomalous)")
    return EXIT_OK


def cmd_build_mdb(args, cfg: RunConfig) -> int:
    signals = _corpus_from_dir(args.in_dir)
    store = build_store(signals, args.out)
    labels = [store.slice_meta(i)[3] for i in range(store.num_slices)]
    print(f"built store at {args.out}: {len(signals)} signals, "
          f"{store.num_slices} slices, {sum(labels)} anomalous slices")
    return EXIT_OK


def _load_query_window(csv_path):
    sig = _ingest_with_sidecar(csv_path, 0)
    if sig.samples.size < dsp.WINDOW_LEN:
        raise ValueError(f"{csv_path}: needs at least {dsp.WINDOW_LEN} samples")
    return dsp.SignalWindow(samples=sig.samples[:dsp.WINDOW_LEN],
                            timestep_index=0)


def _result_json(res) -> dict:
    # elapsed is wall time and would break byte-determinism; it goes to
    # stderr instead of the result file
    return {
        "candidates": [{"set_id": c.set_id, "omega": c.omega, "beta": c.beta}
                       for c in res.candidates],
        "comparisons_made": res.comparisons_made,
        "slices_scanned": res.slices_scanned,
        "degenerate_skipped": res.degenerate_skipped,
    }


def cmd_search(args, cfg: RunConfig) -> int:
    store = MdbStore.load(args.store)
    window = _load_query_window(args.input)
    overrides = {k: v for k, v in (("alpha", args.alpha),
                                   ("delta", args.delta)) if v is not None}
    try:
        scfg = dataclasses.replace(cfg.search, **overrides)
    except ValueError as e:
        raise SystemExit(_usage_error(str(e)))

    def describe(name, res):
        mean_w = (sum(c.omega for c in res.candidates) / len(res.candidates)
                  if res.candidates else 0.0)
        print(f"{name}: comparisons={res.comparisons_made} "
              f"candidates={len(res.candidates)} mean_omega={mean_w:.4f}")
        print(f"{name}: elapsed={res.elapsed:.4f}s", file=sys.stderr)

    if args.compare:
        fast = sliding_search(window, store, scfg)
        oracle = exhaustive_search(window, store, scfg)
        describe("sliding", fast)
        describe("exhaustive", oracle)
        ratio = (oracle.comparisons_made / fast.comparisons_made
                 if fast.comparisons_made else float("inf"))
        print(f"comparison reduction: {ratio:.2f}x")
        payload = {"sliding": _result_json(fast),
                   "exhaustive": _result_json(oracle),
                   "comparison_reduction": ratio}
    else:
        run = exhaustive_search if args.exhaustive else sliding_search
        res = run(window, store, scfg)
        describe("exhaustive" if args.exhaustive else "sliding", res)
        payload = _result_json(res)

    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
    return EXIT_OK


def _check_budgets(cfg: RunConfig, outcomes) -> None:
    up = cfg.link.uplink_latency(dsp.WINDOW_LEN)
    if up > 1000:
        raise BudgetViolation(
            f"uplink({dsp.WINDOW_LEN}) = {up} us exceeds the 1 ms budget")
    down = cfg.link.downlink_latency(100)
    if down > 200_000:
        raise BudgetViolation(
            f"downlink(100) = {down} us exceeds the 200 ms budget")
    worst = max((r.step_micros for o in outcomes for r in o.reports),
                default=0)
    if worst >= 1_000_000:
        raise BudgetViolation(
            f"tracker step took {worst} us, breaking the 1 s real-time bound")


def cmd_simulate(args, cfg: RunConfig) -> int:
    store = MdbStore.load(args.store)
    live = _ingest_with_sidecar(args.live, 0)
    outcome = run_stream(live, store, cfg.search, cfg.tracker, cfg.link,
                         cfg.sim)
    os.makedirs(args.out, exist_ok=True)
    timeline_path = os.path.join(args.out, "timeline.jsonl")
    reports_path = os.path.join(args.out, "reports.jsonl")
    with open(timeline_path, "w", encoding="utf-8") as fh:
        for ev in outcome.timeline:
            fh.write(json.dumps(ev.to_json_dict()))
            fh.write("\n")
    with open(reports_path, "w", encoding="utf-8") as fh:
        for rep in outcome.reports:
            fh.write(json.dumps(report_json_record(
                rep, step_micros=cfg.sim.report_step_micros)))
            fh.write("\n")
    hit = outcome.first_prediction(cfg.sim.eval_after_cloud_calls)
    print(f"final classification: {outcome.final_classification}")
    print("anomaly predicted at "
          f"t={hit[1]:.0f}s (iteration {hit[0]})" if hit
          else "no anomaly predicted")
    if outcome.timing:
        t = outcome.timing
        print(f"initial overhead: {t.delta_initial_us / 1e6:.6f}s "
              f"(uplink {t.delta_ec_us}us, search {t.delta_cs_us}us, "
              f"downlink {t.delta_ce_us}us)")
    print(f"wrote {timeline_path} and {reports_path}")
    if args.strict:
        _check_budgets(cfg, [outcome])
    return EXIT_OK


def _write_accuracy_csv(path, rows):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("batch,anomaly_kind,n,accuracy,false_positive_rate,"
                 "mean_lead_time_s\n")
        for r in rows:
            lead = "" if r.mean_lead_time_s is None else repr(r.mean_lead_time_s)
            fh.write(f"{r.batch},{r.anomaly_kind},{r.n},{r.accuracy!r},"
                     f"{r.false_positive_rate!r},{lead}\n")


def cmd_evaluate(args, cfg: RunConfig) -> int:
    store = MdbStore.load(args.store)
    corpus = _corpus_from_dir(args.corpus)
    table = evaluate_batch(corpus, store, cfg.search, cfg.tracker,
                           cfg.link, cfg.sim)
    _write_accuracy_csv(args.out, table.rows)
    m = table.mean_row
    print(f"evaluated {len(corpus)} streams: accuracy={m.accuracy:.4f} "
          f"false_positive_rate={m.false_positive_rate:.4f} "
          f"mean_lead_time_s="
          f"{'n/a' if m.mean_lead_time_s is None else f'{m.mean_lead_time_s:.2f}'}")
    print(f"wrote {args.out}")
    if args.strict:
        _check_budgets(cfg, table.outcomes)
    return EXIT_OK


def _parse_alphas(text, search: SearchConfig):
    try:
        alphas = [float(a) for a in text.split(",") if a]
        for alpha in alphas:
            dataclasses.replace(search, alpha=alpha)
    except ValueError as e:
        raise SystemExit(_usage_error(f"--alphas {text!r}: {e}"))
    if not alphas:
        raise SystemExit(_usage_error("--alphas must list at least one value"))
    return alphas


def cmd_sweep_alpha(args, cfg: RunConfig) -> int:
    alphas = _parse_alphas(args.alphas, cfg.search)
    store = MdbStore.load(args.store)
    paths = sorted(glob.glob(os.path.join(args.inputs, "*.csv")))
    if not paths:
        raise ValueError(f"no .csv files in {args.inputs}")
    windows = [_load_query_window(p) for p in paths]
    rows = alpha_sweep(windows, store, alphas, base_cfg=cfg.search)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write("alpha,mean_comparisons,mean_matches,mean_top100_omega\n")
        for r in rows:
            fh.write(f"{r.alpha!r},{r.mean_comparisons!r},"
                     f"{r.mean_matches!r},{r.mean_top100_omega!r}\n")
    for r in rows:
        print(f"alpha={r.alpha}: comparisons={r.mean_comparisons:.1f} "
              f"matches={r.mean_matches:.1f} "
              f"top100_omega={r.mean_top100_omega:.4f}")
    print(f"wrote {args.out}")
    return EXIT_OK


def cmd_bench(args, cfg: RunConfig) -> int:
    rng = np.random.default_rng(cfg.seed)
    a = rng.normal(0, 15, dsp.WINDOW_LEN)
    b = rng.normal(0, 15, dsp.WINDOW_LEN)

    def time_fn(fn, reps):
        t0 = time.perf_counter()
        for _ in range(reps):
            fn()
        return (time.perf_counter() - t0) / reps

    reps = 2000
    t_x = time_fn(lambda: dsp.xcorr(a, b), reps)
    t_a = time_fn(lambda: dsp.area_between(a, b), reps)
    print(f"xcorr per window:        {t_x * 1e6:9.2f} us")
    print(f"area per window:         {t_a * 1e6:9.2f} us")
    print(f"wall ratio xcorr/area:   {t_x / t_a:9.2f}x "
          f"(operation-count model: "
          f"{dsp.XCORR_OPS_PER_WINDOW / dsp.AREA_OPS_PER_WINDOW:.2f}x)")

    if args.store:
        store = MdbStore.load(args.store)
    else:
        corpus = scenarios.parity_corpus(cfg.seed)
        store = build_store(corpus.store_signals,
                            os.path.join(args.workdir, "bench_store"))
    q = dsp.SignalWindow(samples=store.get_slice(0).samples[:dsp.WINDOW_LEN],
                         timestep_index=0)
    fast = sliding_search(q, store, cfg.search)
    oracle = exhaustive_search(q, store, cfg.search)
    print(f"sliding search:          {fast.comparisons_made} comparisons, "
          f"{fast.elapsed:.4f}s")
    print(f"exhaustive search:       {oracle.comparisons_made} comparisons, "
          f"{oracle.elapsed:.4f}s")
    print(f"comparison reduction:    "
          f"{oracle.comparisons_made / max(fast.comparisons_made, 1):.2f}x; "
          f"wall speedup {oracle.elapsed / max(fast.elapsed, 1e-9):.2f}x")

    res = sliding_search(q, store, SearchConfig(
        alpha=cfg.search.alpha, delta=-0.99, top_k=100))
    if res.candidates:
        state = init_tracker(res, store, cfg.tracker)
        live = dsp.SignalWindow(samples=rng.normal(0, 15, dsp.WINDOW_LEN),
                                timestep_index=1)
        rep = tracker_step(state, live, store)
        print(f"tracker step over {rep.area_computations} candidates: "
              f"{rep.step_micros} us")
    return EXIT_OK


# -- entry point -------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="emap",
        description="Cloud-edge EEG anomaly prediction experiments")
    p.add_argument("--config", help="JSON run-config file")
    p.add_argument("--seed", type=int, help="override the config seed")
    p.add_argument("--threads", type=int,
                   help="threads that scan chunks of the store in "
                        "parallel (results are identical for any value)")
    p.add_argument("--strict", action="store_true",
                   help="fail with exit code 4 on latency/real-time "
                        "budget violations")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("synth", help="generate a synthetic corpus")
    sp.add_argument("--out", required=True)
    sp.add_argument("--mode", choices=("corpus", "eval-scenario"),
                    default="corpus")
    sp.add_argument("--normal", type=int, default=10)
    sp.add_argument("--anomalous", type=int, default=10)
    sp.add_argument("--kind", default="seizure")
    sp.add_argument("--length-s", type=float, default=20.0)
    sp.set_defaults(fn=cmd_synth)

    bp = sub.add_parser("build-mdb", help="ingest CSVs and build a store")
    bp.add_argument("--in", dest="in_dir", required=True)
    bp.add_argument("--out", required=True)
    bp.set_defaults(fn=cmd_build_mdb)

    qp = sub.add_parser("search", help="run one correlation search")
    qp.add_argument("--store", required=True)
    qp.add_argument("--input", required=True, help="CSV; first 256 samples")
    qp.add_argument("--alpha", type=float)
    qp.add_argument("--delta", type=float)
    qp.add_argument("--exhaustive", action="store_true")
    qp.add_argument("--compare", action="store_true",
                    help="run both scans and print the reduction ratio")
    qp.add_argument("--out", help="write the result as JSON")
    qp.set_defaults(fn=cmd_search)

    mp = sub.add_parser("simulate", help="simulate the loop on one stream")
    mp.add_argument("--store", required=True)
    mp.add_argument("--live", required=True)
    mp.add_argument("--out", default=".")
    mp.set_defaults(fn=cmd_simulate)

    ep = sub.add_parser("evaluate", help="score predictions over a corpus")
    ep.add_argument("--store", required=True)
    ep.add_argument("--corpus", required=True)
    ep.add_argument("--out", default="accuracy.csv")
    ep.set_defaults(fn=cmd_evaluate)

    wp = sub.add_parser("sweep-alpha", help="search statistics per alpha")
    wp.add_argument("--store", required=True)
    wp.add_argument("--inputs", required=True)
    wp.add_argument("--alphas", default="0.001,0.004,0.02,0.1")
    wp.add_argument("--out", default="sweep.csv")
    wp.set_defaults(fn=cmd_sweep_alpha)

    np_ = sub.add_parser("bench", help="report wall-clock figures")
    np_.add_argument("--store")
    np_.add_argument("--workdir", default=".")
    np_.set_defaults(fn=cmd_bench)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = _load_config(args)
        return args.fn(args, cfg)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else EXIT_USAGE
    except BudgetViolation as e:
        print(f"budget violation: {e}", file=sys.stderr)
        return EXIT_BUDGET
    except (CsvFormatError, OSError, json.JSONDecodeError, ValueError) as e:
        print(f"data error: {e}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
