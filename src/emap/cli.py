"""Command-line entry point for reproducible experiments.

Exit codes: 0 success, 2 bad arguments or config, 3 data errors,
4 budget violations under --strict.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import glob
import json
import os
import sys
import time

from . import dsp, scenarios
from .cloud_search import SearchConfig, alpha_sweep, exhaustive_search, sliding_search
from .edge_tracker import report_json_record
from .mdb import (INT64, CsvFormatError, MdbStore, build_store,
                  check_span_entries, ingest_csv)
from .orchestrator import BatchRow, RunConfig, evaluate_batch, run_stream

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_BUDGET = 4


class BudgetViolation(RuntimeError):
    pass


def _load_config(args) -> RunConfig:
    if args.config is not None:
        try:
            with open(args.config, encoding="utf-8") as fh:
                cfg = RunConfig.from_dict(json.load(fh))
        except (OSError, json.JSONDecodeError, TypeError, ValueError) as e:
            raise SystemExit(
                _usage_error(f"bad config file {args.config}: {e}"))
    else:
        cfg = RunConfig()
    if args.seed is not None:
        try:
            cfg = dataclasses.replace(cfg, seed=args.seed)
        except ValueError as e:
            raise SystemExit(_usage_error(f"--seed: {e}"))
    return cfg


def _usage_error(msg: str) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return EXIT_USAGE


# optional sidecar keys and the JSON types they take (bool is not an int
# here); sample_rate_hz, which must also be positive, is checked apart
_SIDECAR_TYPES = (("id", (int,), "an integer"),
                  ("onset_sample", (int, type(None)), "an integer or null"),
                  ("dataset_tag", (str,), "a string"),
                  ("spans", (list,), "an array"))


def _read_sidecar(csv_path):
    side = os.path.splitext(csv_path)[0] + ".json"
    if not os.path.exists(side):
        return {}
    try:
        with open(side, encoding="utf-8") as fh:
            meta = json.load(fh)
    except ValueError as e:     # not UTF-8, or not JSON
        raise ValueError(f"{side}: {e}") from None
    if not isinstance(meta, dict):
        raise ValueError(f"{side}: not a JSON object")
    rate = meta.get("sample_rate_hz", dsp.SAMPLE_RATE_HZ)
    if type(rate) is not int or not 0 < rate < 2 ** 63:
        raise ValueError(f"{side}: sample_rate_hz {rate!r} is not a "
                         "positive integer within int64")
    for key, types, json_type in _SIDECAR_TYPES:
        value = meta.get(key)
        if key in meta and type(value) not in types:
            raise ValueError(f"{side}: {key} {value!r} is not {json_type}")
        if type(value) is int and value not in INT64:
            raise ValueError(f"{side}: {key} {value} is outside int64")
    check_span_entries(meta.get("spans", []), side)
    return meta


def _ingest_with_sidecar(csv_path, default_id):
    meta = _read_sidecar(csv_path)
    return ingest_csv(
        csv_path,
        sample_rate_hz=meta.get("sample_rate_hz", dsp.SAMPLE_RATE_HZ),
        anomaly_spans=meta.get("spans", []),
        dataset_tag=meta.get("dataset_tag", ""),
        signal_id=meta.get("id", default_id),
        onset_sample=meta.get("onset_sample"))


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
    return {
        "candidates": [{"set_id": c.set_id, "omega": c.omega, "beta": c.beta}
                       for c in res.candidates],
        "comparisons_made": res.comparisons_made,
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

    def search(name, run):
        t0 = time.perf_counter()
        res = run(window, store, scfg)
        elapsed = time.perf_counter() - t0
        mean_w = (sum(c.omega for c in res.candidates) / len(res.candidates)
                  if res.candidates else 0.0)
        print(f"{name}: comparisons={res.comparisons_made} "
              f"candidates={len(res.candidates)} mean_omega={mean_w:.4f}")
        # wall time varies from run to run, so it goes to stderr only
        print(f"{name}: elapsed={elapsed:.4f}s", file=sys.stderr)
        return res

    if args.compare:
        fast = search("sliding", sliding_search)
        oracle = search("exhaustive", exhaustive_search)
        # undefined when the sliding scan compares nothing (a flat store)
        ratio = (oracle.comparisons_made / fast.comparisons_made
                 if fast.comparisons_made else None)
        print("comparison reduction: "
              + ("n/a" if ratio is None else f"{ratio:.2f}x"))
        payload = {"sliding": _result_json(fast),
                   "exhaustive": _result_json(oracle),
                   "comparison_reduction": ratio}
    else:
        res = (search("exhaustive", exhaustive_search) if args.exhaustive
               else search("sliding", sliding_search))
        payload = _result_json(res)

    if args.out is not None:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, allow_nan=False)
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
    hit = outcome.prediction
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
    # a BatchRow's fields are the columns; None writes as an empty field
    with open(path, "w", encoding="utf-8", newline="") as fh:
        out = csv.writer(fh, lineterminator="\n")
        out.writerow([f.name for f in dataclasses.fields(BatchRow)])
        out.writerows(dataclasses.astuple(r) for r in rows)


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


# -- entry point -------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="emap",
        description="Cloud-edge EEG anomaly prediction experiments")
    p.add_argument("--config", help="JSON run-config file")
    p.add_argument("--seed", type=int, help="override the config seed")
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
                    help="run both scans and print the reduction ratio "
                    "(n/a when the sliding scan compares nothing)")
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
