"""End-to-end checks of the command-line interface.

Everything here drives `emap.cli.main` in process: same code path as
the installed `emap` script, but with capturable output and no
subprocess overhead.
"""

import csv
import itertools
import json
import shutil
import sys
import tempfile
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from emap import cli as emap_cli
from emap import edge_tracker, scenarios
from emap.cloud_search import SearchConfig, alpha_sweep
from emap.mdb import MdbStore, SourceSignal, build_store
from emap.orchestrator import RunConfig, evaluate_batch, run_stream


BIG = 10 ** 400   # beyond int64 and float64 alike


def write_signal_csv(path, samples):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# unit fixture\n")
        for v in samples:
            fh.write(f"{float(v)!r}\n")


@pytest.fixture()
def tiny_store(tmp_path):
    """One 1000-sample raw parent, filtered and stored via the CLI.

    Returns (store_dir, raw_samples). A query made from the raw prefix
    matches the stored slice exactly: the filter is causal, so
    filtering the first 256 raw samples reproduces the first 256
    filtered ones bit for bit.
    """
    rng = np.random.default_rng(77)
    samples = rng.normal(0.0, 15.0, 1000)
    raw = tmp_path / "raw"
    raw.mkdir()
    write_signal_csv(raw / "sig0.csv", samples)
    out = tmp_path / "store"
    rc = emap_cli.main(["build-mdb", "--in", str(raw), "--out", str(out)])
    assert rc == 0
    return out, samples


def test_search_exhaustive_visits_every_offset(tiny_store, tmp_path, capsys):
    store_dir, raw = tiny_store
    q = tmp_path / "query.csv"
    write_signal_csv(q, raw[:256])
    res_path = tmp_path / "res.json"
    rc = emap_cli.main(["search", "--store", str(store_dir),
                        "--input", str(q), "--exhaustive",
                        "--out", str(res_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "comparisons=745" in out
    payload = json.loads(res_path.read_text())
    assert payload["comparisons_made"] == 745
    # the store holds float32-quantized slices, the query stays float64,
    # so the planted match lands a few ulp under 1
    assert payload["candidates"][0]["omega"] == pytest.approx(1.0, abs=1e-12)
    assert payload["candidates"][0]["beta"] == 0


def test_search_compare_reports_reduction(tiny_store, tmp_path, capsys):
    store_dir, raw = tiny_store
    q = tmp_path / "query.csv"
    write_signal_csv(q, raw[:256])
    rc = emap_cli.main(["search", "--store", str(store_dir),
                        "--input", str(q), "--compare"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "sliding:" in out and "exhaustive:" in out
    assert "comparison reduction:" in out


def test_search_compare_on_a_flat_store_writes_strict_json(tmp_path, capsys):
    """The sliding scan makes no comparison on an all-zero store, so the
    reduction is undefined: null in the file, n/a on screen."""
    raw = tmp_path / "raw"
    raw.mkdir()
    write_signal_csv(raw / "zero.csv", np.zeros(2000))
    store_dir = tmp_path / "store"
    assert emap_cli.main(["build-mdb", "--in", str(raw),
                          "--out", str(store_dir)]) == 0
    q = tmp_path / "query.csv"
    write_signal_csv(q, np.random.default_rng(3).normal(0, 1, 256))
    res_path = tmp_path / "res.json"
    capsys.readouterr()
    rc = emap_cli.main(["search", "--store", str(store_dir), "--input", str(q),
                        "--compare", "--out", str(res_path)])
    assert rc == 0
    assert "comparison reduction: n/a" in capsys.readouterr().out

    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")
    payload = json.loads(res_path.read_text(), parse_constant=reject)
    assert payload["sliding"]["comparisons_made"] == 0
    assert payload["comparison_reduction"] is None


def test_missing_store_is_a_data_error(tmp_path, capsys):
    q = tmp_path / "query.csv"
    write_signal_csv(q, np.ones(256))
    rc = emap_cli.main(["search", "--store", str(tmp_path / "nowhere"),
                        "--input", str(q)])
    assert rc == 3
    assert "error" in capsys.readouterr().err


def test_malformed_csv_is_a_data_error(tiny_store, tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("1.0\n2.0\nnot-a-number\n")
    rc = emap_cli.main(["search", "--store", str(tiny_store[0]),
                        "--input", str(bad)])
    assert rc == 3
    err = capsys.readouterr().err
    assert "line 3" in err


def test_non_finite_csv_is_a_data_error(tmp_path, capsys):
    raw = tmp_path / "raw"
    raw.mkdir()
    samples = np.random.default_rng(5).normal(0.0, 15.0, 1000)
    samples[499] = np.nan
    write_signal_csv(raw / "sig0.csv", samples)   # line 1 is a comment
    rc = emap_cli.main(["build-mdb", "--in", str(raw),
                        "--out", str(tmp_path / "store")])
    assert rc == 3
    assert "line 501" in capsys.readouterr().err


def test_search_flags_override_the_config_even_when_falsy(tiny_store,
                                                          tmp_path, capsys):
    store_dir, _raw = tiny_store
    q = tmp_path / "query.csv"
    write_signal_csv(q, np.random.default_rng(6).normal(0.0, 15.0, 256))
    res = tmp_path / "res.json"

    def best_omegas(*flags):
        rc = emap_cli.main(["search", "--store", str(store_dir), "--input",
                            str(q), "--exhaustive", "--out", str(res),
                            *flags])
        assert rc == 0
        return [c["omega"] for c in json.loads(res.read_text())["candidates"]]

    # noise correlates weakly: nothing above the default delta of 0.8,
    # but its best offset is above 0
    assert best_omegas() == []
    assert 0.0 < best_omegas("--delta", "0")[0] < 0.8
    assert 0.0 < best_omegas("--delta", "0.0")[0] < 0.8
    capsys.readouterr()
    for flag in ("--alpha", "--delta"):
        for bad in ("0", "1"):
            rc = emap_cli.main(["search", "--store", str(store_dir),
                                "--input", str(q), flag, bad])
            if flag == "--delta" and bad == "0":
                assert rc == 0
            else:
                assert rc == 2, (flag, bad)
    capsys.readouterr()


@pytest.mark.parametrize("alpha", ["1e-19", "1e-200", "1e-320"])
def test_an_alpha_below_the_bound_is_a_usage_error(tiny_store, tmp_path,
                                                   capsys, alpha):
    # 1/alpha would not fit int64: the scan once died with an IndexError
    store_dir, raw = tiny_store
    q = tmp_path / "query.csv"
    write_signal_csv(q, raw[:256])
    rc = emap_cli.main(["search", "--store", str(store_dir), "--input",
                        str(q), "--alpha", alpha])
    assert rc == 2
    assert "[2**-62, 1)" in capsys.readouterr().err
    rc = emap_cli.main(["sweep-alpha", "--store", str(store_dir),
                        "--inputs", str(tmp_path), "--alphas",
                        f"0.004,{alpha}", "--out",
                        str(tmp_path / "sweep.csv")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "--alphas" in err and "[2**-62, 1)" in err
    assert not (tmp_path / "sweep.csv").exists()


def test_bad_config_file_is_a_usage_error(tiny_store, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{ this is not json")
    q = tmp_path / "query.csv"
    write_signal_csv(q, np.ones(256))
    rc = emap_cli.main(["--config", str(cfg), "search",
                        "--store", str(tiny_store[0]), "--input", str(q)])
    assert rc == 2
    assert "bad config" in capsys.readouterr().err


def test_an_empty_config_path_is_a_usage_error(tiny_store, tmp_path,
                                               capsys):
    # an empty path once ran silently with the default config
    q = tmp_path / "query.csv"
    write_signal_csv(q, tiny_store[1][:256])
    rc = emap_cli.main(["--config", "", "search",
                        "--store", str(tiny_store[0]), "--input", str(q)])
    assert rc == 2
    assert "bad config file" in capsys.readouterr().err


def test_an_empty_search_out_path_is_a_data_error(tiny_store, tmp_path,
                                                  capsys):
    # as for simulate; an empty path once wrote nothing and exited 0
    q = tmp_path / "query.csv"
    write_signal_csv(q, tiny_store[1][:256])
    rc = emap_cli.main(["search", "--store", str(tiny_store[0]),
                        "--input", str(q), "--out", ""])
    assert rc == 3
    assert "data error" in capsys.readouterr().err


@pytest.mark.parametrize("section, key, value", [
    ("search", "max_comparisons", None),
    ("search", "workers", 1),
    ("sim", "cloud_search_time_mode", "configured"),
], ids=["max_comparisons", "workers", "cloud_search_time_mode"])
def test_config_with_a_removed_setting_is_a_usage_error(tiny_store, tmp_path,
                                                        capsys, section, key,
                                                        value):
    d = RunConfig().to_dict()
    d[section][key] = value
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(d))
    q = tmp_path / "query.csv"
    write_signal_csv(q, tiny_store[1][:256])
    rc = emap_cli.main(["--config", str(cfg), "search",
                        "--store", str(tiny_store[0]), "--input", str(q)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "bad config" in err and key in err


@pytest.mark.parametrize("text, message", [
    ('{"search": {"top_k": 2.5}}', "search.top_k: 2.5 is not an integer"),
    ('{"search": {"top_k": true}}', "search.top_k: True is not an integer"),
    ('{"tracker": {"trend_window": 1.5}}',
     "tracker.trend_window: 1.5 is not an integer"),
    ('{"tracker": {"max_iterations_per_set": true}}',
     "tracker.max_iterations_per_set: True is not an integer"),
    ('{"link": {"uplink_fixed_us": 0.5}}',
     "link.uplink_fixed_us: 0.5 is not an integer"),
    ('{"sim": {"cloud_search_s": Infinity}}',
     "sim.cloud_search_s: inf is not a finite number"),
    ('{"sim": {"cloud_search_s": NaN}}',
     "sim.cloud_search_s: nan is not a finite number"),
    ('{"tracker": {"pa_floor": "0.5"}}',
     "tracker.pa_floor: '0.5' is not a finite number"),
    ('{"tracker": {"area_threshold": false}}',
     "tracker.area_threshold: False is not a finite number"),
    ('{"search": null}', "search is not an object"),
    ('{"sim": [1]}', "sim is not an object"),
    ("[7]", "config is not an object"),
    ('{"seed": "x"}', "seed: 'x' is not an integer"),
    ('{"seed": -1}', "seed must be >= 0, got -1"),
    ('{"link": {"downlink_fixed_us": -1}}',
     "downlink_fixed_us must be non-negative"),
    ('{"sim": {"eval_after_cloud_calls": 0}}',
     "eval_after_cloud_calls must be >= 1"),
    ('{"sim": {"batch_size": 0}}', "batch_size must be >= 1"),
    ('{"tracker": {"max_iterations_per_set": 0}}',
     "max_iterations_per_set must be >= 1"),
    (json.dumps({"sim": {"cloud_search_s": BIG}}),
     f"sim.cloud_search_s: {BIG} is not a finite number"),
    (json.dumps({"tracker": {"area_threshold": BIG}}),
     f"tracker.area_threshold: {BIG} is not a finite number"),
    (json.dumps({"tracker": {"pa_floor": BIG}}),
     f"tracker.pa_floor: {BIG} is not a finite number"),
    (json.dumps({"link": {"uplink_fixed_us": BIG}}),
     f"link.uplink_fixed_us: {BIG} is not an integer within int64"),
])
def test_config_value_of_the_wrong_json_type_is_a_usage_error(
        tmp_path, capsys, text, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    rc = emap_cli.main(["--config", str(cfg), "synth",
                        "--out", str(tmp_path / "out")])
    assert rc == 2
    assert f"bad config file {cfg}: {message}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_negative_seed_flag_is_a_usage_error(tmp_path, capsys):
    rc = emap_cli.main(["--seed", "-1", "synth",
                        "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "--seed: seed must be >= 0, got -1" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_seed_flag_beyond_int64_is_a_usage_error(tmp_path, capsys):
    # config.json could not hold it, so --config could not read it back
    rc = emap_cli.main(["--seed", str(2 ** 63), "synth", "--mode",
                        "eval-scenario", "--out", str(tmp_path / "out")])
    assert rc == 2
    assert (f"--seed: seed must be < 2**63, got {2 ** 63}"
            in capsys.readouterr().err)
    assert not (tmp_path / "out").exists()


def test_config_of_whole_numbers_for_float_fields_is_accepted(tmp_path,
                                                              capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"tracker": {"area_threshold": 900}, '
                   '"sim": {"cloud_search_s": 3}}')
    rc = emap_cli.main(["--config", str(cfg), "synth", "--normal", "1",
                        "--anomalous", "0", "--length-s", "4",
                        "--out", str(tmp_path / "out")])
    capsys.readouterr()
    assert rc == 0


def test_global_flags_go_before_the_subcommand(tmp_path, capsys):
    # argparse owns this contract: trailing global flags are rejected
    rc = emap_cli.main(["synth", "--out", str(tmp_path / "x"),
                        "--seed", "1"])
    capsys.readouterr()
    assert rc == 2


def test_zero_threads_rejected(tiny_store, tmp_path, capsys):
    # --threads is no longer a flag: any value of it is a usage error
    q = tmp_path / "query.csv"
    write_signal_csv(q, np.ones(256))
    for threads in ("0", "2"):
        rc = emap_cli.main(["--threads", threads, "search",
                            "--store", str(tiny_store[0]), "--input", str(q)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "emap: error:" in err


def test_strict_mode_flags_uplink_budget(cli_world, tmp_path, capsys):
    cfg = RunConfig()
    cfg.link.uplink_per_sample_us = 50      # 256 samples -> 13.2 ms
    cfg_path = tmp_path / "slow.json"
    cfg_path.write_text(json.dumps(cfg.to_dict()))
    live = sorted((cli_world["eval"]).glob("*.csv"))[0]
    rc = emap_cli.main(["--config", str(cfg_path), "--strict", "simulate",
                        "--store", str(cli_world["store"]),
                        "--live", str(live),
                        "--out", str(tmp_path / "simout")])
    assert rc == 4
    assert "exceeds the 1 ms budget" in capsys.readouterr().err


def test_strict_evaluate_within_budgets_exits_0(cli_world, tmp_path, capsys):
    rc = emap_cli.main(["--config", str(cli_world["config"]), "--strict",
                        "evaluate", "--store", str(cli_world["store"]),
                        "--corpus", str(cli_world["eval"]),
                        "--out", str(tmp_path / "accuracy.csv")])
    assert rc == 0
    assert "budget violation" not in capsys.readouterr().err


def test_strict_mode_flags_downlink_budget(cli_world, tmp_path, capsys):
    cfg = RunConfig()
    cfg.link.downlink_per_signal_us = 1600  # 100 signals -> 210 ms
    cfg_path = tmp_path / "slow.json"
    cfg_path.write_text(json.dumps(cfg.to_dict()))
    live = sorted((cli_world["eval"]).glob("*.csv"))[0]
    rc = emap_cli.main(["--config", str(cfg_path), "--strict", "simulate",
                        "--store", str(cli_world["store"]),
                        "--live", str(live),
                        "--out", str(tmp_path / "simout")])
    assert rc == 4
    assert ("downlink(100) = 210000 us exceeds the 200 ms budget"
            in capsys.readouterr().err)


def test_strict_mode_flags_a_slow_tracker_step(cli_world, tmp_path, capsys,
                                               monkeypatch):
    # each clock read is one second later, so every step measures 1 s
    clock = itertools.count(0.0, 1.0)
    monkeypatch.setattr(edge_tracker, "time",
                        types.SimpleNamespace(perf_counter=lambda: next(clock)))
    live = sorted((cli_world["eval"]).glob("*.csv"))[0]
    rc = emap_cli.main(["--config", str(cli_world["config"]), "--strict",
                        "simulate", "--store", str(cli_world["store"]),
                        "--live", str(live),
                        "--out", str(tmp_path / "simout")])
    assert rc == 4
    assert ("tracker step took 1000000 us, breaking the 1 s real-time bound"
            in capsys.readouterr().err)


@pytest.mark.parametrize("cloud_search_s, rc_want", [(1e303, 2), (1e300, 0)])
def test_simulate_with_a_huge_cloud_search_time(cli_world, tmp_path, capsys,
                                                cloud_search_s, rc_want):
    # 1e303 s is finite but not in microseconds; 1e300 s is both, and
    # the stream simply ends before the first answer arrives
    cfg = json.loads(cli_world["config"].read_text())
    cfg["sim"]["cloud_search_s"] = cloud_search_s
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    live = sorted((cli_world["eval"]).glob("*.csv"))[0]
    out = tmp_path / "run"
    rc = emap_cli.main(["--config", str(cfg_path), "simulate",
                        "--store", str(cli_world["store"]),
                        "--live", str(live), "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == rc_want
    if rc_want:
        assert "cloud_search_s must be non-negative and finite" in err
    else:
        assert (out / "reports.jsonl").read_text() == ""


def test_simulate_writes_jsonl_records(cli_world, tmp_path, capsys):
    live = sorted((cli_world["eval"]).glob("*.csv"))[0]
    out = tmp_path / "run"
    rc = emap_cli.main(["--config", str(cli_world["config"]), "simulate",
                        "--store", str(cli_world["store"]),
                        "--live", str(live), "--out", str(out)])
    capsys.readouterr()
    assert rc == 0
    # files are real JSONL with the documented record shape
    for name in ("timeline.jsonl", "reports.jsonl"):
        lines = (out / name).read_text().splitlines()
        assert lines and all(isinstance(json.loads(ln), dict) for ln in lines)
    first = json.loads((out / "reports.jsonl").read_text().splitlines()[0])
    assert set(first) == {"iteration", "alive", "removed_dissimilar",
                          "removed_exhausted", "p_anomaly",
                          "classification", "cloud_call", "step_micros"}
    # byte for byte, one json.dumps line per event and per report
    cfg = RunConfig.from_dict(json.loads(cli_world["config"].read_text()))
    outcome = run_stream(emap_cli._ingest_with_sidecar(live, 0),
                         MdbStore.load(cli_world["store"]), cfg.search,
                         cfg.tracker, cfg.link, cfg.sim)
    assert (out / "timeline.jsonl").read_text(encoding="utf-8") == "".join(
        json.dumps(ev.to_json_dict()) + "\n" for ev in outcome.timeline)
    assert (out / "reports.jsonl").read_text(encoding="utf-8") == "".join(
        json.dumps(edge_tracker.report_json_record(
            rep, step_micros=cfg.sim.report_step_micros)) + "\n"
        for rep in outcome.reports)


def test_evaluate_matches_the_library(cli_world, tmp_path, capsys):
    out_csv = tmp_path / "accuracy.csv"
    rc = emap_cli.main(["--config", str(cli_world["config"]), "evaluate",
                        "--store", str(cli_world["store"]),
                        "--corpus", str(cli_world["eval"]),
                        "--out", str(out_csv)])
    assert rc == 0
    capsys.readouterr()

    with open(cli_world["config"], encoding="utf-8") as fh:
        cfg = RunConfig.from_dict(json.load(fh))
    store = MdbStore.load(cli_world["store"])
    corpus = emap_cli._corpus_from_dir(str(cli_world["eval"]))
    table = evaluate_batch(corpus, store, cfg.search, cfg.tracker,
                           cfg.link, cfg.sim)

    with open(out_csv, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["batch"] for r in rows] == [b.batch for b in table.rows]
    mean_csv = rows[-1]
    mean_lib = table.mean_row
    assert float(mean_csv["accuracy"]) == mean_lib.accuracy
    assert float(mean_csv["false_positive_rate"]) == mean_lib.false_positive_rate
    if mean_lib.mean_lead_time_s is None:
        assert mean_csv["mean_lead_time_s"] == ""
    else:
        assert float(mean_csv["mean_lead_time_s"]) == mean_lib.mean_lead_time_s


def test_evaluate_quotes_a_span_kind_that_holds_a_comma(cli_world, tmp_path,
                                                        capsys):
    corpus = tmp_path / "eval"
    shutil.copytree(cli_world["eval"], corpus)
    for side in corpus.glob("*.json"):
        meta = json.loads(side.read_text())
        meta["spans"] = [[s, e, "seizure, focal"] for s, e, _k in meta["spans"]]
        side.write_text(json.dumps(meta))
    out_csv = tmp_path / "acc.csv"
    rc = emap_cli.main(["--config", str(cli_world["config"]), "evaluate",
                        "--store", str(cli_world["store"]),
                        "--corpus", str(corpus), "--out", str(out_csv)])
    capsys.readouterr()
    assert rc == 0
    with open(out_csv, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert [len(r) for r in rows] == [6] * 3
    assert [r[1] for r in rows[1:]] == ["seizure, focal"] * 2


def test_sweep_alpha_csv_contract(tiny_store, tmp_path, capsys):
    store_dir, raw = tiny_store
    qdir = tmp_path / "queries"
    qdir.mkdir()
    # three queries, so the means are not whole numbers
    for i, x in enumerate((raw[:256], raw[300:556],
                           np.random.default_rng(8).normal(0, 15, 256))):
        write_signal_csv(qdir / f"q{i}.csv", x)
    out_csv = tmp_path / "sweep.csv"
    rc = emap_cli.main(["sweep-alpha", "--store", str(store_dir),
                        "--inputs", str(qdir),
                        "--alphas", "0.001,0.004,0.1",
                        "--out", str(out_csv)])
    assert rc == 0
    capsys.readouterr()
    lines = out_csv.read_text().splitlines()
    assert lines[0] == "alpha,mean_comparisons,mean_matches,mean_top100_omega"
    assert len(lines) == 4
    comps = [float(line.split(",")[1]) for line in lines[1:]]
    assert comps == sorted(comps)
    # byte for byte, alpha_sweep's rows with every float as its repr
    windows = [emap_cli._load_query_window(p) for p in sorted(qdir.iterdir())]
    rows = alpha_sweep(windows, MdbStore.load(store_dir), [0.001, 0.004, 0.1],
                       SearchConfig())
    assert out_csv.read_text(encoding="utf-8") == "".join(
        [lines[0] + "\n"]
        + [f"{r.alpha!r},{r.mean_comparisons!r},{r.mean_matches!r},"
           f"{r.mean_top100_omega!r}\n" for r in rows])


@pytest.mark.parametrize("alphas, message", [
    pytest.param("0.004,1.5", "--alphas '0.004,1.5': alpha must lie in "
                 "[2**-62, 1)", id="0.004,1.5"),
    pytest.param("abc", "--alphas 'abc': could not convert string to float",
                 id="abc"),
    pytest.param("0", "--alphas '0': alpha must lie in [2**-62, 1)", id="0"),
    pytest.param("nan", "--alphas 'nan': alpha must lie in [2**-62, 1)",
                 id="nan"),
    pytest.param(",", "--alphas must list at least one value", id="comma"),
])
def test_sweep_alpha_rejects_bad_values_as_usage(tiny_store, tmp_path,
                                                 capsys, alphas, message):
    store_dir, raw = tiny_store
    qdir = tmp_path / "queries"
    qdir.mkdir()
    write_signal_csv(qdir / "q0.csv", raw[:256])
    rc = emap_cli.main(["sweep-alpha", "--store", str(store_dir),
                        "--inputs", str(qdir), "--alphas", alphas,
                        "--out", str(tmp_path / "sweep.csv")])
    assert rc == 2
    assert f"error: {message}" in capsys.readouterr().err
    assert not (tmp_path / "sweep.csv").exists()


@pytest.mark.parametrize("command", ["search", "sweep-alpha"])
@pytest.mark.parametrize("samples, message", [
    (np.zeros(300), "the first 256 samples have zero energy"),
    (np.concatenate([np.zeros(256), np.ones(300)]),
     "the first 256 samples have zero energy"),
    (np.ones(255), "needs at least 256 samples"),
], ids=["300-zeros", "256-zeros-of-556", "255-samples"])
def test_a_query_file_that_cannot_be_searched_is_named(tiny_store, tmp_path,
                                                      capsys, command,
                                                      samples, message):
    qdir = tmp_path / "queries"
    qdir.mkdir()
    q = qdir / "q0.csv"
    write_signal_csv(q, samples)
    inputs = ["--input", str(q)] if command == "search" else [
        "--inputs", str(qdir), "--out", str(tmp_path / "sweep.csv")]
    rc = emap_cli.main([command, "--store", str(tiny_store[0]), *inputs])
    assert rc == 3
    assert f"data error: {q}: {message}" in capsys.readouterr().err
    assert not (tmp_path / "sweep.csv").exists()


@pytest.mark.parametrize("command, flag", [
    ("build-mdb", "--in"), ("evaluate", "--corpus"),
    ("sweep-alpha", "--inputs")])
def test_a_directory_without_csv_files_is_a_data_error(tiny_store, tmp_path,
                                                       capsys, command, flag):
    empty = tmp_path / "empty"
    empty.mkdir()
    out = tmp_path / "out"
    args = ["--out", str(out)] if command == "build-mdb" else [
        "--store", str(tiny_store[0]), "--out", str(out)]
    rc = emap_cli.main([command, flag, str(empty), *args])
    assert rc == 3
    assert f"data error: no .csv files in {empty}" in capsys.readouterr().err
    assert not out.exists()


def test_format_1_store_is_a_data_error(tiny_store, tmp_path, capsys):
    store_dir, raw = tiny_store
    manifest = json.loads((store_dir / "manifest.json").read_text())
    manifest["format_version"] = 1
    (store_dir / "manifest.json").write_text(json.dumps(manifest))
    q = tmp_path / "query.csv"
    write_signal_csv(q, raw[:256])
    rc = emap_cli.main(["search", "--store", str(store_dir),
                        "--input", str(q)])
    assert rc == 3
    assert "store format 1" in capsys.readouterr().err


def test_store_with_a_huge_length_is_a_data_error(tiny_store, tmp_path,
                                                  capsys):
    # 10**15 float32 samples is more than numpy will try to reserve
    store_dir, raw = tiny_store
    manifest = json.loads((store_dir / "manifest.json").read_text())
    manifest["signals"][0]["length"] = 10**15
    (store_dir / "manifest.json").write_text(json.dumps(manifest))
    q = tmp_path / "query.csv"
    write_signal_csv(q, raw[:256])
    rc = emap_cli.main(["search", "--store", str(store_dir),
                        "--input", str(q)])
    assert rc == 3
    assert ("data error: payload samples.f32 has 4000 bytes; the manifest's "
            f"lengths sum to {10**15} samples") in capsys.readouterr().err


def test_sidecar_spans_of_unorderable_kinds_are_a_data_error(tmp_path,
                                                             capsys):
    raw = tmp_path / "raw"
    raw.mkdir()
    write_signal_csv(raw / "sig0.csv",
                     np.random.default_rng(3).normal(0.0, 15.0, 1000))
    (raw / "sig0.json").write_text(json.dumps(
        {"spans": [[0, 10, None], [0, 10, "x"]]}))
    rc = emap_cli.main(["build-mdb", "--in", str(raw),
                        "--out", str(tmp_path / "store")])
    assert rc == 3
    assert "anomaly spans overlap" in capsys.readouterr().err
    assert not (tmp_path / "store").exists()


@pytest.mark.parametrize("sidecar, message", [
    ('{"sample_rate_hz": 250.7}', "sample_rate_hz 250.7 is not a positive"),
    ('{"sample_rate_hz": 0}', "sample_rate_hz 0 is not a positive"),
    ('{"sample_rate_hz": -256}', "sample_rate_hz -256 is not a positive"),
    ('{"sample_rate_hz": true}', "sample_rate_hz True is not a positive"),
    ('{"sample_rate_hz": "256"}', "sample_rate_hz '256' is not a positive"),
    ('{"sample_rate_hz": null}', "sample_rate_hz None is not a positive"),
    ("[256]", "not a JSON object"),
    ("{not json", "Expecting property name enclosed in double quotes"),
    ('{"id": 1.5}', "id 1.5 is not an integer"),
    ('{"id": "7"}', "id '7' is not an integer"),
    ('{"id": true}', "id True is not an integer"),
    ('{"onset_sample": 2.7}', "onset_sample 2.7 is not an integer or null"),
    ('{"onset_sample": "x"}', "onset_sample 'x' is not an integer or null"),
    ('{"dataset_tag": 3}', "dataset_tag 3 is not a string"),
    ('{"spans": 5}', "spans 5 is not an array"),
    ('{"spans": [[0]]}',
     "'spans' entry [0] is not [start, end] or [start, end, kind]"),
    ('{"spans": [[0, 10.5]]}',
     "'spans' entry [0, 10.5] is not [start, end] or [start, end, kind]"),
    ('{"spans": [[0, 10, "x", 1]]}',
     "'spans' entry [0, 10, 'x', 1] is not [start, end] or [start, end, "
     "kind]"),
    ('{"spans": [[0, 10, ["a"]]]}',
     "'spans' entry [0, 10, ['a']] has a kind that is neither a string "
     "nor null"),
    ('{"spans": [[0, 10, 3]]}',
     "'spans' entry [0, 10, 3] has a kind that is neither a string nor "
     "null"),
    (json.dumps({"onset_sample": BIG}), f"onset_sample {BIG} is outside int64"),
    (json.dumps({"spans": [[0, BIG]]}),
     f"'spans' entry [0, {BIG}] is not [start, end] or [start, end, kind]"),
    (json.dumps({"sample_rate_hz": BIG}),
     f"sample_rate_hz {BIG} is not a positive integer within int64"),
])
def test_bad_sidecar_is_a_data_error(tmp_path, capsys, sidecar, message):
    raw = tmp_path / "raw"
    raw.mkdir()
    write_signal_csv(raw / "sig0.csv",
                     np.random.default_rng(3).normal(0.0, 15.0, 1000))
    (raw / "sig0.json").write_text(sidecar)
    rc = emap_cli.main(["build-mdb", "--in", str(raw),
                        "--out", str(tmp_path / "store")])
    assert rc == 3
    assert f"{raw / 'sig0.json'}: {message}" in capsys.readouterr().err
    assert not (tmp_path / "store").exists()


def test_csv_that_is_not_utf8_names_the_file(tmp_path, capsys):
    raw = tmp_path / "raw"
    raw.mkdir()
    (raw / "sig0.csv").write_bytes(b"# rate=256\n1.0\n\xff\n")
    rc = emap_cli.main(["build-mdb", "--in", str(raw),
                        "--out", str(tmp_path / "store")])
    assert rc == 3
    assert (f"data error: {raw / 'sig0.csv'}: 'utf-8' codec can't decode "
            "byte 0xff") in capsys.readouterr().err
    assert not (tmp_path / "store").exists()


def test_manifest_that_is_not_json_names_the_file(tiny_store, tmp_path,
                                                   capsys):
    store_dir, raw = tiny_store
    (store_dir / "manifest.json").write_text("{")
    q = tmp_path / "query.csv"
    write_signal_csv(q, raw[:256])
    rc = emap_cli.main(["search", "--store", str(store_dir),
                        "--input", str(q)])
    assert rc == 3
    assert (f"data error: {store_dir / 'manifest.json'}: Expecting property "
            "name") in capsys.readouterr().err


def test_sidecar_span_outside_its_signal_names_the_file(tmp_path, capsys):
    raw = tmp_path / "raw"
    raw.mkdir()
    write_signal_csv(raw / "sig0.csv",
                     np.random.default_rng(3).normal(0.0, 15.0, 1000))
    (raw / "sig0.json").write_text('{"spans": [[0, 99999]]}')
    rc = emap_cli.main(["build-mdb", "--in", str(raw),
                        "--out", str(tmp_path / "store")])
    assert rc == 3
    assert (f"{raw / 'sig0.csv'}: anomaly span (0, 99999) outside signal "
            "of length 1000") in capsys.readouterr().err
    assert not (tmp_path / "store").exists()


def test_sidecar_onset_is_rescaled_with_the_spans(tmp_path, capsys):
    raw = tmp_path / "raw"
    raw.mkdir()
    write_signal_csv(raw / "sig0.csv",
                     np.random.default_rng(3).normal(0.0, 15.0, 4000))
    (raw / "sig0.json").write_text(json.dumps(
        {"sample_rate_hz": 512, "onset_sample": 3000,
         "spans": [[2000, 3000, "seizure"]]}))
    rc = emap_cli.main(["build-mdb", "--in", str(raw),
                        "--out", str(tmp_path / "store")])
    assert rc == 0
    capsys.readouterr()
    manifest = json.loads((tmp_path / "store" / "manifest.json").read_text())
    entry = manifest["signals"][0]
    assert entry["length"] == 2000
    assert entry["spans"] == [[1000, 1500, "seizure"]]
    # the onset is scored from the sidecar; the manifest does not hold it
    sig, = emap_cli._corpus_from_dir(raw)
    assert sig.onset_sample == 1500


@pytest.mark.parametrize("onset", [1_000_000, -256])
def test_evaluate_with_an_onset_outside_its_stream_is_a_data_error(
        cli_world, tmp_path, capsys, onset):
    corpus = tmp_path / "eval"
    shutil.copytree(cli_world["eval"], corpus)
    side = next(p for p in sorted(corpus.glob("*.json"))
                if json.loads(p.read_text())["onset_sample"] is not None)
    meta = json.loads(side.read_text())
    meta["onset_sample"] = onset
    side.write_text(json.dumps(meta))
    rc = emap_cli.main(["--config", str(cli_world["config"]), "evaluate",
                        "--store", str(cli_world["store"]),
                        "--corpus", str(corpus),
                        "--out", str(tmp_path / "acc.csv")])
    assert rc == 3
    err = capsys.readouterr().err
    assert f"{side.with_suffix('.csv')}: onset_sample {onset} outside " in err
    assert not (tmp_path / "acc.csv").exists()


def test_evaluate_with_a_span_kind_that_is_a_list_is_a_data_error(
        cli_world, tmp_path, capsys):
    corpus = tmp_path / "eval"
    shutil.copytree(cli_world["eval"], corpus)
    side = next(p for p in sorted(corpus.glob("*.json"))
                if json.loads(p.read_text())["spans"])
    meta = json.loads(side.read_text())
    meta["spans"][0][2] = ["a"]
    side.write_text(json.dumps(meta))
    rc = emap_cli.main(["--config", str(cli_world["config"]), "evaluate",
                        "--store", str(cli_world["store"]),
                        "--corpus", str(corpus),
                        "--out", str(tmp_path / "acc.csv")])
    assert rc == 3
    err = capsys.readouterr().err
    assert f"{side}: 'spans' entry" in err
    assert "neither a string nor null" in err


@pytest.mark.parametrize("mode", ["corpus", "eval-scenario"])
@pytest.mark.parametrize("flag, value, named", [
    ("--length-s", "1", "got 1.0"), ("--length-s", "1.001", "got 1.001"),
    ("--length-s", "0", "got 0.0"), ("--length-s", "-5", "got -5.0"),
    ("--length-s", "nan", "got nan"), ("--length-s", "inf", "got inf"),
    ("--length-s", "1e308", "got 1e+308"),
    ("--normal", "-1", "got -1"), ("--anomalous", "-2", "got -2")])
def test_synth_rejects_bad_arguments_as_usage(tmp_path, capsys, mode, flag,
                                              value, named):
    out = tmp_path / "out"
    rc = emap_cli.main(["synth", "--out", str(out), "--mode", mode,
                        "--normal", "1", "--anomalous", "1", flag, value])
    assert rc == 2
    err = capsys.readouterr().err
    assert flag in err and named in err
    assert not out.exists()      # checked before anything is generated


def test_synth_corpus_then_build(tmp_path, capsys):
    raw = tmp_path / "corpus"
    rc = emap_cli.main(["--seed", "11", "synth", "--out", str(raw),
                        "--normal", "3", "--anomalous", "2",
                        "--length-s", "8"])
    assert rc == 0
    csvs = sorted(raw.glob("*.csv"))
    assert len(csvs) == 5
    # sidecars carry the labels through ingestion
    sides = [json.loads(p.with_suffix(".json").read_text()) for p in csvs]
    n_anom = sum(1 for s in sides if s.get("spans"))
    assert n_anom == 2
    store_dir = tmp_path / "store"
    rc = emap_cli.main(["build-mdb", "--in", str(raw),
                        "--out", str(store_dir)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "built store" in out
    store = MdbStore.load(store_dir)
    assert store.num_slices > 0
    labels = [store.slice_meta(i)[3] for i in range(store.num_slices)]
    assert sum(labels) > 0


def test_synth_is_seed_deterministic(tmp_path, capsys):
    outs = []
    for name in ("a", "b"):
        d = tmp_path / name
        rc = emap_cli.main(["--seed", "5", "synth", "--out", str(d),
                            "--normal", "1", "--anomalous", "1",
                            "--length-s", "6"])
        assert rc == 0
        outs.append(b"".join(p.read_bytes() for p in sorted(d.glob("*.csv"))))
    capsys.readouterr()
    assert outs[0] == outs[1]


def pretty_json(path):
    """Assert the file is its own JSON value in the project's pretty
    form, and return that value."""
    text = path.read_text(encoding="utf-8")
    obj = json.loads(text)
    assert text == json.dumps(obj, indent=2, sort_keys=True) + "\n"
    return obj


def assert_sample_csv(path, samples, header):
    assert path.read_text(encoding="utf-8") == header + "".join(
        f"{float(v)!r}\n" for v in samples)


def test_every_written_file_form_is_pinned_byte_for_byte(tmp_path, capsys):
    rng = np.random.default_rng(29)
    odd = [-0.0, 5e-324, 0.1]
    signals = [
        SourceSignal(id=3, samples=np.r_[odd, rng.normal(0, 15, 1200)],
                     anomaly_spans=[(200, 900, "seizure")],
                     dataset_tag="pin", onset_sample=200),
        SourceSignal(id=4, samples=np.r_[rng.normal(0, 15, 40), odd, -1e300],
                     dataset_tag="pin"),
    ]
    corpus = tmp_path / "corpus"
    scenarios.write_corpus_csv(signals, corpus)
    for sig in signals:
        stem = corpus / f"signal_{sig.id:05d}"
        assert_sample_csv(stem.with_suffix(".csv"), sig.samples,
                          f"# id={sig.id} tag=pin rate=256\n")
        assert pretty_json(stem.with_suffix(".json")) == {
            "id": sig.id, "dataset_tag": "pin", "sample_rate_hz": 256,
            "spans": [list(sp) for sp in sig.anomaly_spans],
            "onset_sample": sig.onset_sample}
    # a store holds float32 samples, which -1e300 is not
    build_store(signals[:1], tmp_path / "store")
    assert pretty_json(tmp_path / "store" / "manifest.json")["signals"] == [
        {"id": 3, "length": 1203, "dataset_tag": "pin",
         "spans": [[200, 900, "seizure"]]}]

    world = tmp_path / "world"
    assert emap_cli.main(["synth", "--mode", "eval-scenario", "--normal",
                          "1", "--anomalous", "1", "--out", str(world)]) == 0
    capsys.readouterr()
    config = pretty_json(world / "config.json")
    assert RunConfig.from_dict(config).to_dict() == config
    written = sorted(world.glob("*/*.csv"))
    assert written
    for path in written:
        side = pretty_json(path.with_suffix(".json"))
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        assert_sample_csv(path, [float(v) for v in lines[1:]],
                          f"# id={side['id']} tag={side['dataset_tag']} "
                          "rate=256\n")



HOSTILE = (BIG, -BIG, 2 ** 63, -2 ** 63, sys.float_info.max,
           -sys.float_info.max, True, "x", None, [], {})


def json_leaves(doc, path=()):
    """Paths to the scalars and empty containers of a parsed JSON value."""
    if isinstance(doc, (dict, list)) and doc:
        keys = doc if isinstance(doc, dict) else range(len(doc))
        return [leaf for k in keys for leaf in json_leaves(doc[k], path + (k,))]
    return [path]


@pytest.fixture(scope="module")
def small_cli_world(tmp_path_factory):
    """A 1+1-stream eval-scenario world, and its store at mdb/."""
    root = tmp_path_factory.mktemp("small_cli_world")
    assert emap_cli.main(["synth", "--mode", "eval-scenario", "--normal", "1",
                          "--anomalous", "1", "--out", str(root / "world")]) == 0
    assert emap_cli.main(["build-mdb", "--in", str(root / "world" / "store"),
                          "--out", str(root / "mdb")]) == 0
    return root


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(target=st.sampled_from(["config", "store", "eval", "manifest"]),
       value=st.sampled_from(HOSTILE), data=st.data())
def test_a_hostile_json_value_at_the_cli_boundary_exits_cleanly(
        small_cli_world, tmp_path, capsys, target, value, data):
    """One leaf of the run config, of an anomalous signal's sidecar or
    of a built store's manifest takes a hostile JSON value: build-mdb,
    search, simulate and evaluate each return 0, 2 or 3 and raise
    nothing."""
    run = Path(tempfile.mkdtemp(dir=tmp_path)) / "world"
    shutil.copytree(small_cli_world / "world", run)
    shutil.copytree(small_cli_world / "mdb", run / "built")
    config = run / "config.json"
    if target == "config":
        path = config
    elif target == "manifest":
        path = run / "built" / "manifest.json"
    else:
        path = next(p for p in sorted((run / target).glob("*.json"))
                    if json.loads(p.read_text())["spans"])
    doc = json.loads(path.read_text())
    *parents, last = data.draw(st.sampled_from(json_leaves(doc)))
    holder = doc
    for key in parents:
        holder = holder[key]
    holder[last] = value
    path.write_text(json.dumps(doc))

    live = (path if target == "eval"
            else sorted((run / "eval").glob("*.json"))[0]).with_suffix(".csv")
    store = run / "mdb"
    codes = [emap_cli.main(["--config", str(config), "build-mdb",
                            "--in", str(run / "store"), "--out", str(store)])]
    if codes[0] != 0 or target == "manifest":
        store = run / "built"
    for args in (["search", "--store", str(store), "--input", str(live)],
                 ["simulate", "--store", str(store), "--live", str(live),
                  "--out", str(run / "sim")],
                 ["evaluate", "--store", str(store),
                  "--corpus", str(run / "eval"),
                  "--out", str(run / "acc.csv")]):
        codes.append(emap_cli.main(["--config", str(config), *args]))
    capsys.readouterr()
    assert set(codes) <= {0, 2, 3}
