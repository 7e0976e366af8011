"""End-to-end checks of the command-line interface.

Everything here drives `emap.cli.main` in process: same code path as
the installed `emap` script, but with capturable output and no
subprocess overhead.
"""

import csv
import json

import numpy as np
import pytest

from emap import cli as emap_cli
from emap.mdb import MdbStore
from emap.orchestrator import RunConfig, evaluate_batch


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


def test_bad_config_file_is_a_usage_error(tiny_store, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{ this is not json")
    q = tmp_path / "query.csv"
    write_signal_csv(q, np.ones(256))
    rc = emap_cli.main(["--config", str(cfg), "search",
                        "--store", str(tiny_store[0]), "--input", str(q)])
    assert rc == 2
    assert "bad config" in capsys.readouterr().err


@pytest.mark.parametrize("section, key, value", [
    ("search", "max_comparisons", None),
    ("sim", "cloud_search_time_mode", "configured"),
], ids=["max_comparisons", "cloud_search_time_mode"])
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


def test_global_flags_go_before_the_subcommand(tmp_path, capsys):
    # argparse owns this contract: trailing global flags are rejected
    rc = emap_cli.main(["synth", "--out", str(tmp_path / "x"),
                        "--seed", "1"])
    capsys.readouterr()
    assert rc == 2


def test_zero_threads_rejected(tiny_store, tmp_path, capsys):
    q = tmp_path / "query.csv"
    write_signal_csv(q, np.ones(256))
    rc = emap_cli.main(["--threads", "0", "search",
                        "--store", str(tiny_store[0]), "--input", str(q)])
    capsys.readouterr()
    assert rc == 2


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


def test_simulate_output_is_thread_invariant(cli_world, tmp_path, capsys):
    live = sorted((cli_world["eval"]).glob("*.csv"))[0]
    blobs = []
    for threads in ("1", "2"):
        out = tmp_path / f"run_t{threads}"
        rc = emap_cli.main(["--config", str(cli_world["config"]),
                            "--threads", threads, "simulate",
                            "--store", str(cli_world["store"]),
                            "--live", str(live), "--out", str(out)])
        assert rc == 0
        blobs.append(((out / "timeline.jsonl").read_bytes(),
                      (out / "reports.jsonl").read_bytes()))
    capsys.readouterr()
    assert blobs[0][0] == blobs[1][0]
    assert blobs[0][1] == blobs[1][1]
    # files are real JSONL with the documented record shape
    first = json.loads(blobs[0][1].splitlines()[0])
    assert set(first) == {"iteration", "alive", "removed_dissimilar",
                          "removed_exhausted", "p_anomaly",
                          "classification", "cloud_call", "step_micros"}


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


def test_sweep_alpha_csv_contract(tiny_store, tmp_path, capsys):
    store_dir, raw = tiny_store
    qdir = tmp_path / "queries"
    qdir.mkdir()
    write_signal_csv(qdir / "q0.csv", raw[:256])
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


@pytest.mark.parametrize("alphas", ["0.004,1.5", "abc", "0", "nan"])
def test_sweep_alpha_rejects_bad_values_as_usage(tiny_store, tmp_path,
                                                 capsys, alphas):
    store_dir, raw = tiny_store
    qdir = tmp_path / "queries"
    qdir.mkdir()
    write_signal_csv(qdir / "q0.csv", raw[:256])
    rc = emap_cli.main(["sweep-alpha", "--store", str(store_dir),
                        "--inputs", str(qdir), "--alphas", alphas,
                        "--out", str(tmp_path / "sweep.csv")])
    assert rc == 2
    assert "--alphas" in capsys.readouterr().err
    assert not (tmp_path / "sweep.csv").exists()


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


@pytest.mark.parametrize("mode", ["corpus", "eval-scenario"])
@pytest.mark.parametrize("flag, value, named", [
    ("--length-s", "1", "got 1.0"), ("--length-s", "1.001", "got 1.001"),
    ("--length-s", "0", "got 0.0"), ("--length-s", "-5", "got -5.0"),
    ("--length-s", "nan", "got nan"), ("--length-s", "inf", "got inf"),
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


def test_bench_smoke(tiny_store, tmp_path, capsys):
    rc = emap_cli.main(["bench", "--store", str(tiny_store[0]),
                        "--workdir", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "xcorr per window" in out
    assert "tracker step over" in out
