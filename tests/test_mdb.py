"""Ingestion, slicing, labeling, and the on-disk store format."""

import json

import numpy as np
import pytest

from emap.dsp import SAMPLE_RATE_HZ
from emap.mdb import (
    SLICE_LEN,
    CsvFormatError,
    MdbStore,
    SourceSignal,
    build_store,
    get_parent_segment,
    ingest_csv,
    slice_signal,
    synth_corpus,
)


def make_signal(sid, n=2500, spans=(), seed=0, tag="test"):
    rng = np.random.default_rng(seed + sid)
    return SourceSignal(id=sid, samples=rng.normal(0, 15, n),
                        anomaly_spans=list(spans), dataset_tag=tag)


def test_slice_layout_and_any_overlap_labels():
    sig = make_signal(0, n=2500, spans=[(1500, 1700, "seizure")])
    slices = slice_signal(sig)
    assert len(slices) == 2          # trailing 500 samples are dropped
    assert [s.parent_offset for s in slices] == [0, 1000]
    assert [s.label for s in slices] == [0, 1]
    assert slices[1].anomaly_kind == "seizure"
    # a span clipping just one sample of a slice still marks it
    sig2 = make_signal(1, n=2000, spans=[(999, 1001, "stroke")])
    assert [s.label for s in slice_signal(sig2)] == [1, 1]


def test_slice_signal_needs_full_slice():
    with pytest.raises(ValueError):
        slice_signal(make_signal(0, n=SLICE_LEN - 1))


def test_store_round_trip(tmp_path):
    signals = [make_signal(i, spans=[(0, 1200, "seizure")] if i % 2 else ())
               for i in range(4)]
    store = build_store(signals, tmp_path / "store")
    loaded = MdbStore.load(tmp_path / "store")
    assert loaded.num_slices == store.num_slices == 8
    for sid in range(loaded.num_slices):
        a = store.get_slice(sid)
        b = loaded.get_slice(sid)
        assert np.array_equal(a.samples, b.samples)
        assert store.slice_meta(sid) == loaded.slice_meta(sid)
    # payloads are float32 on disk; reloading is bit-stable
    again = MdbStore.load(tmp_path / "store")
    assert np.array_equal(again.parent_samples(0), loaded.parent_samples(0))


def test_store_slices_are_parent_segments(tmp_path):
    sig = make_signal(7, n=3100)
    store = build_store([sig], tmp_path / "store")
    parent = store.parent_samples(7)
    for sid in range(store.num_slices):
        _, parent_id, off, _, _ = store.slice_meta(sid)
        assert parent_id == 7
        assert np.array_equal(store.get_slice(sid).samples,
                              parent[off:off + SLICE_LEN])


def test_store_holds_one_flat_float32_buffer(tmp_path):
    signals = [make_signal(i, n=1000 + 700 * i) for i in range(3)]
    store = build_store(signals, tmp_path / "store")
    assert store.flat.dtype == np.float32
    assert store.flat.size == sum(s.samples.size for s in signals)
    assert store.slice_starts.dtype == np.int64
    for sig in signals:
        parent = store.parent_samples(sig.id)
        assert np.shares_memory(parent, store.flat)
        assert np.array_equal(parent, sig.samples.astype("<f4"))
    for sid in range(store.num_slices):
        start = store.slice_starts[sid]
        assert np.array_equal(store.flat[start:start + SLICE_LEN],
                              store.get_slice(sid).samples)


def corrupt_index(root, edit):
    path = root / "index.json"
    index = json.loads(path.read_text())
    edit(index)
    path.write_text(json.dumps(index))


@pytest.mark.parametrize("edit, message", [
    (lambda ix: ix.reverse(), "expected set_id 0"),
    (lambda ix: ix.pop(0), "expected set_id 0"),
    (lambda ix: ix[1].__setitem__(0, 7), "expected set_id 1"),
    (lambda ix: ix[2].__setitem__(1, 99), "unknown parent 99"),
    (lambda ix: ix[0].__setitem__(2, -1), "offset -1"),
    (lambda ix: ix[1].__setitem__(2, 1001), "offset 1001"),
    (lambda ix: ix[3].__setitem__(2, 1.5), "offset 1.5"),
    (lambda ix: ix[0].pop(), "expected set_id 0"),
])
def test_load_rejects_a_corrupt_index(tmp_path, edit, message):
    # parent 0 has two slices and 2000 samples, parent 1 has two slices
    # and 2500: an offset of 1001 would read 1 sample into parent 1
    root = tmp_path / "store"
    build_store([make_signal(0, n=2000), make_signal(1, n=2500)], root)
    MdbStore.load(root)
    corrupt_index(root, edit)
    with pytest.raises(ValueError, match=message):
        MdbStore.load(root)


def test_load_rejects_a_signal_listed_twice(tmp_path):
    root = tmp_path / "store"
    build_store([make_signal(0, n=2000), make_signal(1, n=2000)], root)
    manifest = json.loads((root / "manifest.json").read_text())
    manifest["signals"][1]["id"] = 0
    (root / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(ValueError, match="signal 0 twice"):
        MdbStore.load(root)


def test_load_rejects_a_truncated_payload(tmp_path):
    root = tmp_path / "store"
    build_store([make_signal(0, n=2000)], root)
    payload = root / "signal_00000.f32"
    payload.write_bytes(payload.read_bytes()[:-4])
    with pytest.raises(ValueError, match="1999 samples"):
        MdbStore.load(root)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e39])
def test_build_store_rejects_non_finite_samples(tmp_path, bad):
    sig = make_signal(4, n=2000)
    sig.samples[1234] = bad
    with pytest.raises(ValueError, match="signal 4"):
        build_store([make_signal(0), sig], tmp_path / "store")


def test_build_store_rejects_duplicate_ids(tmp_path):
    with pytest.raises(ValueError):
        build_store([make_signal(3), make_signal(3)], tmp_path / "store")


def test_manifest_is_readable_json(tmp_path):
    sig = make_signal(0, spans=[(100, 300, "seizure")])
    sig.onset_sample = 100
    build_store([sig], tmp_path / "store")
    manifest = json.loads((tmp_path / "store" / "manifest.json").read_text())
    entry = manifest["signals"][0]
    assert entry["id"] == 0
    assert entry["spans"] == [[100, 300, "seizure"]]
    assert entry["onset_sample"] == 100
    assert manifest["format_version"] == 1
    assert manifest["num_slices"] == 2
    index = json.loads((tmp_path / "store" / "index.json").read_text())
    assert len(index) == 2


def test_get_parent_segment_contract(tmp_path):
    sig = make_signal(0, n=2200)
    store = build_store([sig], tmp_path / "store")
    parent = store.parent_samples(0)
    # offset is relative to the slice origin and may cross into the
    # parent's continuation beyond the 1000-sample slice
    seg = get_parent_segment(store, 0, 900, 256)
    assert np.array_equal(seg, parent[900:1156])
    seg = get_parent_segment(store, 1, 500, 256)
    assert np.array_equal(seg, parent[1500:1756])
    # reading past the end of the parent reports exhaustion, not a crash
    assert get_parent_segment(store, 1, 1100, 256) is None
    assert get_parent_segment(store, 1, 944, 256) is not None
    assert get_parent_segment(store, 1, 945, 256) is None
    with pytest.raises(ValueError):
        get_parent_segment(store, 0, -1, 256)
    with pytest.raises(ValueError):
        get_parent_segment(store, 0, 0, 0)


def write_csv(path, values, header=None, comments=()):
    lines = list(comments)
    if header:
        lines.append(header)
    lines += [repr(float(v)) for v in values]
    path.write_text("\n".join(lines) + "\n")


def test_ingest_csv_basic(tmp_path):
    rng = np.random.default_rng(3)
    raw = rng.normal(0, 15, 1200)
    p = tmp_path / "sig.csv"
    write_csv(p, raw, header="amplitude_uv",
              comments=["# recorded at 256 Hz", ""])
    sig = ingest_csv(p, sample_rate_hz=256,
                     anomaly_spans=[(100, 500, "seizure")],
                     dataset_tag="unit", signal_id=42)
    assert sig.id == 42
    assert sig.samples.size == 1200        # filtering preserves length
    assert sig.anomaly_spans == [(100, 500, "seizure")]
    assert sig.dataset_tag == "unit"
    # the filter actually ran: raw and ingested samples differ
    assert not np.allclose(sig.samples, raw)


def test_ingest_csv_resamples_and_rescales_spans(tmp_path):
    rng = np.random.default_rng(4)
    p = tmp_path / "fast.csv"
    write_csv(p, rng.normal(0, 15, 2400))
    sig = ingest_csv(p, sample_rate_hz=512,
                     anomaly_spans=[(1000, 2002, "stroke")])
    assert sig.samples.size == 1200        # 512 Hz -> 256 Hz halves it
    assert sig.anomaly_spans == [(500, 1001, "stroke")]


def test_ingest_csv_reports_bad_line_number(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("# comment\n1.0\n2.0\nnot-a-number\n4.0\n")
    with pytest.raises(CsvFormatError) as err:
        ingest_csv(p, sample_rate_hz=256)
    assert "line 4" in str(err.value)


@pytest.mark.parametrize("token", ["nan", "NaN", "inf", "-inf", "1e999"])
def test_ingest_csv_rejects_non_finite_samples(tmp_path, token):
    p = tmp_path / "bad.csv"
    p.write_text(f"amplitude\n1.0\n2.0\n{token}\n4.0\n")
    with pytest.raises(CsvFormatError, match="line 4"):
        ingest_csv(p, sample_rate_hz=256)


def test_ingest_csv_rejects_empty(tmp_path):
    p = tmp_path / "empty.csv"
    p.write_text("# nothing here\n\n")
    with pytest.raises(CsvFormatError):
        ingest_csv(p, sample_rate_hz=256)


def test_source_signal_validates_spans():
    with pytest.raises(ValueError):
        make_signal(0, n=1000, spans=[(900, 1200, "seizure")])  # out of range
    with pytest.raises(ValueError):
        make_signal(0, n=1000, spans=[(300, 200, "seizure")])   # reversed
    with pytest.raises(ValueError):
        make_signal(0, n=2000, spans=[(100, 600, "a"), (500, 900, "b")])


def test_synth_corpus_contract():
    signals = synth_corpus(123, n_normal=4, n_anomalous=4, length_s=12.0)
    assert len(signals) == 8
    assert len({s.id for s in signals}) == 8
    n_anom = 0
    for s in signals:
        assert s.samples.size == int(12.0 * SAMPLE_RATE_HZ)
        if s.anomaly_spans:
            n_anom += 1
            start, end, kind = s.anomaly_spans[0]
            assert kind == "seizure"
            assert 0 <= start < end <= s.samples.size
            assert s.onset_sample == start
            inside = s.samples[start:end]
            outside = np.concatenate([s.samples[:start], s.samples[end:]])
            ratio = np.sqrt(np.mean(inside ** 2) / np.mean(outside ** 2))
            assert ratio >= 1.5, f"in-span RMS only {ratio:.2f}x"
    assert n_anom == 4


def test_synth_corpus_is_seed_deterministic():
    a = synth_corpus(9, 2, 2)
    b = synth_corpus(9, 2, 2)
    c = synth_corpus(10, 2, 2)
    for x, y in zip(a, b):
        assert np.array_equal(x.samples, y.samples)
        assert x.anomaly_spans == y.anomaly_spans
    assert not np.array_equal(a[0].samples, c[0].samples)
