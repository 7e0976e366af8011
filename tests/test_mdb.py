"""Ingestion, slicing, labeling, and the on-disk store format."""

import json
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from emap import mdb
from emap.cloud_search import SearchConfig, exhaustive_search, sliding_search
from emap.dsp import SAMPLE_RATE_HZ, SignalWindow, apply_filter, design_bandpass
from emap.mdb import (
    SLICE_LEN,
    CsvFormatError,
    MdbStore,
    SourceSignal,
    build_store,
    get_parent_segment,
    ingest_csv,
)
from emap import cli as emap_cli
from emap import scenarios


def make_signal(sid, n=2500, spans=(), seed=0, tag="test"):
    rng = np.random.default_rng(seed + sid)
    return SourceSignal(id=sid, samples=rng.normal(0, 15, n),
                        anomaly_spans=list(spans), dataset_tag=tag)


def reference_slice_table(signals):
    """The slicing rule written out as a plain loop: consecutive
    non-overlapping SLICE_LEN cuts from offset 0 of each signal, in
    order, the trailing remainder dropped, each slice labelled by the
    first span that overlaps it. Returns the (set_id, parent_id, offset,
    label, kind) rows and each slice's start in the concatenated
    samples."""
    rows, starts, base = [], [], 0
    for sig in signals:
        for offset in range(0, sig.samples.size - SLICE_LEN + 1, SLICE_LEN):
            label, kind = 0, None
            for start, end, k in sig.anomaly_spans:
                if start < offset + SLICE_LEN and end > offset:
                    label, kind = 1, k
                    break
            rows.append((len(rows), sig.id, offset, label, kind))
            starts.append(base + offset)
        base += sig.samples.size
    return rows, starts


def assert_matches_reference(store, signals):
    rows, starts = reference_slice_table(signals)
    assert store.num_slices == len(rows)
    metas = [store.slice_meta(i) for i in range(store.num_slices)]
    assert metas == rows
    # plain Python values, as a JSON-backed table used to hand out
    assert all(type(v) is type(r) for m, row in zip(metas, rows)
               for v, r in zip(m, row))
    assert store.slice_starts.tolist() == starts


def test_slice_layout_and_any_overlap_labels(tmp_path):
    signals = [make_signal(0, n=2500, spans=[(1500, 1700, "seizure")]),
               # a span clipping just one sample of a slice still marks it
               make_signal(1, n=2000, spans=[(999, 1001, "stroke")]),
               # spans are half-open: touching a slice is not overlapping
               make_signal(2, n=3000, spans=[(500, 1000, "a"),
                                             (2000, 2400, "b")])]
    store = build_store(signals, tmp_path / "store")
    # the trailing 500 samples of signal 0 are dropped
    assert [store.slice_meta(i) for i in range(store.num_slices)] == [
        (0, 0, 0, 0, None), (1, 0, 1000, 1, "seizure"),
        (2, 1, 0, 1, "stroke"), (3, 1, 1000, 1, "stroke"),
        (4, 2, 0, 1, "a"), (5, 2, 1000, 0, None), (6, 2, 2000, 1, "b")]
    assert store.slice_starts.tolist() == [0, 1000, 2500, 3500,
                                           4500, 5500, 6500]


def test_slice_signal_needs_full_slice(tmp_path):
    root = tmp_path / "store"
    with pytest.raises(ValueError, match="signal 1 has 999 samples"):
        build_store([make_signal(0), make_signal(1, n=SLICE_LEN - 1)], root)
    assert not root.exists()      # rejected before any file is written


@st.composite
def spanned_signal(draw, sid):
    """A signal of 1000-5000 samples with random non-overlapping spans."""
    n = draw(st.integers(SLICE_LEN, 5000))
    # slice boundaries are drawn often, so spans touch slices exactly
    cut = st.one_of(st.integers(0, n),
                    st.sampled_from(range(0, n + 1, SLICE_LEN)))
    cuts = sorted(draw(st.lists(cut, max_size=8, unique=True)))
    kinds = draw(st.lists(st.sampled_from([None, "seizure", "stroke"]),
                          min_size=len(cuts) // 2, max_size=len(cuts) // 2))
    return make_signal(sid, n=n, spans=zip(cuts[0::2], cuts[1::2], kinds))


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_derived_slice_table_matches_the_reference(tmp_path_factory, data):
    n_signals = data.draw(st.integers(1, 4))
    signals = [data.draw(spanned_signal(i)) for i in range(n_signals)]
    store = build_store(signals, tmp_path_factory.mktemp("store"))
    assert_matches_reference(store, signals)


def test_derived_slice_table_matches_the_reference_on_the_worlds(
        tmp_path, parity_world, eval_world):
    corpus, store = parity_world
    assert_matches_reference(store, corpus.store_signals)
    world, store = eval_world
    assert_matches_reference(store, world.store_signals)
    # the benchmark's 160-group cloud-queries world, 7680 slices
    signals = scenarios.evaluation_world(2026, n_anomalous=80,
                                         n_normal=80).store_signals
    store = build_store(signals, tmp_path / "store")
    assert store.num_slices == 7680
    assert_matches_reference(store, signals)


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


def set_span(manifest):
    manifest["signals"][1]["spans"] = [[2400, 2600, "seizure"]]


def set_format_1(manifest):
    manifest["format_version"] = 1


def set_format_2(manifest):
    manifest["format_version"] = 2


def drop_spans(manifest):
    del manifest["signals"][1]["spans"]


def drop_length(manifest):
    del manifest["signals"][1]["length"]


def length_as_text(manifest):
    manifest["signals"][1]["length"] = "2500"


def signals_not_a_list(manifest):
    manifest["signals"] = 5


def span_without_end(manifest):
    manifest["signals"][1]["spans"] = [[100]]


def kind_as_list(manifest):
    manifest["signals"][1]["spans"] = [[100, 200, ["a"]]]


def slice_len_500(manifest):
    manifest["slice_len"] = 500


def rate_512(manifest):
    manifest["sample_rate_hz"] = 512


def drop_slice_len(manifest):
    del manifest["slice_len"]


def huge_length(manifest):
    # more float32 samples than numpy will try to reserve
    manifest["signals"][1]["length"] = 10**15


def negative_length_sum(manifest):
    manifest["signals"][1]["length"] = -3000


def equal_spans_of_two_kinds(manifest):
    # None and "x" do not compare, so only a sort by position can order them
    manifest["signals"][1]["spans"] = [[0, 10, None], [0, 10, "x"]]


def huge_id(manifest):
    manifest["signals"][1]["id"] = 2 ** 63


def write_query(tmp_path):
    query = tmp_path / "query.csv"
    query.write_text("".join(f"{v!r}\n" for v in np.arange(1.0, 257.0)))
    return query


@pytest.mark.parametrize("edit, message", [
    (set_span, r"span \(2400, 2600\) outside signal of length 2500"),
    (set_format_1, "store format 1 is not supported"),
    (set_format_2, "store format 2 is not supported .* rebuild the store"),
    (drop_spans, r"manifest signal #1 \(id 1\) has no array 'spans'"),
    (drop_length, r"manifest signal #1 \(id 1\) has no integer 'length'"),
    (length_as_text, r"manifest signal #1 \(id 1\) has no integer 'length'"),
    (signals_not_a_list, "manifest 'signals' is not a list"),
    (lambda m: [m], "manifest is not a JSON object"),
    (span_without_end, r"signal #1 \(id 1\): 'spans' entry \[100\]"),
    (equal_spans_of_two_kinds, "anomaly spans overlap"),
    (slice_len_500, "manifest 'slice_len' is 500; stores hold 1000"),
    (rate_512, "manifest 'sample_rate_hz' is 512; stores hold 256"),
    (drop_slice_len, "manifest 'slice_len' is None"),
    (kind_as_list, r"signal #1 \(id 1\): 'spans' entry \[100, 200, \['a'\]\] "
     "has a kind that is neither a string nor null"),
    (huge_length, "samples.f32 has 18000 bytes; the manifest's lengths sum "
     f"to {2000 + 10**15} samples"),
    (negative_length_sum, "samples.f32 has 18000 bytes; the manifest's "
     "lengths sum to -1000 samples, -4000 bytes"),
    (huge_id, r"manifest signal #1 \(id 9223372036854775808\) has an id "
     "outside int64"),
], ids=["span-outside-signal", "format-1", "format-2", "no-spans",
        "no-length", "length-as-text", "signals-not-a-list",
        "manifest-not-an-object",
        "span-without-end", "equal-spans-of-two-kinds", "slice-len-500",
        "rate-512", "no-slice-len", "kind-as-list", "huge-length",
        "negative-length-sum", "huge-id"])
def test_load_rejects_a_corrupt_manifest(tmp_path, capsys, edit, message):
    root = tmp_path / "store"
    build_store([make_signal(0, n=2000), make_signal(1, n=2500)], root)
    MdbStore.load(root)
    manifest = json.loads((root / "manifest.json").read_text())
    manifest = edit(manifest) or manifest
    (root / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(ValueError, match=message):
        MdbStore.load(root)
    # the CLI reports it as a data error, not a traceback
    rc = emap_cli.main(["search", "--store", str(root),
                        "--input", str(write_query(tmp_path))])
    assert rc == 3
    assert re.search(message, capsys.readouterr().err)


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
    payload = root / "samples.f32"
    payload.write_bytes(payload.read_bytes()[:-4])
    with pytest.raises(ValueError, match="samples.f32 has 7996 bytes; the "
                       "manifest's lengths sum to 2000 samples, 8000 bytes"):
        MdbStore.load(root)


@pytest.mark.parametrize("tail, size", [(b"\0\0", 8002), (b"\0" * 4, 8004)],
                         ids=["partial-sample", "extra-sample"])
def test_load_rejects_bytes_past_the_last_signal(tmp_path, tail, size):
    root = tmp_path / "store"
    build_store([make_signal(0, n=1000), make_signal(1, n=1000)], root)
    payload = root / "samples.f32"
    payload.write_bytes(payload.read_bytes() + tail)
    with pytest.raises(ValueError, match=f"samples.f32 has {size} bytes; the "
                       "manifest's lengths sum to 2000 samples, 8000 bytes"):
        MdbStore.load(root)


def test_a_store_whose_manifest_holds_onsets_still_loads(tmp_path):
    # stores built before the manifest dropped onset_sample carry it
    root = tmp_path / "store"
    store = build_store([make_signal(0, n=2000, spans=[(500, 900, "seizure")]),
                         make_signal(1, n=2500)], root)
    manifest = json.loads((root / "manifest.json").read_text())
    for entry, onset in zip(manifest["signals"], (500, None)):
        entry["onset_sample"] = onset
    (root / "manifest.json").write_text(json.dumps(manifest))
    older = MdbStore.load(root)

    def searched(st):
        window = SignalWindow(samples=st.get_slice(2).samples[:256],
                              timestep_index=0)
        return [(r.candidates, r.comparisons_made, r.degenerate_skipped)
                for r in (sliding_search(window, st, SearchConfig()),
                          exhaustive_search(window, st, SearchConfig()))]

    assert searched(older) == searched(store)
    assert searched(store)[0][0]


def test_payload_is_every_signal_in_manifest_order(tmp_path):
    signals = [make_signal(i, n=1000 + 300 * i) for i in (2, 0, 1)]
    store = build_store(signals, tmp_path / "store")
    payload = (tmp_path / "store" / "samples.f32").read_bytes()
    assert payload == b"".join(s.samples.astype("<f4").tobytes()
                               for s in signals)
    assert payload == store.flat.tobytes()


def test_a_missing_payload_is_a_data_error(tmp_path, capsys):
    root = tmp_path / "store"
    build_store([make_signal(0, n=2000)], root)
    (root / "samples.f32").unlink()
    with pytest.raises(OSError):
        MdbStore.load(root)
    rc = emap_cli.main(["search", "--store", str(root),
                        "--input", str(write_query(tmp_path))])
    assert rc == 3
    assert "samples.f32" in capsys.readouterr().err


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_load_rejects_non_finite_payload_samples(tmp_path, capsys, bad):
    root = tmp_path / "store"
    build_store([make_signal(0, n=2000), make_signal(1, n=2500),
                 make_signal(2, n=2000)], root)
    flat = np.fromfile(root / "samples.f32", dtype="<f4")
    flat[2000 + 1234] = bad
    flat[4500 + 5] = np.nan        # only the first bad sample is named
    flat.tofile(root / "samples.f32")
    message = ("signal 1 has a NaN or infinite sample at 1234 in "
               "samples.f32")
    with pytest.raises(ValueError, match=message):
        MdbStore.load(root)
    rc = emap_cli.main(["search", "--store", str(root),
                        "--input", str(write_query(tmp_path))])
    assert rc == 3
    assert message in capsys.readouterr().err


def test_non_finite_check_crosses_chunk_boundaries(tmp_path, monkeypatch):
    root = tmp_path / "store"
    build_store([make_signal(0, n=2000), make_signal(1, n=2000)], root)
    flat = np.fromfile(root / "samples.f32", dtype="<f4")
    flat[2999] = np.inf
    flat.tofile(root / "samples.f32")
    monkeypatch.setattr(mdb, "_CHECK_CHUNK", 1000)
    with pytest.raises(ValueError, match="signal 1 has a NaN or infinite "
                       "sample at 999"):
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
    # lead times come from the corpus sidecars, not the store
    assert "onset_sample" not in entry
    assert "file" not in entry
    assert manifest["format_version"] == 3
    assert "num_slices" not in manifest
    # the store is its manifest plus one payload; the slice table is derived
    assert sorted(p.name for p in (tmp_path / "store").iterdir()) == [
        "manifest.json", "samples.f32"]


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


def test_ingest_csv_rejects_a_rate_that_leaves_no_samples(tmp_path):
    # 4 samples at 1 GHz last 4 ns: less than half a 256 Hz sample
    p = tmp_path / "short.csv"
    write_csv(p, [1.0, 2.0, 3.0, 4.0])
    with pytest.raises(ValueError, match="short.csv: 4 samples"):
        ingest_csv(p, sample_rate_hz=10 ** 9)


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


def reference_parse(path):
    """The sample-file parse as a plain line loop, the way ingest_csv
    read every file before its bulk path: strip each line, skip blank
    lines and `#` comments, take a non-numeric first row as the header,
    and `float` every other row. Returns the raw float64 samples and
    their line numbers, or raises ingest_csv's CsvFormatError."""
    values, lines = [], []
    header_allowed = True
    with open(path, "r", encoding="utf-8-sig") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            try:
                values.append(float(line))
            except ValueError:
                if header_allowed and not values:
                    header_allowed = False
                    continue
                raise CsvFormatError(
                    f"{path}: non-numeric value {line!r} on line {lineno}"
                ) from None
            lines.append(lineno)
            header_allowed = False
    if not values:
        raise CsvFormatError(f"{path}: no samples found")
    return np.asarray(values, dtype=np.float64), lines


@pytest.fixture()
def bulk_results(monkeypatch):
    """Every _parse_bulk result in the test, None where it refused or
    raised."""
    results = []

    def spy(path, text):
        results.append(None)
        results[-1] = real(path, text)
        return results[-1]

    real = mdb._parse_bulk
    monkeypatch.setattr(mdb, "_parse_bulk", spy)
    return results


def assert_ingest_matches_reference(path, bulk_results):
    """ingest_csv gives the filtered reference samples bit for bit, or
    the reference's exception type and message (a non-finite sample
    named by its line, as ingest_csv does); a bulk result, when there
    was one, is the reference's raw samples bit for bit."""
    del bulk_results[:]
    try:
        got = ingest_csv(path, sample_rate_hz=256).samples.tobytes()
    except ValueError as e:
        got = type(e), str(e)
    raw = None
    try:
        raw, lines = reference_parse(path)
        finite = np.isfinite(raw)
        if not finite.all():
            raise CsvFormatError(f"{path}: non-finite value on line "
                                 f"{lines[int(np.argmin(finite))]}")
        want = apply_filter(raw, design_bandpass()).tobytes()
    except ValueError as e:
        want = type(e), str(e)
    assert got == want
    assert len(bulk_results) == 1
    bulk = bulk_results[0]
    if bulk is not None:
        assert bulk.tobytes() == raw.tobytes()
    return bulk is not None


NUMBERS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.floats(-1e3, 1e3).map(lambda v: f"{v:+.6e}"),
    st.sampled_from(["0", "-0", "+1.5", ".5", "5.", "1E5", "-2e-3", "inf",
                     "-Infinity", "nan", "NaN", "1e999", "-1e999", " 3.25 ",
                     "\t7\t"]))
# rows that keep a file on the bulk path (or fail the same way on both)
CLEAN_ROWS = st.one_of(NUMBERS, NUMBERS, NUMBERS, st.sampled_from(
    ["", "#", "# a comment", "#1.0", "amplitude_uv", "abc", "1.0.0"]))
# rows the guard or loadtxt must refuse, so the line scanner reads them
HOSTILE_ROWS = st.sampled_from(
    ["  # indented", "\t#tab", " ", "\t", " \t ", "1_000", "-1_0.5",
     "1.0 # inline", "2#x", "1.0,2.0", "3,5", ",", "1.0 2.0", "--1",
     "\u0661\u0662", "\xa01.5"])


@st.composite
def sample_file(draw):
    lines = draw(st.lists(CLEAN_ROWS, max_size=12))
    # few hostile rows, so each is often the only thing the guard sees
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))), draw(HOSTILE_ROWS))
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n", "\r"]),
                         min_size=len(lines), max_size=len(lines)))
    text = "".join(line + end for line, end in zip(lines, ends))
    if lines and draw(st.booleans()):
        text = text[:-len(ends[-1])]          # no final line ending
    bom = "\ufeff" if draw(st.booleans()) else ""
    return (bom + text).encode("utf-8")


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=sample_file())
def test_ingest_csv_matches_the_line_loop(tmp_path, bulk_results, data):
    path = tmp_path / "sig.csv"
    path.write_bytes(data)
    assert_ingest_matches_reference(path, bulk_results)


@pytest.mark.parametrize("text, bulk", [
    ("1.5\n2.5\n", True),
    ("# c\n\namplitude\n1.5\r\n2.5\r3.5", True),
    ("\ufeffamplitude\n1.5\n", True),
    ("1.5\nnan\n", True),                   # read in bulk, then rejected
    ("1.5\n \n2.5\n", False),              # whitespace-only line
    ("1.5\n1_000\n", False),
    ("1.5\n2.5 # note\n", False),
    ("1.5\n2.5 3.5\n", False),
    ("1.5\n2.5,3.5\n", False),
    ("1.5\n # indented\n2.5\n", False),
    ("", False),
    ("amplitude\n# only a header\n", False),
], ids=["plain", "comments-header-line-endings", "bom-header", "nan",
        "whitespace-line", "underscore", "inline-comment", "two-values",
        "comma", "indented-comment", "empty", "header-only"])
def test_ingest_csv_takes_the_bulk_path_when_loadtxt_agrees(
        tmp_path, bulk_results, text, bulk):
    path = tmp_path / "sig.csv"
    path.write_bytes(text.encode("utf-8"))
    assert assert_ingest_matches_reference(path, bulk_results) is bulk


def test_eval_world_csvs_take_the_bulk_path(tmp_path, eval_world,
                                            bulk_results):
    world, _store = eval_world
    scenarios.write_corpus_csv(world.store_signals, tmp_path)
    scenarios.write_corpus_csv(world.streams, tmp_path)
    paths = sorted(tmp_path.glob("*.csv"))
    assert len(paths) == 360
    for path in paths:
        assert assert_ingest_matches_reference(path, bulk_results), path


def test_ingest_csv_reads_past_a_byte_order_mark(tmp_path):
    plain, bom = tmp_path / "plain.csv", tmp_path / "bom.csv"
    plain.write_text("1.5\n2.0\n3.0\n", encoding="utf-8")
    bom.write_text("1.5\n2.0\n3.0\n", encoding="utf-8-sig")
    assert bom.read_bytes().startswith(b"\xef\xbb\xbf")
    a = ingest_csv(plain, sample_rate_hz=256).samples
    b = ingest_csv(bom, sample_rate_hz=256).samples
    assert b.size == 3
    assert a.tobytes() == b.tobytes()


def test_ingest_csv_checks_the_rate_before_reading(tmp_path):
    with pytest.raises(ValueError, match="sample_rate_hz must be positive"):
        ingest_csv(tmp_path / "missing.csv", sample_rate_hz=0)


def test_source_signal_validates_spans():
    with pytest.raises(ValueError):
        make_signal(0, n=1000, spans=[(900, 1200, "seizure")])  # out of range
    with pytest.raises(ValueError):
        make_signal(0, n=1000, spans=[(300, 200, "seizure")])   # reversed
    with pytest.raises(ValueError):
        make_signal(0, n=2000, spans=[(100, 600, "a"), (500, 900, "b")])
    with pytest.raises(ValueError, match="anomaly spans overlap"):
        make_signal(0, n=2000, spans=[(0, 10, None), (0, 10, "x")])


def test_onset_must_lie_in_its_stream(tmp_path):
    # an onset past the end inflated the lead time; a negative one
    # silently made it unscorable
    for onset in (-1, 1001, 1_000_000):
        with pytest.raises(ValueError, match=f"onset_sample {onset} outside "
                           "signal of length 1000"):
            SourceSignal(id=0, samples=np.zeros(1000), onset_sample=onset)
    for onset in (0, 999, 1000):
        assert SourceSignal(id=0, samples=np.zeros(1000),
                            onset_sample=onset).onset_sample == onset
    p = tmp_path / "fast.csv"
    write_csv(p, np.random.default_rng(5).normal(0, 15, 2400))
    # 2400 samples at 512 Hz are 1200 at 256 Hz: onset 2400 maps to the
    # end, 2402 one past it
    assert ingest_csv(p, sample_rate_hz=512,
                      onset_sample=2400).onset_sample == 1200
    with pytest.raises(ValueError, match=f"{re.escape(str(p))}: onset_sample "
                       "1201 outside signal of length 1200"):
        ingest_csv(p, sample_rate_hz=512, onset_sample=2402)


def test_synth_corpus_contract():
    signals = scenarios.synth_corpus(123, n_normal=4, n_anomalous=4,
                                     length_s=12.0)
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


def test_synth_corpus_rejects_a_length_of_one_second_or_less():
    with pytest.raises(ValueError, match="length_s .* got 1.0"):
        scenarios.synth_corpus(0, 1, 1, length_s=1.0)
    # the shortest length that gives more than one second of samples
    signals = scenarios.synth_corpus(0, 1, 1, length_s=257 / 256)
    assert [s.samples.size for s in signals] == [257, 257]


def test_synth_corpus_is_seed_deterministic():
    a = scenarios.synth_corpus(9, 2, 2)
    b = scenarios.synth_corpus(9, 2, 2)
    c = scenarios.synth_corpus(10, 2, 2)
    for x, y in zip(a, b):
        assert np.array_equal(x.samples, y.samples)
        assert x.anomaly_spans == y.anomaly_spans
    assert not np.array_equal(a[0].samples, c[0].samples)
