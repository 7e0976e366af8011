"""The mega-database of labeled 1000-sample signal slices.

A store is a plain directory: a JSON manifest describing each source
signal (id, length, anomaly spans) and one little-endian float32
payload file, `samples.f32`, of all signals in manifest order. The
slice table is not stored: it is a function of the manifest
(consecutive non-overlapping 1000-sample cuts from offset 0 of each
signal, in manifest order, each labelled anomalous if any span
overlaps it) and is derived at load. Everything is immutable after
build, so concurrent readers need no coordination.

In memory, a loaded store is that payload in one flat float32 buffer
(see MdbStore); that is what the cloud search scans. This module is
only the store and its CSV ingestion; synthetic corpora come from
`scenarios`.

A sample file (what `ingest_csv` reads) is UTF-8 text, with or without
a byte-order mark, holding one value per line. Blank and
whitespace-only lines and whole-line `#` comments (the first non-blank
character is `#`) are skipped. The first remaining row may be a
non-numeric header; every other row must be one number as Python's
`float` reads it: no inline comment, no second value. Only finite
values are accepted. A row that breaks these rules, or reads as NaN or
infinite, is a CsvFormatError naming its line.
"""

from __future__ import annotations

import itertools
import json
import os
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import dsp

SLICE_LEN = 1000

FORMAT_VERSION = 3
PAYLOAD_FILE = "samples.f32"
_CHECK_CHUNK = 1 << 20  # samples per non-finite check at load
# the integers a JSON field may hold; test the type before membership,
# which for a float or bool is not an integer test
INT64 = range(-2 ** 63, 2 ** 63)


class CsvFormatError(ValueError):
    """Raised when a sample file has a row that does not parse or is
    not a finite number."""


@dataclass
class SourceSignal:
    """A filtered 256 Hz recording with its anomaly annotations.

    onset_sample is optional ground-truth metadata (the clinically
    confirmed event time, a position in [0, len(samples)]) used only
    for lead-time scoring; matching and labeling use anomaly_spans
    alone.
    """
    id: int
    samples: np.ndarray
    anomaly_spans: list = field(default_factory=list)
    dataset_tag: str = ""
    onset_sample: int | None = None

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        self.anomaly_spans = [_norm_span(s) for s in self.anomaly_spans]
        _check_spans(self.anomaly_spans, self.samples.size)
        _check_onset(self.onset_sample, self.samples.size)


@dataclass
class SignalSet:
    set_id: int
    parent_id: int
    parent_offset: int
    samples: np.ndarray
    label: int
    anomaly_kind: str | None = None


def _norm_span(span):
    if len(span) == 2:
        start, end = span
        kind = None
    else:
        start, end, kind = span
    return (int(start), int(end), kind)


def _check_spans(spans, length):
    prev_end = None
    # kinds may be None or str, which do not compare: order by position
    for start, end, *_kind in sorted(spans, key=lambda s: s[:2]):
        if not (0 <= start < end <= length):
            raise ValueError(
                f"anomaly span ({start}, {end}) outside signal of "
                f"length {length}")
        if prev_end is not None and start < prev_end:
            raise ValueError("anomaly spans overlap")
        prev_end = end


def _check_onset(onset, length):
    if onset is not None and not 0 <= onset <= length:
        raise ValueError(
            f"onset_sample {onset} outside signal of length {length}")


def ingest_csv(path, sample_rate_hz: int, anomaly_spans=(),
               dataset_tag: str = "", signal_id: int = 0,
               onset_sample: int | None = None) -> SourceSignal:
    """Load one recording from a sample file (format in the module
    docstring).

    Most files are parsed by one np.loadtxt call (_parse_bulk); the
    line scanner _rows parses the others, with the same result. The
    spans and onset are checked against the recording as given. The
    signal is then resampled to 256 Hz and bandpass filtered, and its
    spans and onset are rescaled by the resampling ratio; a span that
    rounds to no samples keeps one. A span that is not (start, end) or
    (start, end, kind), a span or onset that does not fit the
    recording, or a signal that resamples to no samples, is a
    ValueError naming the file.
    """
    if sample_rate_hz <= 0:
        raise ValueError("sample_rate_hz must be positive")
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            text = fh.read()
    except UnicodeDecodeError as e:
        raise CsvFormatError(f"{path}: {e}") from None
    x = _parse_bulk(path, text)
    if x is None:
        x = np.array([v for _n, v in _rows(path, text) if v is not None],
                     dtype=np.float64)
    if x.size == 0:
        raise CsvFormatError(f"{path}: no samples found")
    finite = np.isfinite(x)
    if not finite.all():
        lines = (n for n, v in _rows(path, text) if v is not None)
        lineno = next(itertools.islice(lines, int(np.argmin(finite)), None))
        raise CsvFormatError(f"{path}: non-finite value on line {lineno}")

    ratio = dsp.SAMPLE_RATE_HZ / float(sample_rate_hz)

    def rescale(pos):
        return int(round(pos * ratio))

    def rescale_span(start, end, kind, n):
        # a span keeps one of the n samples at least
        lo, hi = rescale(start), rescale(end)
        if lo == hi:
            lo = min(lo, n - 1)
            hi = lo + 1
        return lo, hi, kind

    try:
        spans = [_norm_span(sp) for sp in anomaly_spans]
        _check_spans(spans, x.size)
        _check_onset(onset_sample, x.size)
        x = dsp.resample(x, sample_rate_hz)
        spans = [rescale_span(*sp, x.size) for sp in spans]
        return SourceSignal(
            id=signal_id, samples=dsp.apply_filter(x, dsp.design_bandpass()),
            anomaly_spans=spans, dataset_tag=dataset_tag,
            onset_sample=None if onset_sample is None
            else rescale(onset_sample))
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from None


def _rows(path, text):
    """The sample file's row scanner: (line number, value) for each row
    that is not blank or a `#` comment, with value None for a header.
    Only the first row may be a header; any later row that `float`
    cannot read raises CsvFormatError naming its line."""
    first = True
    start = 0
    for lineno in itertools.count(1):
        # split lazily: finding the header must not split the whole file
        end = text.find("\n", start)
        line = text[start:end if end >= 0 else None].strip()
        if line and not line.startswith("#"):
            try:
                value = float(line)
            except ValueError:
                if not first:
                    raise CsvFormatError(f"{path}: non-numeric value "
                                         f"{line!r} on line {lineno}") from None
                value = None
            first = False
            yield lineno, value
        if end < 0:
            return
        start = end + 1


def _parse_bulk(path, text):
    """All samples of `text` (the file at `path`) from one np.loadtxt
    call, or None where loadtxt could read the file otherwise than
    _rows does; the caller then runs _rows.

    loadtxt skips only empty lines and text after a `#`, and with no
    `,` in the file every other line is one field, which it reads as
    `float` does or refuses. So a file whose every `#` starts a line
    gets the same rows and values from both, once a header row found
    by _rows is skipped. Files loadtxt refuses (whitespace-only lines,
    `1_000`, two values on a line, non-ASCII digits) go to _rows.
    """
    if "," in text:
        return None
    at = text.find("#")           # find, unlike count, scans with memchr
    while at >= 0:
        if at and text[at - 1] != "\n":
            return None
        at = text.find("#", at + 1)
    rows = _rows(path, text)
    first = next(rows, None)
    header = first is not None and first[1] is None
    if first is None or (header and next(rows, None) is None):
        return None               # no sample row: loadtxt would only warn
    try:
        return np.loadtxt(path, delimiter=",", skiprows=first[0] if header
                          else 0, ndmin=1, encoding="utf-8-sig")
    except ValueError:
        return None


_SIGNAL_FIELDS = (("id", int, "integer"), ("length", int, "integer"),
                  ("dataset_tag", str, "string"), ("spans", list, "array"))


def _signal_entries(manifest):
    """The manifest's signal list, once it is what a store may hold;
    ValueError otherwise. build_store checks the manifest it is about
    to write by this rule, and MdbStore.load the one it has read.

    A store lists at least one signal. Each entry is an object with an
    integer `id` within int64 that no other entry has, an integer
    `length` of at least one slice, a string `dataset_tag`, and
    `spans` that are valid entries (check_span_entries), lie inside
    the signal and do not overlap. JSON types are exact: a bool is not
    an integer here. A fault in an entry names it as `manifest signal
    #i (id ...)`, except a repeated id or a short signal, which name
    the signal by its id."""
    signals = manifest.get("signals")
    if not isinstance(signals, list):
        raise ValueError("manifest 'signals' is not a list")
    if not signals:
        raise ValueError("manifest lists no signals")

    def name(i, sig):
        return f"manifest signal #{i} (id {sig.get('id')!r})"

    seen = set()
    for i, sig in enumerate(signals):
        if not isinstance(sig, dict):
            raise ValueError(f"manifest signal #{i} is not an object")
        for key, typ, json_type in _SIGNAL_FIELDS:
            if type(sig.get(key)) is not typ:
                raise ValueError(f"{name(i, sig)} has no {json_type} {key!r}")
        sig_id, length, spans = sig["id"], sig["length"], sig["spans"]
        if sig_id not in INT64:
            raise ValueError(f"{name(i, sig)} has an id outside int64")
        if sig_id in seen:
            raise ValueError(f"manifest lists signal {sig_id} twice")
        seen.add(sig_id)
        if length < SLICE_LEN:
            raise ValueError(
                f"signal {sig_id} has {length} samples; at least "
                f"{SLICE_LEN} are required to form a slice")
        if spans:                   # no spans pass both checks
            check_span_entries(spans, name(i, sig))
            try:
                _check_spans(spans, length)
            except ValueError as e:
                raise ValueError(f"{name(i, sig)}: {e}") from None
    return signals


def _first_non_finite(flat):
    """Position of the first NaN or infinite sample of `flat`, or None.
    Checked 2^20 samples at a time, so no store-sized mask is made."""
    for lo in range(0, flat.size, _CHECK_CHUNK):
        finite = np.isfinite(flat[lo:lo + _CHECK_CHUNK])
        if not finite.all():
            return lo + int(np.argmin(finite))
    return None


def check_span_entries(spans, name):
    """ValueError naming `name` unless every entry of the JSON array
    `spans` is [start, end] or [start, end, kind] with integer positions
    within int64 and a string or null kind (manifest entries and
    sample-file sidecars share this rule)."""
    for span in spans:
        if not (isinstance(span, list) and len(span) in (2, 3)
                and all(type(v) is int and v in INT64 for v in span[:2])):
            raise ValueError(f"{name}: 'spans' entry {span!r} is not "
                             "[start, end] or [start, end, kind]")
        if len(span) == 3 and not isinstance(span[2], (str, type(None))):
            raise ValueError(f"{name}: 'spans' entry {span!r} has a kind "
                             "that is neither a string nor null")


class MdbStore:
    """Immutable directory-backed slice database.

    Load reads the payload into one flat float32 buffer (`flat`), in
    manifest order. Parent arrays are views into it, and `slice_starts`
    holds each slice's first position in it, so a scan can address any
    window of any slice without building a SignalSet. Every store holds
    at least one slice (_signal_entries). `windows` is the store's one
    view of every WINDOW_LEN-sample window of `flat`: windows[p] is the
    window starting at position p, so the scans and the edge tracker
    gather windows from it without building a view per call. No
    float64 copy is kept: widening float32 to float64 is exact, so
    callers that compute in float64 see bit-identical values.
    """

    def __init__(self, manifest: dict, flat: np.ndarray, parents: dict,
                 index: list, slice_starts: np.ndarray):
        self.manifest = manifest
        self.flat = flat
        self.slice_starts = slice_starts
        # (flat.size - WINDOW_LEN + 1, WINDOW_LEN), one row per start
        self.windows = sliding_window_view(flat, dsp.WINDOW_LEN)
        self._parents = parents
        self._index = index
        # cloud_search's FFT table, built on the first exhaustive search
        self.scan_table = None

    # -- construction -------------------------------------------------

    @classmethod
    def load(cls, root) -> "MdbStore":
        """Read the payload and derive the slice table from the manifest,
        once the manifest is what a store may hold (_signal_entries).

        The payload's size must be 4 bytes per listed sample before any
        buffer is made, and every sample must be finite; ValueError
        otherwise. The table is built from int64 columns, which can
        hold every length once the size check has passed; labels and
        kinds are set one span at a time."""
        path = os.path.join(root, "manifest.json")
        try:
            with open(path, encoding="utf-8") as fh:
                manifest = json.load(fh)
        except ValueError as e:     # not UTF-8, or not JSON
            raise ValueError(f"{path}: {e}") from None
        if not isinstance(manifest, dict):
            raise ValueError("manifest is not a JSON object")
        version = manifest.get("format_version")
        if version != FORMAT_VERSION:
            raise ValueError(
                f"store format {version!r} is not supported (format "
                f"{FORMAT_VERSION} expected); rebuild the store")
        for key, want in (("slice_len", SLICE_LEN),
                          ("sample_rate_hz", dsp.SAMPLE_RATE_HZ)):
            got = manifest.get(key)
            if type(got) is not int or got != want:
                raise ValueError(f"manifest {key!r} is {got!r}; stores "
                                 f"hold {want} here")
        signals = _signal_entries(manifest)
        ids = [sig["id"] for sig in signals]
        length_list = [sig["length"] for sig in signals]
        total = sum(length_list)
        with open(os.path.join(root, PAYLOAD_FILE), "rb") as fh:
            size = os.fstat(fh.fileno()).st_size
            # sizes agree before anything is allocated, so a corrupt
            # length cannot ask for more memory than the payload holds
            flat = np.empty(total, dtype="<f4") if 4 * total == size else None
            if flat is None or fh.readinto(flat) != size:
                raise ValueError(
                    f"payload {PAYLOAD_FILE} has {size} bytes; the manifest's "
                    f"lengths sum to {total} samples, {4 * total} bytes")
        lengths = np.array(length_list, dtype=np.int64)
        ends = np.cumsum(lengths)
        pos = ends - lengths
        bad = _first_non_finite(flat)
        if bad is not None:
            at = int(np.searchsorted(ends, bad, "right"))
            raise ValueError(f"signal {ids[at]} has a NaN or infinite "
                             f"sample at {bad - int(pos[at])} in "
                             f"{PAYLOAD_FILE}")
        parents = {sig_id: flat[p:e] for sig_id, p, e
                   in zip(ids, pos.tolist(), ends.tolist())}
        # consecutive slices from offset 0; the remainder is dropped
        counts = lengths // SLICE_LEN
        first = np.cumsum(counts) - counts
        n = int(counts.sum())
        owner = np.repeat(np.arange(len(signals)), counts)
        offsets = (np.arange(n) - first[owner]) * SLICE_LEN
        labels = [0] * n
        kinds = [None] * n
        for sig, base, count in zip(signals, first.tolist(), counts.tolist()):
            # in reverse, so the first listed span overlapping a slice
            # is the one that labels it
            for start, end, kind in map(_norm_span, reversed(sig["spans"])):
                lo = base + min(start // SLICE_LEN, count)
                hi = base + min(-(-end // SLICE_LEN), count)
                labels[lo:hi] = [1] * (hi - lo)
                kinds[lo:hi] = [kind] * (hi - lo)
        owner_ids = np.array(ids, dtype=np.int64)[owner]
        index = list(zip(range(n), owner_ids.tolist(), offsets.tolist(),
                         labels, kinds))
        return cls(manifest, flat, parents, index, pos[owner] + offsets)

    # -- queries ------------------------------------------------------

    @property
    def num_slices(self) -> int:
        return len(self._index)

    def slice_meta(self, set_id: int):
        """(set_id, parent_id, parent_offset, label, kind) for one slice."""
        if not 0 <= set_id < len(self._index):
            raise ValueError(f"no slice {set_id} in a store of "
                             f"{len(self._index)}")
        return self._index[set_id]

    def get_slice(self, set_id: int) -> SignalSet:
        _sid, parent_id, offset, label, kind = self.slice_meta(set_id)
        parent = self._parents[parent_id]
        return SignalSet(set_id=set_id, parent_id=parent_id,
                         parent_offset=offset,
                         samples=parent[offset:offset + SLICE_LEN],
                         label=label, anomaly_kind=kind)

    def parent_samples(self, parent_id: int) -> np.ndarray:
        """The parent's float32 samples, a view into the flat buffer."""
        return self._parents[parent_id]


def build_store(signals, out_dir) -> MdbStore:
    """Quantize a corpus to one float32 payload and write its manifest.

    Raises ValueError, before any file or directory is made, unless the
    manifest to be written is what a store may hold (_signal_entries,
    the rule MdbStore.load reads by) and every sample is finite and
    within float32, which no correlation could score otherwise. Returns
    the reopened store, so the arrays in hand are exactly what any
    later reader will see.
    """
    signals = list(signals)     # read three times, so not an iterator
    manifest = {
        "format_version": FORMAT_VERSION,
        "sample_rate_hz": dsp.SAMPLE_RATE_HZ,
        "slice_len": SLICE_LEN,
        "signals": [{
            "id": sig.id,
            "length": int(sig.samples.size),
            "dataset_tag": sig.dataset_tag,
            "spans": [[s, e, k] for s, e, k in sig.anomaly_spans],
        } for sig in signals],
    }
    _signal_entries(manifest)
    for sig in signals:
        if not np.all(np.abs(sig.samples) <= np.finfo(np.float32).max):
            raise ValueError(f"signal {sig.id} has NaN, infinite or "
                             "beyond-float32 samples")
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, PAYLOAD_FILE), "wb") as fh:
        for sig in signals:
            sig.samples.astype("<f4").tofile(fh)
    write_json(os.path.join(out_dir, "manifest.json"), manifest)
    return MdbStore.load(out_dir)


def write_json(path, obj):
    """Write obj as pretty JSON: indent 2, sorted keys, a final newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def get_parent_segment(store: MdbStore, set_id: int, offset: int,
                       length: int):
    """Float32 samples of the slice's parent starting `offset` past the
    slice origin (a view into the store), or None once the parent is
    exhausted (the tracked recording simply ended; not an error)."""
    if offset < 0 or length <= 0:
        raise ValueError("offset must be >= 0 and length positive")
    _sid, parent_id, parent_offset, _label, _kind = store.slice_meta(set_id)
    parent = store.parent_samples(parent_id)
    start = parent_offset + offset
    if start + length > parent.size:
        return None
    return parent[start:start + length]
