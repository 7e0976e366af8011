"""The mega-database of labeled 1000-sample signal slices.

A store is a plain directory: a JSON manifest describing each source
signal (id, length, anomaly spans) and one little-endian float32
payload file per signal. The slice table is not stored: it is a
function of the manifest (consecutive non-overlapping 1000-sample cuts
from offset 0 of each signal, in manifest order, each labelled
anomalous if any span overlaps it) and is derived at load. Everything
is immutable after build, so concurrent readers need no coordination.

In memory, a loaded store keeps all samples in one flat float32 buffer
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

from . import dsp

SLICE_LEN = 1000

FORMAT_VERSION = 2


class CsvFormatError(ValueError):
    """Raised when a sample file has a row that does not parse or is
    not a finite number."""


@dataclass
class SourceSignal:
    """A filtered 256 Hz recording with its anomaly annotations.

    onset_sample is optional ground-truth metadata (the clinically
    confirmed event time) used only for lead-time scoring; matching and
    labeling use anomaly_spans alone.
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
    for start, end, _kind in sorted(spans, key=lambda s: s[:2]):
        if not (0 <= start < end <= length):
            raise ValueError(
                f"anomaly span ({start}, {end}) outside signal of "
                f"length {length}")
        if prev_end is not None and start < prev_end:
            raise ValueError("anomaly spans overlap")
        prev_end = end


def ingest_csv(path, sample_rate_hz: int, anomaly_spans=(),
               dataset_tag: str = "", signal_id: int = 0) -> SourceSignal:
    """Load one recording from a sample file (format in the module
    docstring).

    Most files are parsed by one np.loadtxt call (_parse_bulk); the
    line scanner _rows parses the others, with the same result. The
    signal is resampled to 256 Hz, bandpass filtered, and its anomaly
    spans are rescaled by the resampling ratio.
    """
    if sample_rate_hz <= 0:
        raise ValueError("sample_rate_hz must be positive")
    with open(path, "r", encoding="utf-8-sig") as fh:
        text = fh.read()
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
    x = dsp.resample(x, sample_rate_hz, dsp.SAMPLE_RATE_HZ)
    spans = [(int(round(s * ratio)), int(round(e * ratio)), k)
             for s, e, k in (_norm_span(sp) for sp in anomaly_spans)]
    filtered = dsp.apply_filter(x, dsp.design_bandpass())
    return SourceSignal(id=signal_id, samples=filtered,
                        anomaly_spans=spans, dataset_tag=dataset_tag)


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


def _slice_label(spans, offset):
    """Any overlap between [offset, offset+SLICE_LEN) and a span marks it anomalous."""
    for start, end, kind in spans:
        if start < offset + SLICE_LEN and end > offset:
            return 1, kind
    return 0, None


def _slice_offsets(signal_id, length):
    """Offsets of a signal's consecutive non-overlapping slices; the
    trailing remainder is discarded."""
    if length < SLICE_LEN:
        raise ValueError(
            f"signal {signal_id} has {length} samples; at least {SLICE_LEN} "
            "are required to form a slice")
    return range(0, length - SLICE_LEN + 1, SLICE_LEN)


_SIGNAL_FIELDS = (("id", int, "integer"), ("file", str, "string"),
                  ("length", int, "integer"), ("spans", list, "array"))


def _signal_entries(manifest):
    """The manifest's signal list, once every entry is known to carry
    the fields load reads, with their JSON types; ValueError otherwise."""
    signals = manifest.get("signals")
    if not isinstance(signals, list):
        raise ValueError("manifest 'signals' is not a list")
    for i, sig in enumerate(signals):
        if not isinstance(sig, dict):
            raise ValueError(f"manifest signal #{i} is not an object")
        name = f"manifest signal #{i} (id {sig.get('id')!r})"
        for key, typ, json_type in _SIGNAL_FIELDS:
            if type(sig.get(key)) is not typ:   # bool is not an int here
                raise ValueError(f"{name} has no {json_type} {key!r}")
        for span in sig["spans"]:
            if not (isinstance(span, list) and len(span) in (2, 3)
                    and all(type(v) is int for v in span[:2])):
                raise ValueError(f"{name}: 'spans' entry {span!r} is not "
                                 "[start, end] or [start, end, kind]")
    return signals


class MdbStore:
    """Immutable directory-backed slice database.

    Load reads every payload into one flat float32 buffer (`flat`), in
    manifest order. Parent arrays are views into it, and `slice_starts`
    holds each slice's first position in it, so a scan can address any
    window of any slice without building a SignalSet. No float64 copy
    is kept: widening float32 to float64 is exact, so callers that
    compute in float64 see bit-identical values.
    """

    def __init__(self, manifest: dict, flat: np.ndarray, parents: dict,
                 index: list, slice_starts: np.ndarray, root=None):
        self.manifest = manifest
        self.root = root
        self.flat = flat
        self.slice_starts = slice_starts
        self._parents = parents
        self._index = index

    # -- construction -------------------------------------------------

    @classmethod
    def load(cls, root) -> "MdbStore":
        """Read the payloads and derive the slice table from the manifest."""
        with open(os.path.join(root, "manifest.json"), encoding="utf-8") as fh:
            manifest = json.load(fh)
        if not isinstance(manifest, dict):
            raise ValueError("manifest is not a JSON object")
        version = manifest.get("format_version")
        if version != FORMAT_VERSION:
            raise ValueError(
                f"store format {version!r} is not supported (format "
                f"{FORMAT_VERSION} expected); rebuild the store")
        signals = _signal_entries(manifest)
        flat = np.empty(sum(sig["length"] for sig in signals), dtype="<f4")
        parents = {}
        index = []
        starts = []
        pos = 0
        for sig in signals:
            length = sig["length"]
            view = flat[pos:pos + length]
            with open(os.path.join(root, sig["file"]), "rb") as fh:
                size = os.fstat(fh.fileno()).st_size
                if size != view.nbytes or fh.readinto(view) != size:
                    raise ValueError(
                        f"payload {sig['file']} has {size // 4} samples, "
                        f"manifest says {length}")
            if sig["id"] in parents:
                raise ValueError(f"manifest lists signal {sig['id']} twice")
            parents[sig["id"]] = view
            spans = [_norm_span(sp) for sp in sig["spans"]]
            _check_spans(spans, length)
            for offset in _slice_offsets(sig["id"], length):
                label, kind = _slice_label(spans, offset)
                index.append((len(index), sig["id"], offset, label, kind))
                starts.append(pos + offset)
            pos += length
        return cls(manifest, flat, parents, index,
                   np.array(starts, dtype=np.int64), root=root)

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
    """Quantize a corpus to float32 payloads and write its manifest.

    Raises ValueError, before any file is written, for duplicate ids,
    signals shorter than one slice, and NaN, infinite or beyond-float32
    samples, which no correlation could score. Returns the reopened
    store, so the arrays in hand are exactly what any later reader will
    see.
    """
    ids = [s.id for s in signals]
    if len(set(ids)) != len(ids):
        raise ValueError("duplicate signal ids in corpus")
    for sig in signals:
        _slice_offsets(sig.id, sig.samples.size)
        if not np.all(np.abs(sig.samples) <= np.finfo(np.float32).max):
            raise ValueError(f"signal {sig.id} has NaN, infinite or "
                             "beyond-float32 samples")
    os.makedirs(out_dir, exist_ok=True)

    sig_entries = []
    for sig in signals:
        fname = f"signal_{sig.id:05d}.f32"
        sig.samples.astype("<f4").tofile(os.path.join(out_dir, fname))
        sig_entries.append({
            "id": sig.id,
            "file": fname,
            "length": int(sig.samples.size),
            "dataset_tag": sig.dataset_tag,
            "spans": [[s, e, k] for s, e, k in sig.anomaly_spans],
            "onset_sample": sig.onset_sample,
        })

    manifest = {
        "format_version": FORMAT_VERSION,
        "sample_rate_hz": dsp.SAMPLE_RATE_HZ,
        "slice_len": SLICE_LEN,
        "signals": sig_entries,
    }
    with open(os.path.join(out_dir, "manifest.json"), "w",
              encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return MdbStore.load(out_dir)


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
