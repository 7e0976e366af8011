"""In-memory span tracer for the benchmark's traced run.

Spans are recorded from outside the program: the tracer replaces the
module attributes that callers actually look up with wrappers that time
the call, and puts the originals back afterwards. Only a traced run
installs it, so untraced runs execute the unmodified program.

A span is ``[id, name, start, end, parent_id, request_id]``; times are
``time.perf_counter()`` seconds. The request id is the index of the
benchmark operation (or set-up repetition) that caused the span.
Calls made hundreds of thousands of times per operation (slice and
segment lookups, area computations) are counted instead of spanned, so
that tracing stays cheap next to the work it measures.
"""

from __future__ import annotations

import contextlib
import os
import statistics
import time
from collections import Counter, defaultdict


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.request = 0
        self._paused = False
        self._stack = []
        self._patches = []

    # -- wrappers ----------------------------------------------------------

    def span(self, name, fn, after=None):
        """Wrap fn so each call records a span; after(counts, result, args)
        runs once the span has ended, to derive counters from the result."""
        def wrapper(*args, **kwargs):
            if self._paused:
                return fn(*args, **kwargs)
            rec = [len(self.spans), name, 0.0, 0.0,
                   self._stack[-1] if self._stack else None, self.request]
            self.spans.append(rec)
            self._stack.append(rec[0])
            rec[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = time.perf_counter()
                self._stack.pop()
            if after is not None:
                after(self.counts, result, args)
            return result
        return wrapper

    def counted(self, name, fn):
        def wrapper(*args, **kwargs):
            if not self._paused:
                self.counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    @contextlib.contextmanager
    def paused(self):
        """Calls made inside record nothing (the benchmark's own output
        checks call the same functions)."""
        self._paused = True
        try:
            yield
        finally:
            self._paused = False

    def patch(self, owner, attr, replacement):
        # class attributes are restored from __dict__ so that descriptors
        # (classmethods) come back as they were
        original = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- queries -----------------------------------------------------------

    def durations(self, name):
        return [s[3] - s[2] for s in self.spans if s[1] == name]

    def self_time(self, name):
        """Total duration of the named spans minus what their direct
        children cover."""
        child_time = defaultdict(float)
        for s in self.spans:
            if s[4] is not None:
                child_time[s[4]] += s[3] - s[2]
        return sum(s[3] - s[2] - child_time[s[0]]
                   for s in self.spans if s[1] == name)

    def to_json(self):
        keys = ("id", "name", "start", "end", "parent", "request")
        return {"spans": [dict(zip(keys, s)) for s in self.spans],
                "counts": dict(self.counts)}


def _after_search(prefix):
    def after(counts, res, _args):
        counts[prefix + ".comparisons"] += res.comparisons_made
        counts[prefix + ".candidates"] += len(res.candidates)
        counts["cloud_search.degenerate_skipped"] += res.degenerate_skipped
        if not res.candidates:
            counts[prefix + ".empty_results"] += 1
    return after


def _after_step(counts, report, _args):
    counts["edge_tracker.area_computations"] += report.area_computations
    counts["edge_tracker.removed_dissimilar"] += len(report.removed_dissimilar)


def _after_ingest(counts, signal, _args):
    counts["mdb.ingest_csv.samples"] += signal.samples.size


def _after_build(counts, _store, args):
    out_dir = args[1]
    counts["mdb.build_store.bytes_written"] += sum(
        os.path.getsize(os.path.join(out_dir, f)) for f in os.listdir(out_dir))


def install(tracer: Tracer) -> Tracer:
    """Wrap every layer boundary the benchmark measures.

    orchestrator imports sliding_search and the tracker functions by
    name, and edge_tracker imports get_parent_segment by name, so those
    bindings are wrapped where they are looked up, not where they are
    defined.
    """
    from emap import cloud_search, dsp, edge_tracker, mdb, orchestrator

    sliding = tracer.span("cloud_search.sliding", cloud_search.sliding_search,
                          _after_search("cloud_search.sliding"))
    tracer.patch(cloud_search, "sliding_search", sliding)
    tracer.patch(orchestrator, "sliding_search",
                 tracer.counted("orchestrator.cloud_calls", sliding))
    tracer.patch(cloud_search, "exhaustive_search", tracer.span(
        "cloud_search.exhaustive", cloud_search.exhaustive_search,
        _after_search("cloud_search.exhaustive")))

    for attr, name, after in (
            ("evaluate_batch", "orchestrator.evaluate_batch", None),
            ("run_stream", "orchestrator.run_stream", None),
            ("tracker_step", "edge_tracker.tracker_step", _after_step),
            ("init_tracker", "edge_tracker.init_tracker", None),
            ("swap_in", "edge_tracker.swap_in", None)):
        tracer.patch(orchestrator, attr,
                     tracer.span(name, getattr(orchestrator, attr), after))
    tracer.patch(edge_tracker, "get_parent_segment", tracer.counted(
        "mdb.get_parent_segment.calls", edge_tracker.get_parent_segment))

    for attr in ("resample", "apply_filter"):
        tracer.patch(dsp, attr, tracer.span("dsp." + attr, getattr(dsp, attr)))
    tracer.patch(dsp, "area_between",
                 tracer.counted("dsp.area_between.calls", dsp.area_between))

    tracer.patch(mdb, "ingest_csv",
                 tracer.span("mdb.ingest_csv", mdb.ingest_csv, _after_ingest))
    tracer.patch(mdb, "build_store",
                 tracer.span("mdb.build_store", mdb.build_store, _after_build))
    tracer.patch(mdb.MdbStore, "load",
                 staticmethod(tracer.span("mdb.load", mdb.MdbStore.load)))
    tracer.patch(mdb.MdbStore, "get_slice", tracer.counted(
        "mdb.get_slice.calls", mdb.MdbStore.get_slice))
    return tracer


def percentile(values, q):
    """q-th percentile (q in 1..99) with the inclusive method; 0 if empty."""
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(setup: Tracer, n_setups: int, run: Tracer, traced_ops,
                  overhead_s):
    """Per-layer metrics, normalised per set-up for the store build path
    and per timed operation for everything else.

    traced_ops are the operation times (s) of the traced part of the
    run, the base of busy_share; overhead_s is passed through as
    trace.overhead_s.
    """
    n_setups = max(n_setups, 1)
    n_ops = max(len(traced_ops), 1)
    rc = run.counts
    sc = setup.counts

    def busy(tr, name):
        return sum(tr.durations(name))

    def ratio(a, b):
        return a / b if b else 0.0

    sl_busy = busy(run, "cloud_search.sliding")
    sl_comps = rc["cloud_search.sliding.comparisons"]
    ex_busy = busy(run, "cloud_search.exhaustive")
    ingest_busy = busy(setup, "mdb.ingest_csv")
    steps_us = [d * 1e6 for d in run.durations("edge_tracker.tracker_step")]
    return {
        "cloud_search.sliding.busy_s": sl_busy / n_ops,
        "cloud_search.sliding.busy_share": ratio(sl_busy, sum(traced_ops)),
        "cloud_search.sliding.comparisons": sl_comps / n_ops,
        "cloud_search.sliding.ns_per_comparison": ratio(sl_busy, sl_comps) * 1e9,
        "cloud_search.sliding.hits_per_comparison": ratio(
            rc["cloud_search.sliding.candidates"], sl_comps),
        "cloud_search.sliding.empty_results":
            rc["cloud_search.sliding.empty_results"] / n_ops,
        "cloud_search.degenerate_skipped":
            rc["cloud_search.degenerate_skipped"] / n_ops,
        "cloud_search.exhaustive.busy_s": ex_busy / n_ops,
        "cloud_search.exhaustive.ns_per_comparison": ratio(
            ex_busy, rc["cloud_search.exhaustive.comparisons"]) * 1e9,
        "mdb.ingest_csv.busy_s": ingest_busy / n_setups,
        "mdb.ingest_csv.samples_per_s": ratio(sc["mdb.ingest_csv.samples"],
                                              ingest_busy),
        "mdb.build_store.busy_s": busy(setup, "mdb.build_store") / n_setups,
        "mdb.build_store.bytes_written":
            sc["mdb.build_store.bytes_written"] / n_setups,
        "mdb.load.busy_s": busy(setup, "mdb.load") / n_setups,
        "mdb.get_slice.calls": rc["mdb.get_slice.calls"] / n_ops,
        "mdb.get_parent_segment.calls": rc["mdb.get_parent_segment.calls"] / n_ops,
        "dsp.resample.busy_s": busy(setup, "dsp.resample") / n_setups,
        "dsp.apply_filter.busy_s": busy(setup, "dsp.apply_filter") / n_setups,
        "dsp.area_between.calls": rc["dsp.area_between.calls"] / n_ops,
        "edge_tracker.tracker_step.calls": len(steps_us) / n_ops,
        "edge_tracker.tracker_step.p50_us": percentile(steps_us, 50),
        "edge_tracker.tracker_step.p90_us": percentile(steps_us, 90),
        "edge_tracker.area_computations":
            rc["edge_tracker.area_computations"] / n_ops,
        "edge_tracker.removed_dissimilar":
            rc["edge_tracker.removed_dissimilar"] / n_ops,
        "edge_tracker.swap_in.calls":
            len(run.durations("edge_tracker.swap_in")) / n_ops,
        "orchestrator.run_stream.self_s":
            run.self_time("orchestrator.run_stream") / n_ops,
        "orchestrator.evaluate_batch.self_s":
            run.self_time("orchestrator.evaluate_batch") / n_ops,
        "orchestrator.cloud_calls": rc["orchestrator.cloud_calls"] / n_ops,
        "trace.overhead_s": overhead_s,
    }
