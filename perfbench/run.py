#!/usr/bin/env python3
"""Benchmark of the emap pipeline.

Run from the repository root:

    python3 perfbench/run.py --workload eval-world --seed 2026 \\
        --seconds 20 --trace 0

Every workload is a closed loop: one client in one single-threaded
process issues the next operation only when the previous one returned.
BLAS threads are capped at the number of usable cores. Inputs are made
from --seed only; the program sees the generated inputs, never the seed.

    eval-world     set-up ingests the evaluation world's CSVs, builds
                   the store and opens it; one operation is
                   orchestrator.evaluate_batch over all its streams.
    cloud-queries  set-up opens a store about 4x the evaluation world,
                   built from memory before timing; one operation is one
                   cloud_search.sliding_search of a seeded query mix
                   (stream windows where a slice starts, which must find
                   the stream's twins; stream windows at random offsets;
                   and windows that match nothing).
    oracle-parity  set-up opens the parity corpus store, built before
                   timing; one operation is one
                   cloud_search.exhaustive_search, and each query is also
                   run through sliding_search (untimed) to measure its
                   recall against the oracle.

Only eval-world's set-up writes a store. Writing one creates a file per
signal, and on a shared host the time to create a file can change
twentyfold from one minute to the next, which would bury any change to
the program in a set-up that is mostly file creation. The other two
workloads open a store built before timing, so their set-up is
MdbStore.load, where work moved out of the scans would land.

Set-up is repeated in samples (see Setups) and reported as the median
time of one set-up. Each workload runs at least one full pass over its
operations, then keeps going until --seconds have passed outside
set-up. Every output is checked: invariants through the public API on
any seed, repeat passes against the first, and, on a workload's default
seed, digests recorded in digests.json. Any exception or wrong output
counts as one failed operation and the run continues; error_rate is
failed / attempted.

--trace 0 prints the end-to-end metrics, with times scaled by a
reference kernel timed around every operation and set-up (see
Reference), and the unscaled figures. --trace 1 spends half the time
untraced and half traced (see tracing.py), prints the per-layer metrics
(unscaled, except trace.overhead_s, which compares the scaled halves)
and writes the spans to .perfbench/spans-<workload>-seed<seed>.json.
The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.

--tiny shrinks every input for the smoke test (digests are not checked)
and --record-digests rewrites the workload's entry in digests.json from
the first pass; both are for maintaining the benchmark, not measuring.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import tempfile
import time
import traceback
import types
import typing
from pathlib import Path

import tracing

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
DIGESTS = BENCH_DIR / "digests.json"
NPROC = len(os.sched_getaffinity(0))
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END_UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER_UNITS = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
SETUP_REPS = 3
SETUP_SECONDS = 6.0
# a timed set-up sample repeats the set-up until it lasts this long, so
# that a set-up of a few milliseconds is not timed at the resolution of
# the host's scheduling noise
SETUP_SAMPLE_S = 0.5
MAX_SETUP_SAMPLES = 16
WINDOW = 256
# reference kernel time that reported times are scaled to (see Reference)
REF_NOMINAL_S = 0.0025


class WrongOutput(Exception):
    pass


def require(ok, message):
    if not ok:
        raise WrongOutput(message)


def load_program():
    """Import the program from this checkout's src/, after capping the
    BLAS thread pools (they are sized when numpy is first imported)."""
    if not (SRC / "emap" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program source at {SRC / 'emap'}")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(NPROC)
    sys.path.insert(0, str(SRC))
    import numpy as np
    import emap
    from emap import (cloud_search, dsp, edge_tracker, mdb, orchestrator,
                      scenarios)
    if not Path(emap.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"perfbench: emap imported from {emap.__file__}, "
                         f"not from {SRC}")
    return types.SimpleNamespace(
        np=np, cloud_search=cloud_search, dsp=dsp, edge_tracker=edge_tracker,
        mdb=mdb, orchestrator=orchestrator, scenarios=scenarios)


def machine_info(P):
    info = {"nproc": NPROC, "cpu_model": platform.processor() or "unknown",
            "python": platform.python_version(), "numpy": P.np.__version__,
            "openblas": "unknown",
            "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"])}
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    info["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    for level in (2, 3):
        info[f"l{level}_cache"] = "unknown"
    for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (idx / "level").read_text().strip()
            size = (idx / "size").read_text().strip()
        except OSError:
            continue
        if level in ("2", "3"):
            info[f"l{level}_cache"] = size
    try:
        blas = P.np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["openblas"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        pass
    return info


# -- output checks shared by the search workloads ----------------------------

def result_digest(res):
    # omega rounded to 12 decimals: the digest names the same candidates
    # even if a BLAS build sums a dot product in another order
    h = hashlib.sha256()
    for c in res.candidates:
        h.update(f"{c.set_id},{c.beta},{c.omega:.12f};".encode())
    h.update(f"comparisons={res.comparisons_made}".encode())
    return h.hexdigest()[:16]


def check_candidates(P, query, store, cfg, res):
    """Sorted, one per slice, at most top_k, and each omega recomputed
    with dsp.xcorr at its (set_id, beta) agrees to 1e-12 and exceeds
    delta."""
    q = P.dsp.window_samples(query)
    keys = [(-c.omega, c.set_id, c.beta) for c in res.candidates]
    require(keys == sorted(keys), "candidates are not sorted")
    require(len({c.set_id for c in res.candidates}) == len(keys),
            "a slice appears twice among the candidates")
    require(len(keys) <= cfg.top_k, "more candidates than top_k")
    for c in res.candidates:
        seg = P.mdb.get_parent_segment(store, c.set_id, c.beta, WINDOW)
        omega = P.dsp.xcorr(q, seg)
        require(abs(omega - c.omega) <= 1e-12,
                f"slice {c.set_id} beta {c.beta}: omega {c.omega!r} but "
                f"xcorr gives {omega!r}")
        require(c.omega > cfg.delta,
                f"slice {c.set_id}: omega {c.omega} not above delta")


# -- workloads ----------------------------------------------------------------

def ingest_with_sidecar(mdb, csv_path):
    with open(csv_path.with_suffix(".json"), encoding="utf-8") as fh:
        meta = json.load(fh)
    sig = mdb.ingest_csv(csv_path, sample_rate_hz=meta["sample_rate_hz"],
                         anomaly_spans=[tuple(s) for s in meta["spans"]],
                         dataset_tag=meta["dataset_tag"], signal_id=meta["id"])
    sig.onset_sample = meta["onset_sample"]
    return sig


class EvalWorld:
    """The paper's end-to-end job over the 40-stream evaluation world.

    Set-up is the only place the CSV -> resample -> filter -> store write
    path runs; the operation is mostly sliding search with a little
    tracking.
    """
    name = "eval-world"

    def __init__(self, P, seed, tiny, work):
        self.P = P
        self.work = work
        n = 2 if tiny else 20
        world = P.scenarios.evaluation_world(seed, n_anomalous=n, n_normal=n)
        self.cfg = world.run_config
        self.n_streams = len(world.streams)
        P.scenarios.write_corpus_csv(world.store_signals, work / "store")
        P.scenarios.write_corpus_csv(world.streams, work / "eval")

    def setup(self, store_dir):
        mdb = self.P.mdb
        signals = [ingest_with_sidecar(mdb, p)
                   for p in sorted((self.work / "store").glob("*.csv"))]
        mdb.build_store(signals, store_dir)
        self.store = mdb.MdbStore.load(store_dir)
        self.streams = [ingest_with_sidecar(mdb, p)
                        for p in sorted((self.work / "eval").glob("*.csv"))]

    def ops(self):
        c = self.cfg

        def evaluate():
            return self.P.orchestrator.evaluate_batch(
                self.streams, self.store, c.search, c.tracker, c.link, c.sim)
        return [evaluate]

    def check(self, i, table):
        require(table.mean_row.n == self.n_streams,
                f"mean row covers {table.mean_row.n} streams")
        for row in table.rows:
            require(0.0 <= row.accuracy <= 1.0
                    and 0.0 <= row.false_positive_rate <= 1.0,
                    f"batch {row.batch}: rate outside [0, 1]")
        for out in table.outcomes:
            times = [e.t_sim_us for e in out.timeline]
            require(times == sorted(times),
                    f"stream {out.signal_id}: timeline out of order")
            require(out.reports, f"stream {out.signal_id}: no tracking steps")
            require(all(0.0 <= r.p_anomaly <= 1.0 for r in out.reports),
                    f"stream {out.signal_id}: P_A outside [0, 1]")

    def digest(self, i, table):
        record = self.P.edge_tracker.report_json_record
        timeline = hashlib.sha256()
        reports = hashlib.sha256()
        for out in table.outcomes:
            for ev in out.timeline:
                timeline.update(json.dumps(ev.to_json_dict()).encode() + b"\n")
            for rep in out.reports:
                reports.update(json.dumps(record(
                    rep, step_micros=self.cfg.sim.report_step_micros)
                ).encode() + b"\n")
        m = table.mean_row
        return {"accuracy": m.accuracy,
                "false_positive_rate": m.false_positive_rate,
                "mean_lead_time_s": m.mean_lead_time_s,
                "timeline_sha256": timeline.hexdigest(),
                "reports_sha256": reports.hexdigest()}

    def finish(self):
        pass

    def report(self, m):
        return [metric_line("eval_s", m["op_p50_ms"] / 1e3, "s")]


class CloudQueries:
    """What one edge waits for: sliding searches against a store about 4x
    the evaluation world, with no tracker, orchestrator or CSV work.

    The query mix cycles through three kinds:
      0  a stream window that starts where one of the store's slices
         starts. The scan always correlates offset 0 of every slice, so
         both of the stream's twins must come back at that position
         (the first window run_stream sends is of this kind);
      1  a stream window at a random sample offset, which the scan's
         coarse steps mostly pass over;
      2  in-band noise owned by no stream, which matches nothing.
    """
    name = "cloud-queries"
    KINDS = ("slice-start", "random-offset", "noise")

    def __init__(self, P, seed, tiny, work):
        self.P = P
        self.work = work
        groups = 4 if tiny else 80
        world = P.scenarios.evaluation_world(seed, n_anomalous=groups,
                                             n_normal=groups)
        P.mdb.build_store(world.store_signals, work / "store")
        self.cfg = world.run_config.search
        np = P.np
        rng = np.random.default_rng([seed, 1])
        taps = P.dsp.design_bandpass()
        slice_len = P.mdb.SLICE_LEN
        # each stream owns an equal group of store signals, its twins
        # among them
        group = len(world.store_signals) // len(world.streams)
        self.queries = []
        self.expected = []
        for k in range(6 if tiny else 120):
            kind = k % 3
            twins = None
            if kind == 2:
                x = P.dsp.apply_filter(rng.normal(0.0, 1.0, WINDOW + taps.size),
                                       taps)[taps.size:]
                x = x * (15.0 / np.sqrt(np.mean(x * x)))
            else:
                s = int(rng.integers(len(world.streams)))
                live = world.streams[s].samples
                if kind == 0:
                    start = slice_len * int(rng.integers(live.size // slice_len))
                    twins = (start, frozenset(
                        sig.id for sig in world.store_signals[s * group:
                                                              (s + 1) * group]
                        if sig.dataset_tag == "eval-twin"))
                else:
                    start = int(rng.integers(live.size - WINDOW + 1))
                x = live[start:start + WINDOW]
            self.queries.append(P.dsp.SignalWindow(samples=x, timestep_index=0))
            self.expected.append(twins)
        self.answered = {kind: [0, 0] for kind in self.KINDS}

    def setup(self, _store_dir):
        self.store = self.P.mdb.MdbStore.load(self.work / "store")

    def ops(self):
        def search(q):
            return lambda: self.P.cloud_search.sliding_search(
                q, self.store, self.cfg)
        return [search(q) for q in self.queries]

    def check(self, i, res):
        if i >= len(self.queries):
            return
        check_candidates(self.P, self.queries[i], self.store, self.cfg, res)
        tally = self.answered[self.KINDS[i % 3]]
        tally[0] += bool(res.candidates)
        tally[1] += 1
        if self.expected[i] is not None:
            start, twins = self.expected[i]
            found = set()
            for c in res.candidates:
                _sid, parent, offset, _label, _kind = \
                    self.store.slice_meta(c.set_id)
                if parent in twins and offset + c.beta == start:
                    found.add(parent)
            require(found == twins,
                    f"query {i}: twins {sorted(twins)} at sample {start} "
                    f"not all found (found {sorted(found)})")

    def digest(self, i, res):
        return result_digest(res)

    def finish(self):
        require(any(hit for hit, _n in self.answered.values()),
                "no query returned a candidate")

    def report(self, m):
        shares = ", ".join(f"{kind} {hit} of {n}"
                           for kind, (hit, n) in self.answered.items())
        return [metric_line("query_p50_ms", m["op_p50_ms"], "ms"),
                metric_line("query_p90_ms", m["op_p90_ms"], "ms"),
                metric_line("queries_per_s", m["ops_per_s"], "1/s"),
                f"queries that returned candidates: {shares}"]


class OracleParity:
    """The exhaustive oracle against the parity corpus, with the sliding
    scan's recall measured against it."""
    name = "oracle-parity"

    def __init__(self, P, seed, tiny, work):
        self.P = P
        self.work = work
        corpus = P.scenarios.parity_corpus(
            seed, n_queries=2 if tiny else 20, n_noise_slices=4 if tiny else 40)
        P.mdb.build_store(corpus.store_signals, work / "store")
        self.queries = corpus.queries
        self.plants = corpus.n_plants_visited + corpus.n_plants_hidden
        self.cfg = P.cloud_search.SearchConfig()
        self.self_match_query = int(
            P.np.random.default_rng([seed, 2]).integers(len(self.queries)))
        self.recall = {}

    def setup(self, _store_dir):
        self.store = self.P.mdb.MdbStore.load(self.work / "store")

    def ops(self):
        def search(q):
            return lambda: self.P.cloud_search.exhaustive_search(
                q, self.store, self.cfg)
        return [search(q) for q in self.queries]

    def check(self, i, res):
        if i >= len(self.queries):
            return
        q = self.queries[i]
        check_candidates(self.P, q, self.store, self.cfg, res)
        fast = self.P.cloud_search.sliding_search(q, self.store, self.cfg)
        check_candidates(self.P, q, self.store, self.cfg, fast)
        oracle = {c.set_id for c in res.candidates}
        require(oracle, f"query {i}: the oracle found no candidates")
        self.recall[i] = (len(oracle & {c.set_id for c in fast.candidates})
                          / len(oracle))

    def digest(self, i, res):
        return result_digest(res)

    def finish(self):
        """Exhaustive self-match: a window cut from a stored slice finds
        that slice at beta 0 with omega exactly 1.0."""
        set_id = self.self_match_query * self.plants
        q = self.store.get_slice(set_id).samples[:WINDOW]
        top = self.P.cloud_search.exhaustive_search(
            q, self.store, self.cfg).candidates[0]
        require((top.set_id, top.beta, top.omega) == (set_id, 0, 1.0),
                f"self-match of slice {set_id} gave {top}")

    def report(self, m):
        recall = statistics.fmean(self.recall.values()) if self.recall else 0.0
        return [metric_line("exhaustive_p50_ms", m["op_p50_ms"], "ms"),
                metric_line("search_recall", recall, "ratio")]


WORKLOADS = {w.name: w for w in (EvalWorld, CloudQueries, OracleParity)}


# -- runner -------------------------------------------------------------------

class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def fail(self, what):
        self.failed += 1
        print(f"perfbench: {what} failed", file=sys.stderr)
        traceback.print_exc(limit=4, file=sys.stderr)


class Verifier:
    """Checks each output: invariants, then its digest against the first
    pass and, where recorded for this seed, against digests.json."""

    def __init__(self, wl, n_ops, expected, tally):
        self.wl = wl
        self.n_ops = n_ops
        self.expected = expected
        self.tally = tally
        self.first = {}

    def __call__(self, i, result):
        k = i % self.n_ops
        try:
            self.wl.check(i, result)
            d = self.wl.digest(i, result)
            if k in self.first:
                require(d == self.first[k],
                        f"operation {k}: output differs from the first pass")
            else:
                self.first[k] = d
                if self.expected is not None:
                    require(d == self.expected[k],
                            f"operation {k}: output differs from the "
                            f"recorded digest")
        except Exception:
            self.tally.fail(f"check of operation {i}")


class Interval(typing.NamedTuple):
    seconds: float  # the timed call alone, without the samples inside it
    gross: float    # the timed call with the samples inside it
    k0: int         # index of the first sample after the call started
    k1: int         # index of the first sample after it ended


class Reference:
    """Samples the host's speed all through a run.

    On a shared 2-core virtual machine (the one in baseline.json) the
    speed of a core moved by up to 2x within seconds, and the two cores
    moved independently, so a raw time there mostly measures when it
    was taken. A timer interrupts the process
    every PERIOD_S and times one call of a fixed kernel: a 256-sample
    window correlated at all 745 offsets of a 1000-sample array, the
    instruction mix of the program's own scans, without the program.
    A timed interval (an operation or a set-up sample) has the kernel's
    own time inside it subtracted, is divided by the mean kernel time of
    the samples taken inside it and next to it, and is scaled to a
    machine on which the kernel takes REF_NOMINAL_S.
    """
    PERIOD_S = 0.2

    def __init__(self, np):
        rng = np.random.default_rng(0)
        self.dot = np.dot
        self.a = rng.normal(0.0, 15.0, 1000)
        self.q = rng.normal(0.0, 15.0, WINDOW)
        self.q_energy = float(np.dot(self.q, self.q))
        self.starts = []
        self.times = []

    def sample(self, _signum=None, _frame=None):
        dot, a, q, qe = self.dot, self.a, self.q, self.q_energy
        t0 = time.perf_counter()
        for beta in range(a.size - WINDOW + 1):
            seg = a[beta:beta + WINDOW]
            float(dot(q, seg)) / math.sqrt(qe * float(dot(seg, seg)))
        self.starts.append(t0)
        self.times.append(time.perf_counter() - t0)

    def __enter__(self):
        self.sample()
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.sample()

    def timed(self, fn):
        """Call fn(); return its result and its Interval."""
        k0 = len(self.times)
        t0 = time.perf_counter()
        result = fn()
        t1 = time.perf_counter()
        k1 = len(self.times)
        inside = sum(d for s, d in zip(self.starts[k0:k1], self.times[k0:k1])
                     if s >= t0)
        return result, Interval(t1 - t0 - inside, t1 - t0, k0, k1)

    def scaled(self, intervals):
        """Scale each interval from timed(); call after leaving the
        context, which takes a sample after the last interval."""
        out = []
        for iv in intervals:
            near = self.times[max(iv.k0 - 1, 0):iv.k1 + 1]
            out.append(iv.seconds * REF_NOMINAL_S * len(near) / sum(near))
        return out


class Setups:
    """Runs and times the workload's set-up.

    The first set-up runs before any operation and is not timed: it
    fills the caches and sizes the samples. A sample repeats the set-up
    until it lasts SETUP_SAMPLE_S and records the time of one set-up.
    At least SETUP_REPS samples are taken, and enough for SETUP_SECONDS
    (at most MAX_SETUP_SAMPLES). They run either at once or, in an
    untraced run, spread evenly between the operations, so that set-up
    samples the same stretch of the host's varying speed as the
    operations do.
    """

    def __init__(self, wl, tally, reference, tracer=None):
        self.wl = wl
        self.tally = tally
        self.reference = reference
        self.tracer = tracer
        self.intervals = []
        self.calls = 0
        self.taken = 0
        self.batch = 1
        self.planned = SETUP_REPS

    def run_one(self):
        """One set-up into a fresh store directory; True if it returned."""
        if self.tracer is not None:
            self.tracer.request = self.calls
        self.tally.attempted += 1
        try:
            self.wl.setup(self.wl.work / f"mdb{self.calls}")
        except Exception:
            self.tally.fail(f"set-up {self.calls}")
            return False
        self.calls += 1
        return True

    def sample(self):
        # the page cache is flushed first, so that the cost of writing the
        # stores does not depend on what earlier set-ups (and runs) left
        # unflushed
        for old in self.wl.work.glob("mdb*"):
            shutil.rmtree(old, ignore_errors=True)
        os.sync()
        ok, iv = self.reference.timed(
            lambda: all(self.run_one() for _ in range(self.batch)))
        if ok:
            self.intervals.append(iv._replace(seconds=iv.seconds / self.batch))

    def first(self):
        t0 = time.perf_counter()
        if not self.run_one():
            return False
        once = time.perf_counter() - t0
        self.batch = math.ceil(SETUP_SAMPLE_S / once)
        self.planned = min(MAX_SETUP_SAMPLES, max(
            SETUP_REPS, math.ceil(SETUP_SECONDS / (self.batch * once))))
        return True

    def catch_up(self, fraction):
        """Take the samples due once `fraction` of the run has passed;
        sample j is due at (j + 1/2) / planned."""
        while (self.taken < self.planned
               and fraction >= (self.taken + 0.5) / self.planned):
            self.sample()
            self.taken += 1


def closed_loop(ops, seconds, tally, verify, reference, min_ops,
                tracer=None, setups=None):
    """Run ops in order, cyclically, at least min_ops times and until
    `seconds` have elapsed outside set-ups. Return the interval (see
    Reference.timed) of every operation that returned. Outputs are
    checked with the tracer paused."""
    intervals = []
    start = time.perf_counter()
    in_setup = 0.0
    i = 0
    while i < min_ops or time.perf_counter() - start - in_setup < seconds:
        if setups is not None:
            t = time.perf_counter()
            setups.catch_up((t - start - in_setup) / seconds)
            in_setup += time.perf_counter() - t
        if tracer is not None:
            tracer.request = i
        tally.attempted += 1
        try:
            result, interval = reference.timed(ops[i % len(ops)])
        except Exception:
            tally.fail(f"operation {i}")
        else:
            intervals.append(interval)
            with tracer.paused() if tracer else contextlib.nullcontext():
                verify(i, result)
        i += 1
    if setups is not None:
        setups.catch_up(1.0)
    return intervals


def end_to_end(setup_times, durations):
    return {
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "op_p50_ms": tracing.percentile(durations, 50) * 1e3,
        "op_p90_ms": tracing.percentile(durations, 90) * 1e3,
        "ops_per_s": len(durations) / sum(durations),
    }


def expected_digests(wl_cls, seed, tiny):
    if tiny or not DIGESTS.is_file():
        return None
    entry = json.loads(DIGESTS.read_text()).get(wl_cls.name)
    if entry is None or entry["seed"] != seed:
        return None
    return entry["digests"]


def record_digests(name, seed, verifier):
    data = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
    data[name] = {"seed": seed,
                  "digests": [verifier.first[k] for k in range(verifier.n_ops)]}
    DIGESTS.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


def metric_line(name, value, unit):
    return f"{name} {value:.6g} {unit}"


def measure(P, wl_cls, seed, seconds, trace, tiny, record, work):
    tally = Tally()
    wl = wl_cls(P, seed, tiny, work)
    reference = Reference(P.np)
    setup_tracer = tracing.install(tracing.Tracer()) if trace else None
    setups = Setups(wl, tally, reference, setup_tracer)
    lines = []
    metrics = None
    with reference:
        try:
            if setups.first() and trace:
                setups.catch_up(1.0)
        finally:
            if setup_tracer is not None:
                setup_tracer.uninstall()
        if not setups.calls:
            return tally, None, []
        ops = wl.ops()
        expected = None if record else expected_digests(wl_cls, seed, tiny)
        verify = Verifier(wl, len(ops), expected, tally)
        if trace:
            untraced = closed_loop(ops, seconds / 2, tally, verify, reference,
                                   len(ops))
            run_tracer = tracing.install(tracing.Tracer())
            try:
                traced = closed_loop(ops, seconds / 2, tally, verify,
                                     reference, 1, run_tracer)
            finally:
                run_tracer.uninstall()
        else:
            timed = closed_loop(ops, seconds, tally, verify, reference,
                                len(ops), setups=setups)

    if trace:
        if untraced and traced:
            overhead = (tracing.percentile(reference.scaled(traced), 50)
                        - tracing.percentile(reference.scaled(untraced), 50))
            # spans include the reference samples taken inside them, so
            # the share of operation time is taken of the gross times
            raw = [iv.gross for iv in traced]
            metrics = tracing.layer_metrics(setup_tracer, setups.calls,
                                            run_tracer, raw, overhead)
            lines.append(
                f"cloud_search.sliding.busy_s is "
                f"{100 * metrics['cloud_search.sliding.busy_share']:.1f}% of "
                f"the traced operation time ({sum(raw):.3f} s over "
                f"{len(raw)} operations)")
        spans = OUT_DIR / f"spans-{wl_cls.name}-seed{seed}.json"
        spans.write_text(json.dumps({
            "workload": wl_cls.name, "seed": seed, "machine": machine_info(P),
            "setup": setup_tracer.to_json(), "run": run_tracer.to_json()}))
        lines.append(f"spans written to {spans.relative_to(ROOT)}")
    elif timed and setups.intervals:
        metrics = end_to_end(reference.scaled(setups.intervals),
                             reference.scaled(timed))
        raw = end_to_end([iv.seconds for iv in setups.intervals],
                         [iv.seconds for iv in timed])

    tally.attempted += 1
    try:
        wl.finish()
    except Exception:
        tally.fail("final check")
    if metrics is not None and not trace:
        lines += wl.report(metrics)
        lines.append(
            f"setup_s is the median of {len(setups.intervals)} samples of "
            f"{setups.batch} set-up(s) each; op_p50_ms of {len(timed)} "
            f"operations")
        lines.append(
            f"times above are scaled to a {1e3 * REF_NOMINAL_S:.4g} ms "
            f"reference kernel; it took "
            f"{1e3 * statistics.median(reference.times):.4g} ms here "
            f"(median of {len(reference.times)} samples, "
            f"{1e3 * min(reference.times):.4g} .. "
            f"{1e3 * max(reference.times):.4g} ms)")
        lines.append(metric_line("op_p90_ms", metrics["op_p90_ms"], "ms"))
        lines += [metric_line("unscaled " + name, raw[name], unit)
                  for name, unit in (("setup_s", "s"), ("op_p50_ms", "ms"),
                                     ("op_p90_ms", "ms"), ("ops_per_s", "1/s"))]
    if record:
        if tally.failed:
            raise SystemExit("perfbench: not recording digests of a failed run")
        record_digests(wl_cls.name, seed, verify)
        lines.append(f"recorded digests for seed {seed} in "
                     f"{DIGESTS.relative_to(ROOT)}")
    return tally, metrics, lines


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--record-digests", action="store_true")
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    P = load_program()
    OUT_DIR.mkdir(exist_ok=True)
    print("machine " + json.dumps(machine_info(P), sort_keys=True))
    work = Path(tempfile.mkdtemp(prefix="work-", dir=OUT_DIR))
    try:
        tally, metrics, lines = measure(
            P, WORKLOADS[args.workload], args.seed, args.seconds,
            bool(args.trace), args.tiny, args.record_digests, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    for name, unit in units.items():
        if metrics is not None:
            print(metric_line(name, metrics[name], unit))
    for line in lines:
        print(line)
    print(f"error_rate {tally.failed / tally.attempted:.6g} ratio "
          f"({tally.failed} failed of {tally.attempted} attempted)")
    ok = metrics is not None and tally.failed == 0
    print(json.dumps({
        "correct": ok,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {} if metrics is None else {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items()},
    }))
    return 0 if metrics is not None else 1


if __name__ == "__main__":
    sys.exit(main())
