"""Discrete-event simulation of the cloud-edge loop.

Time is integer microseconds on a simulated clock. Each second a window
completes; cloud calls (uplink, search, downlink) are scheduled as
future events while the edge keeps stepping the old candidate set, and a
delivered correlation set is swapped in at the next whole-second
boundary. Everything is deterministic for fixed configs: the background
search is an event, not a thread. An evaluation runs all its streams
together and sends the searches they request at once to one
multi-query search; each stream's outcome is the same as alone.
"""

from __future__ import annotations

import math
import sys
from dataclasses import asdict, dataclass, field, fields, is_dataclass

import numpy as np

from . import dsp
from .cloud_search import SearchConfig, sliding_search, sliding_search_many
from .edge_tracker import (
    ANOMALY_PREDICTED,
    TrackerConfig,
    init_tracker,
    swap_in,
    tracker_step,
)
from .mdb import INT64, MdbStore, SourceSignal

US_PER_S = 1_000_000


@dataclass
class LinkModel:
    """Affine latency model per direction, in integer microseconds.

    Defaults keep a 256-sample uplink under 1 ms and a 100-signal
    downlink within 200 ms.
    """
    uplink_fixed_us: int = 400
    uplink_per_sample_us: int = 2
    downlink_fixed_us: int = 50_000
    downlink_per_signal_us: int = 1_500

    def __post_init__(self):
        for name in ("uplink_fixed_us", "uplink_per_sample_us",
                     "downlink_fixed_us", "downlink_per_signal_us"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")

    def uplink_latency(self, n_samples: int) -> int:
        return self.uplink_fixed_us + self.uplink_per_sample_us * n_samples

    def downlink_latency(self, n_signals: int) -> int:
        return self.downlink_fixed_us + self.downlink_per_signal_us * n_signals


@dataclass
class SimConfig:
    cloud_search_s: float = 2.8
    eval_after_cloud_calls: int = 2   # transmissions before predictions count
    batch_size: int = 20
    report_step_micros: int = 0       # value serialized into report files

    def __post_init__(self):
        # finite in microseconds too, the unit the loop rounds it to
        if not (math.isfinite(self.cloud_search_s * US_PER_S)
                and self.cloud_search_s >= 0):
            raise ValueError("cloud_search_s must be non-negative and finite "
                             "in microseconds")
        if self.eval_after_cloud_calls < 1:
            raise ValueError("eval_after_cloud_calls must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")


@dataclass
class RunConfig:
    """Everything one experiment needs, serializable to one JSON file."""
    seed: int = 7
    search: SearchConfig = field(default_factory=SearchConfig)
    tracker: TrackerConfig = field(default_factory=TrackerConfig)
    link: LinkModel = field(default_factory=LinkModel)
    sim: SimConfig = field(default_factory=SimConfig)

    def __post_init__(self):
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "RunConfig":
        """The config a parsed JSON object describes.

        Each value must have the JSON type of its field's default: a
        section is an object, an int field takes an integer within
        int64 (not a bool), a float field a number within float range,
        which it holds as a float. ValueError names the key otherwise;
        an unknown key is a TypeError, as in the constructor.
        """
        return _from_json(cls, d)


def _from_json(cls, d, section: str | None = None):
    if not isinstance(d, dict):
        raise ValueError(f"{section or 'config'} is not an object")
    d = dict(d)
    defaults = cls()
    for f in fields(cls):
        if f.name not in d:
            continue
        key = f"{section}.{f.name}" if section else f.name
        value = d[f.name]
        default = getattr(defaults, f.name)
        if is_dataclass(default):
            d[f.name] = _from_json(type(default), value, key)
        elif type(default) is int and not (type(value) is int
                                           and value in INT64):
            raise ValueError(f"{key}: {value!r} is not an integer within "
                             "int64")
        elif type(default) is float:
            # false for NaN, inf and integers beyond float64
            if not (type(value) in (int, float)
                    and abs(value) <= sys.float_info.max):
                raise ValueError(f"{key}: {value!r} is not a finite number")
            d[f.name] = float(value)
    return cls(**d)


@dataclass
class TimelineEvent:
    t_sim_us: int
    kind: str
    detail: dict

    def to_json_dict(self) -> dict:
        return {"t_sim_ms": self.t_sim_us / 1000.0, "kind": self.kind,
                "detail": self.detail}


@dataclass
class TimingReport:
    """Simulated latency accounting for the initial cloud call."""
    delta_ec_us: int
    delta_cs_us: int
    delta_ce_us: int

    @property
    def delta_initial_us(self) -> int:
        return self.delta_ec_us + self.delta_cs_us + self.delta_ce_us


@dataclass
class RunOutcome:
    signal_id: int
    onset_sample: int | None
    final_classification: str
    reports: list
    timeline: list
    timing: TimingReport | None
    # (iteration, sim seconds) of the first anomaly call made once
    # sim.eval_after_cloud_calls cloud responses had been applied
    prediction: tuple | None

    @property
    def lead_time_s(self) -> float | None:
        """Seconds between the prediction and the true onset; None when
        there is no onset or the prediction did not precede it."""
        if self.onset_sample is None or self.prediction is None:
            return None
        lead = self.onset_sample / dsp.SAMPLE_RATE_HZ - self.prediction[1]
        return lead if lead > 0 else None


@dataclass
class _PendingCall:
    delivery_us: int
    result: object
    matched_timestep: int
    timing: TimingReport


def run_stream(live: SourceSignal, store: MdbStore,
               search_cfg: SearchConfig, tracker_cfg: TrackerConfig,
               link: LinkModel, sim: SimConfig | None = None) -> RunOutcome:
    """Simulate the full loop over one live stream.

    Window w covers [w, w+1) seconds and completes at (w+1) s; the
    boundary at k seconds processes window k-1. A delivered search
    result is applied at the first boundary at or after its delivery
    time, before that boundary's tracking step. An initial result with
    no candidates is dropped, and the next boundary sends a fresh
    initial call; a stream that never gets candidates ends undecided.
    """
    loop = _stream_loop(live, store, tracker_cfg, link, sim or SimConfig())
    return _drive([loop], lambda windows: [
        sliding_search(w, store, search_cfg) for w in windows])[0]


def _drive(loops, search):
    """Run stream loops (_stream_loop) to their ends and return their
    outcomes. Each pass sends every waiting loop its search result and
    collects the windows the loops want searched next; one
    search(windows) call answers them all."""
    outcomes = [None] * len(loops)
    replies = dict.fromkeys(range(len(loops)))
    while replies:
        requests = {}
        for i, reply in replies.items():
            try:
                requests[i] = loops[i].send(reply)
            except StopIteration as done:
                outcomes[i] = done.value
        replies = dict(zip(requests, search(list(requests.values()))))
    return outcomes


def _stream_loop(live: SourceSignal, store: MdbStore,
                 tracker_cfg: TrackerConfig, link: LinkModel, sim: SimConfig):
    """run_stream's loop as a generator: it yields each window it sends
    to the cloud, is sent that window's SearchResult, and returns the
    RunOutcome."""
    n_windows = live.samples.size // dsp.WINDOW_LEN
    if n_windows < 2:
        raise ValueError("live signal must span at least 2 seconds")
    if store.num_slices == 0:
        raise ValueError("store has no slices to search")

    def window(w: int) -> dsp.SignalWindow:
        seg = live.samples[w * dsp.WINDOW_LEN:(w + 1) * dsp.WINDOW_LEN]
        return dsp.SignalWindow(samples=seg, timestep_index=w)

    events: list[TimelineEvent] = []

    def emit(t_us, kind, **detail):
        events.append(TimelineEvent(t_sim_us=t_us, kind=kind, detail=detail))

    def schedule_call(w: int, t_request_us: int):
        """Yield window w for a search and return the pending call, or
        None when the window is all zeros: it has no energy, so no
        search can score it (dsp.peak_scaled), and the call waits for
        the next window."""
        request = window(w)
        if not request.samples.any():
            emit(t_request_us, "cloud_call_deferred", window=w,
                 reason="zero_energy_window")
            return None
        result = yield request
        up = link.uplink_latency(dsp.WINDOW_LEN)
        emit(t_request_us, "uplink", n_samples=dsp.WINDOW_LEN, duration_us=up)
        t_start = t_request_us + up
        emit(t_start, "search_start", window=w)
        cs = int(round(sim.cloud_search_s * US_PER_S))
        t_done = t_start + cs
        emit(t_done, "search_done", window=w,
             comparisons=result.comparisons_made,
             candidates=len(result.candidates))
        down = link.downlink_latency(len(result.candidates))
        emit(t_done, "downlink", n_signals=len(result.candidates),
             duration_us=down)
        return _PendingCall(
            delivery_us=t_done + down, result=result, matched_timestep=w,
            timing=TimingReport(delta_ec_us=up, delta_cs_us=cs,
                                delta_ce_us=down))

    tracker = None
    pending: _PendingCall | None = None
    timing: TimingReport | None = None
    transmissions_applied = 0
    prediction = None

    for k in range(1, n_windows + 1):
        t_b = k * US_PER_S
        w_b = k - 1
        emit(t_b, "sample", window=w_b)

        if tracker is None and pending is None:
            pending = yield from schedule_call(w_b, t_b)
            continue

        if pending is not None and pending.delivery_us <= t_b:
            initial = tracker is None
            if initial and not pending.result.candidates:
                # nothing to track yet: the next boundary sends a fresh
                # initial call with its own window
                emit(t_b, "initial_call_empty",
                     window=pending.matched_timestep)
                pending = None
                continue
            # applied at a later boundary than the one that sent it: >= 1
            steps_ahead = w_b - pending.matched_timestep
            if initial:
                timing = pending.timing
                tracker = init_tracker(pending.result, store, tracker_cfg,
                                       steps_ahead=steps_ahead)
            else:
                swap_in(tracker, pending.result, store,
                        steps_ahead=steps_ahead)
            # degraded: the response seeded nothing that can be tracked
            emit(t_b, "swap_in", initial=initial,
                 fresh_candidates=len(pending.result.candidates),
                 degraded=not (pending.result.candidates and tracker.tracked))
            transmissions_applied += 1
            pending = None

        if tracker is not None:
            report = tracker_step(tracker, window(w_b), store)
            emit(t_b, "track_step", iteration=report.iteration,
                 alive=report.alive, p_anomaly=report.p_anomaly,
                 classification=report.classification)
            if (prediction is None
                    and report.classification == ANOMALY_PREDICTED
                    and transmissions_applied >= sim.eval_after_cloud_calls):
                # the step's window completes at k s
                prediction = (report.iteration, float(k))
            if report.cloud_call is not None and pending is None:
                emit(t_b, "cloud_call_request", reason=report.cloud_call,
                     window=w_b)
                pending = yield from schedule_call(w_b, t_b)

    reports = tracker.reports if tracker is not None else []
    final = reports[-1].classification if reports else "undecided"
    # delivery events are emitted when scheduled, i.e. dated in the
    # future; stable sort puts the log in simulated-time order without
    # reordering same-instant events
    events.sort(key=lambda e: e.t_sim_us)
    return RunOutcome(
        signal_id=live.id,
        onset_sample=live.onset_sample,
        final_classification=final,
        reports=reports,
        timeline=events,
        timing=timing,
        prediction=prediction,
    )


@dataclass
class BatchRow:
    batch: str
    anomaly_kind: str
    n: int
    accuracy: float
    false_positive_rate: float
    mean_lead_time_s: float | None


@dataclass
class EvaluationTable:
    rows: list
    outcomes: list

    @property
    def mean_row(self) -> BatchRow:
        return self.rows[-1]


def _assert_disjoint(corpus, store: MdbStore):
    """ValueError naming the first store signal, in manifest order,
    that equals a corpus stream in stored (float32) precision.

    Parents are bucketed by length and a hash of their bytes, so only
    a bucket hit is compared exactly. Adding +0.0 turns -0.0 into +0.0
    before hashing, since the two compare equal.
    """
    def key(samples):
        return samples.size, hash((samples + np.float32(0.0)).tobytes())

    buckets = {}
    for sig in store.manifest["signals"]:
        parent = store.parent_samples(sig["id"])
        buckets.setdefault(key(parent), []).append((sig["id"], parent))
    for live in corpus:
        # compare in stored precision, otherwise quantization masks a leak
        quantized = live.samples.astype("<f4")
        for sig_id, parent in buckets.get(key(quantized), ()):
            if np.array_equal(parent, quantized):
                raise ValueError(
                    f"evaluation stream {live.id} also exists in the store "
                    f"(signal {sig_id}); corpus and store must be disjoint")


def evaluate_batch(corpus, store: MdbStore, search_cfg: SearchConfig,
                   tracker_cfg: TrackerConfig, link: LinkModel,
                   sim: SimConfig | None = None) -> EvaluationTable:
    """Run every stream, score predictions per batch, and append a mean
    row. A stream counts as predicted-anomalous only once the configured
    number of cloud transmissions has been applied.

    The streams run together: each pass sends the windows they want
    searched to one sliding_search_many call. Every outcome is the one
    run_stream gives for its stream, byte for byte."""
    sim = sim or SimConfig()
    if not corpus:
        raise ValueError("empty evaluation corpus")
    _assert_disjoint(corpus, store)

    loops = [_stream_loop(live, store, tracker_cfg, link, sim)
             for live in corpus]
    outcomes = _drive(loops, lambda windows: sliding_search_many(
        windows, store, search_cfg))

    def score(outs, batch_name):
        n = len(outs)
        correct = fp = n_normal = 0
        leads = []
        kinds = set()
        for live, out in outs:
            predicted = out.prediction is not None
            anomalous = bool(live.anomaly_spans)
            correct += predicted == anomalous
            if anomalous:
                kinds.update(k for _s, _e, k in live.anomaly_spans if k)
                lead = out.lead_time_s
                if lead is not None:
                    leads.append(lead)
            else:
                fp += predicted
                n_normal += 1
        kind = kinds.pop() if len(kinds) == 1 else ("mixed" if kinds else "none")
        return BatchRow(
            batch=batch_name,
            anomaly_kind=kind,
            n=n,
            accuracy=correct / n,
            false_positive_rate=(fp / n_normal) if n_normal else 0.0,
            mean_lead_time_s=float(np.mean(leads)) if leads else None,
        )

    paired = list(zip(corpus, outcomes))
    rows = []
    for b in range(0, len(paired), sim.batch_size):
        chunk = paired[b:b + sim.batch_size]
        rows.append(score(chunk, batch_name=str(b // sim.batch_size)))
    rows.append(score(paired, batch_name="mean"))
    return EvaluationTable(rows=rows, outcomes=outcomes)


def predict_at_offsets(live: SourceSignal, offsets_before_onset_s,
                       store: MdbStore, search_cfg: SearchConfig,
                       tracker_cfg: TrackerConfig, link: LinkModel,
                       sim: SimConfig | None = None):
    """Report, for each offset, whether the anomaly had been predicted on
    a stream cut at onset minus that offset.

    The loop is causal (boundary k reads only window k-1), so a stream
    cut at sample `cut` replays the first cut // 256 windows of the full
    run exactly. One run of the full stream answers every offset: its
    first prediction counts if it falls at t_s <= cut // 256.
    """
    if live.onset_sample is None:
        raise ValueError("stream has no ground-truth onset")
    hit = run_stream(live, store, search_cfg, tracker_cfg, link,
                     sim).prediction
    results = []
    for off_s in offsets_before_onset_s:
        cut = live.onset_sample - int(round(off_s * dsp.SAMPLE_RATE_HZ))
        if cut < 2 * dsp.WINDOW_LEN:
            raise ValueError(
                f"offset {off_s}s leaves less than 2 s of stream")
        seen = hit is not None and hit[1] <= cut // dsp.WINDOW_LEN
        results.append({"offset_s": float(off_s), "predicted": seen,
                        "prediction_t_s": hit[1] if seen else None})
    return results
