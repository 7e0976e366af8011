"""Real-time candidate tracking on the edge.

The edge never recomputes correlations. Each second it compares the new
live window against the next 256-sample stretch of every tracked
candidate's parent recording using the cheap area metric, drops the ones
that drifted away or ran out of recording, and re-estimates the anomaly
probability from the labels of whatever is still standing.

One step is batched: every candidate's stretch is gathered from the
store's flat buffer with one index, and one row sum of |x - segment|
keeps every candidate that is certainly under the area threshold. Only
the rows near or over it are rescored exactly with dsp.area_between,
so every decision and every removal's area are those of comparing the
candidates one by one.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import dsp
from .mdb import MdbStore, get_parent_segment

ANOMALY_PREDICTED = "anomaly_predicted"
NORMAL = "normal"
UNDECIDED = "undecided"

_SURE_KEEP = 1.0 - 2.0 ** -40


@dataclass
class TrackerConfig:
    area_threshold: float = 900.0
    tracking_threshold: int = 10       # H: refresh T when alive count falls this low
    trend_window: int = 2
    pa_floor: float = 0.5
    max_iterations_per_set: int = 5    # cloud cadence when tracking is healthy

    def __post_init__(self):
        if not (math.isfinite(self.area_threshold) and self.area_threshold > 0):
            raise ValueError("area_threshold must be positive and finite")
        if not math.isfinite(self.pa_floor):
            raise ValueError("pa_floor must be finite")
        if not (1 <= self.tracking_threshold < 100):
            raise ValueError("tracking_threshold must be in [1, 100)")
        if self.trend_window < 1:
            raise ValueError("trend_window must be >= 1")
        if self.max_iterations_per_set < 1:
            raise ValueError("max_iterations_per_set must be >= 1")


@dataclass
class TrackedCandidate:
    set_id: int
    label: int
    cursor: int              # absolute parent position of the next segment
    parent_offset: int
    parent_len: int          # the parent's sample count
    omega_at_match: float


@dataclass
class Removal:
    set_id: int
    cursor: int              # where the failed comparison looked
    area: float | None = None


@dataclass
class IterationReport:
    iteration: int
    alive: int
    removed_dissimilar: list
    removed_exhausted: list
    p_anomaly: float
    classification: str
    cloud_call: str | None
    step_micros: int
    area_computations: int
    timestep_index: int | None = None


@dataclass
class TrackerState:
    """The edge's tracking state. tracked holds exactly the live
    candidates, in set_id order: a removed candidate leaves the list
    and is recorded only in that step's IterationReport."""
    tracked: list
    pa_history: list
    config: TrackerConfig
    iteration: int = 0          # total completed tracking iterations
    iteration_in_set: int = 0   # resets whenever a cloud response is applied
    reports: list = field(default_factory=list)

    def p_anomaly(self) -> float:
        """Share of anomalous labels among the tracked candidates, or
        the last estimate if none are left."""
        if not self.tracked:
            return self.pa_history[-1] if self.pa_history else 0.0
        return sum(1 for c in self.tracked if c.label == 1) / len(self.tracked)


def _seed_candidates(result, store: MdbStore, steps_ahead: int):
    """Turn search candidates into the tracked set, in set_id order.

    The cursor points at the parent segment the *next* live window will
    be compared against: steps_ahead (>= 1) windows past the matched
    one. A candidate whose parent cannot supply that segment is left
    out.
    """
    if steps_ahead < 1:
        raise ValueError("steps_ahead must be >= 1")
    tracked = []
    for cand in sorted(result.candidates, key=lambda c: c.set_id):
        _sid, parent_id, parent_offset, label, _kind = store.slice_meta(
            cand.set_id)
        rel = cand.beta + dsp.WINDOW_LEN * steps_ahead
        if get_parent_segment(store, cand.set_id, rel, dsp.WINDOW_LEN) is None:
            continue
        tracked.append(TrackedCandidate(
            set_id=cand.set_id, label=label,
            cursor=parent_offset + rel, parent_offset=parent_offset,
            parent_len=store.parent_samples(parent_id).size,
            omega_at_match=cand.omega))
    return tracked


def init_tracker(result, store: MdbStore, cfg: TrackerConfig,
                 steps_ahead: int = 1) -> TrackerState:
    """Adopt a search result as the tracked set F.

    steps_ahead is how many windows the live stream has advanced past
    the searched window by the time tracking picks up (1 when the next
    window is compared immediately; larger under cloud latency).
    """
    if not result.candidates:
        raise ValueError("cannot start tracking from an empty search result")
    state = TrackerState(tracked=_seed_candidates(result, store, steps_ahead),
                         pa_history=[], config=cfg)
    state.pa_history.append(state.p_anomaly())
    return state


def tracker_step(state: TrackerState, window, store: MdbStore) -> IterationReport:
    """One tracking iteration against the next contiguous live window."""
    t0 = time.perf_counter()
    x = dsp.window_samples(window)
    timestep = getattr(window, "timestep_index", None)
    threshold = state.config.area_threshold

    cands = state.tracked
    fits = [c.cursor + dsp.WINDOW_LEN <= c.parent_len for c in cands]
    segs = _next_segments(store, [c for c, f in zip(cands, fits) if f])
    # the terms are area_between's, and a float64 sum of 256
    # non-negative terms, in any order, is within 255 * 2**-53 of the
    # exact sum: a row below threshold * (1 - 2**-40) is certainly kept;
    # an overflowed (inf) row is not, so area_between settles it
    with np.errstate(over="ignore"):
        sure_keep = np.abs(x - segs).sum(axis=1) < threshold * _SURE_KEEP
    rows = iter(zip(segs, sure_keep.tolist()))

    removed_dissimilar = []
    removed_exhausted = []
    alive = []
    for cand, fit in zip(cands, fits):
        if not fit:
            removed_exhausted.append(Removal(set_id=cand.set_id,
                                             cursor=cand.cursor))
            continue
        seg, sure = next(rows)
        if not sure:
            area = dsp.area_between(x, seg)
            if area > threshold:
                removed_dissimilar.append(Removal(
                    set_id=cand.set_id, cursor=cand.cursor, area=area))
                continue
        cand.cursor += dsp.WINDOW_LEN
        alive.append(cand)

    state.tracked = alive
    state.iteration += 1
    state.iteration_in_set += 1
    pa = state.p_anomaly()
    state.pa_history.append(pa)

    wants, reason = needs_cloud_call(state)
    report = IterationReport(
        iteration=state.iteration,
        alive=len(alive),
        removed_dissimilar=removed_dissimilar,
        removed_exhausted=removed_exhausted,
        p_anomaly=pa,
        classification=classify(state),
        cloud_call=reason if wants else None,
        step_micros=int(round((time.perf_counter() - t0) * 1e6)),
        area_computations=len(segs),
        timestep_index=timestep,
    )
    state.reports.append(report)
    return report


def _next_segments(store: MdbStore, cands):
    """(len(cands), 256) float32 rows: each candidate's next parent
    segment, gathered from the store's flat buffer in one index."""
    rows = np.array([(c.set_id, c.cursor - c.parent_offset) for c in cands],
                    dtype=np.int64).reshape(-1, 2)
    pos = store.slice_starts[rows[:, 0]] + rows[:, 1]
    return store.flat[np.add.outer(pos, np.arange(dsp.WINDOW_LEN))]


def needs_cloud_call(state: TrackerState):
    """(wants, reason): "threshold" once too few candidates remain,
    else "cadence" once the set has been tracked for the configured
    number of iterations. Threshold takes precedence."""
    if len(state.tracked) <= state.config.tracking_threshold:
        return True, "threshold"
    if state.iteration_in_set >= state.config.max_iterations_per_set:
        return True, "cadence"
    return False, None


def classify(state: TrackerState) -> str:
    """Trend call on the anomaly probability.

    Strictly increasing over the last trend_window iterations and at or
    above the floor -> anomaly_predicted; non-increasing over the same
    stretch -> normal; anything else (or not enough history) -> undecided.
    """
    pa = state.pa_history
    w = state.config.trend_window
    if len(pa) < w + 1:
        return UNDECIDED
    tail = pa[-(w + 1):]
    if all(tail[i] < tail[i + 1] for i in range(w)):
        if tail[-1] >= state.config.pa_floor:
            return ANOMALY_PREDICTED
        return UNDECIDED
    if all(tail[i] >= tail[i + 1] for i in range(w)):
        return NORMAL
    return UNDECIDED


def swap_in(state: TrackerState, fresh, store: MdbStore,
            steps_ahead: int = 1) -> TrackerState:
    """Apply a cloud response at an iteration boundary.

    A non-empty result replaces the tracked set (probability history is
    retained for prediction continuity); an empty one keeps the old set.
    Either way the per-set iteration counter restarts, since the cadence
    clock measures time since the last applied cloud response.
    """
    if fresh.candidates:
        state.tracked = _seed_candidates(fresh, store, steps_ahead)
    state.iteration_in_set = 0
    return state


def report_json_record(report: IterationReport,
                       step_micros: int | None = None) -> dict:
    """External form of an iteration report (counts, not detail lists).

    Pass step_micros to overwrite the measured duration with a
    deterministic value for byte-stable simulation output.
    """
    return {
        "iteration": report.iteration,
        "alive": report.alive,
        "removed_dissimilar": len(report.removed_dissimilar),
        "removed_exhausted": len(report.removed_exhausted),
        "p_anomaly": report.p_anomaly,
        "classification": report.classification,
        "cloud_call": report.cloud_call,
        "step_micros": report.step_micros if step_micros is None else step_micros,
    }
