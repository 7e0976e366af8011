"""Seeded synthetic worlds for tests, demos and evaluation.

Real corpora earn their matches from clinical redundancy; these builders
manufacture the same structure explicitly. Every scenario is built
around one mechanism: store signals share the live stream's opening
content (so the first search finds them at a known offset), then either
keep following it (twins) or diverge into independent noise at a chosen
window (decoys). Staggering the divergence windows scripts the anomaly
probability trajectory exactly.

Every synthetic sample comes from the two generators at the top: in-band
colored noise and a growing rhythmic signature. `synth_corpus`, the
labeled corpus behind `emap synth --mode corpus`, is built from them too.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

import numpy as np

from . import dsp
from .cloud_search import SearchConfig
from .edge_tracker import TrackerConfig
from .mdb import SourceSignal
from .orchestrator import LinkModel, RunConfig, SimConfig

RMS = 15.0


def _colored_noise(rng, n, rms=RMS):
    """Sum of 40 random-phase sinusoids in 11-40 Hz, scaled to the
    target RMS.

    The band is the preprocessing filter's passband, so these signals
    behave like recordings that have already been filtered.
    """
    t = np.arange(n, dtype=np.float64) / dsp.SAMPLE_RATE_HZ
    freqs = rng.uniform(11.0, 40.0, size=40)
    phases = rng.uniform(0.0, 2.0 * np.pi, size=40)
    amps = rng.uniform(0.7, 1.3, size=40)
    x = np.zeros(n, dtype=np.float64)
    for f, p, a in zip(freqs, phases, amps):
        x += a * np.sin(2.0 * np.pi * f * t + p)
    scale = rms / max(np.sqrt(np.mean(x * x)), 1e-12)
    return x * scale


def _signature(rng, n, peak_amplitude, ramp_frac=1.0):
    """Growing rhythmic burst (carrier amplitude-modulated at 3-5 Hz).

    The amplitude ramps linearly over the first ramp_frac of the span
    and holds at the peak after that.
    """
    t = np.arange(n, dtype=np.float64) / dsp.SAMPLE_RATE_HZ
    f_c = rng.uniform(16.0, 24.0)
    f_m = rng.uniform(3.0, 5.0)
    ph_c = rng.uniform(0.0, 2.0 * np.pi)
    ph_m = rng.uniform(0.0, 2.0 * np.pi)
    n_ramp = max(1, int(round(n * ramp_frac)))
    env = np.ones(n, dtype=np.float64)
    env[:n_ramp] = np.linspace(0.0, 1.0, n_ramp)
    mod = 1.0 + 0.8 * np.sin(2.0 * np.pi * f_m * t + ph_m)
    return peak_amplitude * env * mod * np.sin(2.0 * np.pi * f_c * t + ph_c)


def _jittered_copy(rng, samples, sigma):
    return samples + rng.normal(0.0, sigma, samples.size)


def _decoy(rng, live_samples, death_window, sigma):
    """Follows the live timeline (with jitter) up to death_window, then
    becomes independent noise, so the area test removes it exactly at
    the iteration that consumes that window."""
    n = live_samples.size
    cut = death_window * dsp.WINDOW_LEN
    out = np.empty(n, dtype=np.float64)
    out[:cut] = _jittered_copy(rng, live_samples[:cut], sigma)
    out[cut:] = _colored_noise(rng, n - cut, rms=RMS)
    return out


# -- labeled corpus ---------------------------------------------------------

def synth_length_samples(length_s: float) -> int:
    """Samples in a synth_corpus signal of `length_s` seconds. An
    anomaly span leaves one second of its signal clear, so the signal
    must be longer than one second; ValueError naming length_s
    otherwise."""
    n = (int(round(length_s * dsp.SAMPLE_RATE_HZ))
         if math.isfinite(length_s) else 0)
    if n <= dsp.SAMPLE_RATE_HZ:
        raise ValueError(f"length_s must be a finite number of seconds "
                         f"above 1 (more than {dsp.SAMPLE_RATE_HZ} "
                         f"samples), got {length_s!r}")
    return n


def synth_corpus(seed: int, n_normal: int, n_anomalous: int,
                 anomaly_kind: str = "seizure", length_s: float = 20.0):
    """Deterministic labeled corpus: colored-noise normals plus
    anomalous signals carrying an injected growing signature over a
    marked span."""
    if n_normal < 0 or n_anomalous < 0:
        raise ValueError("signal counts must be >= 0")
    n = synth_length_samples(length_s)
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n_normal):
        out.append(SourceSignal(
            id=len(out), samples=_colored_noise(rng, n),
            anomaly_spans=[], dataset_tag="synthetic"))
    for _ in range(n_anomalous):
        x = _colored_noise(rng, n)
        span_len = int(rng.uniform(4.0, 8.0) * dsp.SAMPLE_RATE_HZ)
        span_len = min(span_len, n - dsp.SAMPLE_RATE_HZ)
        start = int(rng.uniform(0.2, 0.7) * (n - span_len))
        # amplitude 3.2x background keeps in-span RMS comfortably above
        # the 1.5x contract after modulation averaging
        x[start:start + span_len] += _signature(
            rng, span_len, peak_amplitude=3.2 * RMS)
        out.append(SourceSignal(
            id=len(out), samples=x,
            anomaly_spans=[(start, start + span_len, anomaly_kind)],
            dataset_tag="synthetic", onset_sample=start))
    return out


# -- probability growth scenario -----------------------------------------

@dataclass
class ProbabilityScenario:
    live: SourceSignal
    store_signals: list
    expected_pa: list
    search_cfg: SearchConfig
    tracker_cfg: TrackerConfig
    anomaly_kind: str = "seizure"


def probability_growth_scenario(seed: int = 401) -> ProbabilityScenario:
    """100 store signals matching the live stream's first window: 22
    anomalous twins that keep following it, 78 normals of which 68
    diverge on a fixed schedule over five iterations.

    Expected P_A trajectory: 22/100, then 22/77, 22/62, 22/50, 22/40,
    22/32, strictly increasing from 0.22 to 0.6875.
    """
    rng = np.random.default_rng(seed)
    kind = "seizure"
    n_windows = 8
    n = n_windows * dsp.WINDOW_LEN
    live_samples = _colored_noise(rng, n, rms=RMS)
    # the live stream develops the signature right after the searched
    # window; twins share it, so only they survive all five iterations
    sig_start = dsp.WINDOW_LEN
    live_samples[sig_start:] += _signature(
        rng, n - sig_start, peak_amplitude=3.0 * RMS)
    live = SourceSignal(id=9000, samples=live_samples,
                        anomaly_spans=[(sig_start, n, kind)],
                        dataset_tag="scenario-live",
                        onset_sample=sig_start)

    deaths_per_iteration = {1: 23, 2: 15, 3: 12, 4: 10, 5: 8}
    store = []
    next_id = 0
    for _ in range(22):
        store.append(SourceSignal(
            id=next_id,
            samples=_jittered_copy(rng, live_samples, rng.uniform(0.3, 1.0)),
            anomaly_spans=[(0, n, kind)],
            dataset_tag="scenario-twin"))
        next_id += 1
    death_windows = []
    for iteration, count in sorted(deaths_per_iteration.items()):
        death_windows.extend([iteration] * count)
    # 68 diverge on schedule; 10 keep following without an annotation
    for dw in death_windows:
        store.append(SourceSignal(
            id=next_id,
            samples=_decoy(rng, live_samples, dw, rng.uniform(0.4, 1.2)),
            anomaly_spans=[], dataset_tag="scenario-decoy"))
        next_id += 1
    for _ in range(10):
        store.append(SourceSignal(
            id=next_id,
            samples=_jittered_copy(rng, live_samples, rng.uniform(0.4, 1.2)),
            anomaly_spans=[], dataset_tag="scenario-lookalike"))
        next_id += 1

    alive = [100, 77, 62, 50, 40, 32]
    expected = [22 / a for a in alive]
    return ProbabilityScenario(
        live=live, store_signals=store, expected_pa=expected,
        search_cfg=SearchConfig(), tracker_cfg=TrackerConfig())


# -- call-in-flight overlap scenario --------------------------------------

@dataclass
class OverlapScenario:
    live: SourceSignal
    store_signals: list
    search_cfg: SearchConfig
    tracker_cfg: TrackerConfig
    link: LinkModel
    sim: SimConfig
    expected_call_iteration: int = 3


def overlap_scenario(seed: int = 77) -> OverlapScenario:
    """14 candidates whose staggered removals bring the alive count down
    to H=10 exactly at iteration 3, forcing a background cloud call
    while tracking keeps running on the old set."""
    rng = np.random.default_rng(seed)
    n_windows = 16
    n = n_windows * dsp.WINDOW_LEN
    live_samples = _colored_noise(rng, n, rms=RMS)
    live = SourceSignal(id=9100, samples=live_samples,
                        anomaly_spans=[], dataset_tag="scenario-live")

    # first tracked window is 3 under the default ~3.87 s initial
    # latency, so deaths at windows 3, 4, 4, 5 map to iterations 1..3
    death_windows = [3, 4, 4, 5]
    store = []
    next_id = 0
    for _ in range(2):
        store.append(SourceSignal(
            id=next_id,
            samples=_jittered_copy(rng, live_samples, rng.uniform(0.3, 0.8)),
            anomaly_spans=[(0, n, "seizure")], dataset_tag="scenario-twin"))
        next_id += 1
    for dw in death_windows:
        store.append(SourceSignal(
            id=next_id,
            samples=_decoy(rng, live_samples, dw, rng.uniform(0.4, 1.0)),
            anomaly_spans=[], dataset_tag="scenario-decoy"))
        next_id += 1
    for _ in range(14 - 2 - len(death_windows)):
        store.append(SourceSignal(
            id=next_id,
            samples=_jittered_copy(rng, live_samples, rng.uniform(0.4, 1.0)),
            anomaly_spans=[], dataset_tag="scenario-lookalike"))
        next_id += 1

    return OverlapScenario(
        live=live, store_signals=store,
        search_cfg=SearchConfig(), tracker_cfg=TrackerConfig(),
        link=LinkModel(), sim=SimConfig())


# -- search parity corpus -------------------------------------------------

@dataclass
class ParityCorpus:
    store_signals: list
    queries: list    # SignalWindow per query
    n_plants_visited: int = 6   # per query, planted at offset 0
    n_plants_hidden: int = 2    # per query, planted off the coarse grid


def parity_corpus(seed: int = 1234, n_queries: int = 20,
                  n_noise_slices: int = 40) -> ParityCorpus:
    """Store for sliding-vs-exhaustive comparisons: per query, six
    matches planted at slice offset 0 (on the scan's path, one of them
    jitter-free) and two at uncorrelated offsets that only the
    exhaustive scan reliably visits, plus pure-noise slices."""
    rng = np.random.default_rng(seed)
    store = []
    queries = []
    next_id = 0
    for qi in range(n_queries):
        q = _colored_noise(rng, dsp.WINDOW_LEN, rms=RMS)
        queries.append(dsp.SignalWindow(samples=q, timestep_index=0))
        sigmas = [0.0] + list(rng.uniform(0.3, 1.2, size=5))
        for sigma in sigmas:
            parent = _colored_noise(rng, 1000, rms=RMS)
            parent[:dsp.WINDOW_LEN] = _jittered_copy(rng, q, sigma) \
                if sigma > 0 else q
            store.append(SourceSignal(
                id=next_id, samples=parent, anomaly_spans=[],
                dataset_tag="parity-visited"))
            next_id += 1
        for sigma in rng.uniform(0.3, 1.2, size=2):
            beta = int(rng.integers(30, 480))
            parent = _colored_noise(rng, 1000, rms=RMS)
            parent[beta:beta + dsp.WINDOW_LEN] = _jittered_copy(rng, q, sigma)
            store.append(SourceSignal(
                id=next_id, samples=parent, anomaly_spans=[],
                dataset_tag="parity-hidden"))
            next_id += 1
    for _ in range(n_noise_slices):
        store.append(SourceSignal(
            id=next_id, samples=_colored_noise(rng, 1000, rms=RMS),
            anomaly_spans=[], dataset_tag="parity-noise"))
        next_id += 1
    return ParityCorpus(store_signals=store, queries=queries)


# -- end-to-end evaluation world ------------------------------------------

@dataclass
class EvaluationWorld:
    store_signals: list
    streams: list          # SourceSignal live streams, labels via spans
    run_config: RunConfig
    anomaly_kind: str = "seizure"
    ramp_start_s: float = 12.0
    onset_s: float = 20.0


def evaluation_world(seed: int = 2026, n_anomalous: int = 20,
                     n_normal: int = 20) -> EvaluationWorld:
    """Store and disjoint live corpus for end-to-end accuracy runs.

    Each live stream owns a group of 8 store signals sharing its opening
    content: 2 twins that follow it for the whole 24 s and 6 decoys that
    diverge at windows 13..18. For anomalous streams the twins carry the
    stream's injected signature and are annotated over their full
    length, so the anomaly probability climbs exactly as the decoys drop
    out; normal streams' groups are unannotated and P_A stays at zero.
    """
    rng = np.random.default_rng(seed)
    kind = "seizure"
    n_windows = 24
    n = n_windows * dsp.WINDOW_LEN
    ramp_start = int(12.0 * dsp.SAMPLE_RATE_HZ)
    onset = int(20.0 * dsp.SAMPLE_RATE_HZ)
    death_windows = [13, 14, 15, 16, 17, 18]

    store = []
    streams = []
    next_store_id = 0
    next_live_id = 5000
    labels = [1] * n_anomalous + [0] * n_normal
    for label in labels:
        live_samples = _colored_noise(rng, n, rms=RMS)
        if label == 1:
            # ramp to full amplitude at the clinical onset, then sustain
            sig = _signature(rng, n - ramp_start, peak_amplitude=3.0 * RMS,
                             ramp_frac=(onset - ramp_start) / (n - ramp_start))
            live_samples[ramp_start:] += sig
            spans = [(ramp_start, n, kind)]
            onset_sample = onset
        else:
            spans = []
            onset_sample = None
        live = SourceSignal(id=next_live_id, samples=live_samples,
                            anomaly_spans=spans, dataset_tag="eval-live",
                            onset_sample=onset_sample)
        next_live_id += 1
        streams.append(live)

        twin_spans = [(0, n, kind)] if label == 1 else []
        for _ in range(2):
            store.append(SourceSignal(
                id=next_store_id,
                samples=_jittered_copy(rng, live_samples,
                                       rng.uniform(0.25, 0.6)),
                anomaly_spans=twin_spans,
                dataset_tag="eval-twin"))
            next_store_id += 1
        for dw in death_windows:
            store.append(SourceSignal(
                id=next_store_id,
                samples=_decoy(rng, live_samples, dw,
                               rng.uniform(0.5, 1.5)),
                anomaly_spans=[], dataset_tag="eval-decoy"))
            next_store_id += 1

    cfg = RunConfig(
        seed=seed,
        search=SearchConfig(),
        # groups hold 8 candidates, so the refresh threshold scales down
        # to 2 (same quarter-of-the-set proportion as 10-of-a-hundred
        # would be for clinical stores); the 5-iteration cadence drives
        # periodic cloud calls instead
        tracker=TrackerConfig(tracking_threshold=2),
        link=LinkModel(),
        sim=SimConfig(),
    )
    return EvaluationWorld(store_signals=store, streams=streams,
                           run_config=cfg)


# -- corpus file export ----------------------------------------------------

def write_corpus_csv(signals, out_dir, sample_rate_hz: int = dsp.SAMPLE_RATE_HZ):
    """One CSV per signal plus a JSON sidecar with its annotations.

    Samples are written as full-precision reprs so a read-back is
    bit-exact.
    """
    os.makedirs(out_dir, exist_ok=True)
    names = []
    for sig in signals:
        stem = f"signal_{sig.id:05d}"
        csv_path = os.path.join(out_dir, stem + ".csv")
        with open(csv_path, "w", encoding="utf-8") as fh:
            fh.write(f"# id={sig.id} tag={sig.dataset_tag} "
                     f"rate={sample_rate_hz}\n")
            for v in sig.samples:
                fh.write(repr(float(v)))
                fh.write("\n")
        meta = {
            "id": sig.id,
            "dataset_tag": sig.dataset_tag,
            "sample_rate_hz": sample_rate_hz,
            "spans": [[s, e, k] for s, e, k in sig.anomaly_spans],
            "onset_sample": sig.onset_sample,
        }
        with open(os.path.join(out_dir, stem + ".json"), "w",
                  encoding="utf-8") as fh:
            json.dump(meta, fh, indent=2, sort_keys=True)
            fh.write("\n")
        names.append(stem)
    return names
