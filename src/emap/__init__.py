"""Cloud-edge anomaly prediction for streamed EEG.

The package splits the pipeline the way the deployment does: `dsp` holds
the shared signal primitives, `mdb` builds and serves the labeled signal
database, `cloud_search` runs the correlation search over it,
`edge_tracker` follows the returned candidates in real time on the cheap
area metric, `orchestrator` ties both sides together under a simulated
link, and `scenarios` generates the synthetic worlds used for tests,
demos and evaluation.
"""

from .dsp import (
    SAMPLE_RATE_HZ,
    WINDOW_LEN,
    DegenerateSignalError,
    SignalWindow,
    apply_filter,
    area_between,
    design_bandpass,
    resample,
    xcorr,
)
from .mdb import (
    SLICE_LEN,
    CsvFormatError,
    MdbStore,
    SignalSet,
    SourceSignal,
    build_store,
    get_parent_segment,
    ingest_csv,
)
from .cloud_search import (
    Candidate,
    SearchConfig,
    SearchResult,
    alpha_sweep,
    exhaustive_search,
    sliding_search,
    sliding_search_many,
)
from .edge_tracker import (
    IterationReport,
    TrackerConfig,
    TrackerState,
    classify,
    init_tracker,
    needs_cloud_call,
    swap_in,
    tracker_step,
)
from .orchestrator import (
    LinkModel,
    RunConfig,
    RunOutcome,
    SimConfig,
    evaluate_batch,
    run_stream,
)
from .scenarios import synth_corpus

__all__ = [
    "SAMPLE_RATE_HZ",
    "WINDOW_LEN",
    "SLICE_LEN",
    "DegenerateSignalError",
    "CsvFormatError",
    "SignalWindow",
    "design_bandpass",
    "apply_filter",
    "resample",
    "xcorr",
    "area_between",
    "SourceSignal",
    "SignalSet",
    "MdbStore",
    "ingest_csv",
    "synth_corpus",
    "build_store",
    "get_parent_segment",
    "SearchConfig",
    "SearchResult",
    "Candidate",
    "sliding_search",
    "sliding_search_many",
    "exhaustive_search",
    "alpha_sweep",
    "TrackerConfig",
    "TrackerState",
    "IterationReport",
    "init_tracker",
    "tracker_step",
    "needs_cloud_call",
    "swap_in",
    "classify",
    "LinkModel",
    "SimConfig",
    "RunConfig",
    "RunOutcome",
    "run_stream",
    "evaluate_batch",
    "__version__",
]

__version__ = "0.1.0"
