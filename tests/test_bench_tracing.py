"""The benchmark's tracer binds to names the program must keep.

`perfbench/tracing.py` wraps layer boundaries by replacing module and
class attributes, and puts the originals back afterwards. Installing
and uninstalling it here, in milliseconds, catches a renamed or deleted
binding before the slow benchmark smoke test would.
"""

import importlib.util
from pathlib import Path

from emap import cloud_search, dsp, edge_tracker, mdb, orchestrator

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_restores_every_binding():
    tracing = load_tracing()
    owners = (cloud_search, dsp, edge_tracker, mdb, orchestrator, mdb.MdbStore)
    before = [dict(vars(o)) for o in owners]
    tracer = tracing.install(tracing.Tracer())
    try:
        assert orchestrator.sliding_search is not cloud_search.sliding_search
        assert mdb.MdbStore.__dict__["load"] is not before[-1]["load"]
    finally:
        tracer.uninstall()
    assert orchestrator.sliding_search is cloud_search.sliding_search
    assert mdb.MdbStore.__dict__["get_slice"] is before[-1]["get_slice"]
    assert mdb.MdbStore.__dict__["load"] is before[-1]["load"]
    for owner, attrs in zip(owners, before):
        assert dict(vars(owner)) == attrs, owner
