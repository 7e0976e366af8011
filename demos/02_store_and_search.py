"""
Building a store and searching it two ways
==========================================

The cloud tier keeps reference EEG as 1000-sample labeled slices and
answers "which 100 slices best match this one second of live signal".
The exponential sliding scan answers almost exactly what the
brute-force scan answers, at a fraction of the comparisons.
"""

import tempfile

from emap import scenarios
from emap.cloud_search import SearchConfig, exhaustive_search, sliding_search
from emap.mdb import build_store

# a seeded 200-slice corpus with planted matches for 20 query windows
corpus = scenarios.parity_corpus()
# loading reads the payload into memory, so the files can go at once
with tempfile.TemporaryDirectory(prefix="emap_demo_") as workdir:
    store = build_store(corpus.store_signals, workdir + "/store")
print(f"store: {store.num_slices} slices of 1000 samples")

cfg = SearchConfig()          # alpha=0.004, delta=0.8, top 100
q = corpus.queries[0]

# --- one query, both scans ---------------------------------------------------
fast = sliding_search(q, store, cfg, record_trace=True)
slow = exhaustive_search(q, store, cfg)
print(f"\nsliding:    {fast.comparisons_made:>7} comparisons, "
      f"{len(fast.candidates)} candidates")
print(f"exhaustive: {slow.comparisons_made:>7} comparisons, "
      f"{len(slow.candidates)} candidates")
print("top 3 candidates (set_id, offset, omega):")
for c in fast.candidates[:3]:
    print(f"  set {c.set_id:>3}  beta {c.beta:>3}  omega {c.omega:.6f}")

# --- how the scan moves ------------------------------------------------------
# The step grows exponentially as similarity drops: at omega <= 0 the
# scan jumps 250 samples, near omega = 1 it creeps sample by sample.
buckets = {"1 (locked on)": 0, "2-49": 0, "50-249": 0, "250 (max jump)": 0}
for _sid, _beta, _omega, _clamped, step in fast.trace:
    if step == 1:
        buckets["1 (locked on)"] += 1
    elif step < 50:
        buckets["2-49"] += 1
    elif step < 250:
        buckets["50-249"] += 1
    else:
        buckets["250 (max jump)"] += 1
print("\nscan step sizes over the whole store:")
for name, count in buckets.items():
    print(f"  step {name:<15} {count:>5} visits")

# --- quality parity over all 20 queries --------------------------------------
total_fast = total_slow = 0
mean_fast = mean_slow = 0.0
for q in corpus.queries:
    f = sliding_search(q, store, cfg)
    s = exhaustive_search(q, store, cfg)
    total_fast += f.comparisons_made
    total_slow += s.comparisons_made
    mean_fast += sum(c.omega for c in f.candidates) / len(f.candidates)
    mean_slow += sum(c.omega for c in s.candidates) / len(s.candidates)
print(f"\nover 20 queries: {total_slow / total_fast:.0f}x fewer comparisons, "
      f"mean omega {mean_fast / 20:.4f} (sliding) vs "
      f"{mean_slow / 20:.4f} (exhaustive)")
