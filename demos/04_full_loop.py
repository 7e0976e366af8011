"""
The full cloud-edge loop, simulated
===================================

One stream at a time: the edge samples a window, ships it uplink, the
cloud searches, the result rides back downlink, and tracking begins.
Later calls overlap with tracking, so the edge never stalls. A batch
evaluation then scores predictions over 40 streams whose signals are
disjoint from the store.
"""

import tempfile

from emap import scenarios
from emap.mdb import build_store
from emap.orchestrator import evaluate_batch, run_stream

world = scenarios.evaluation_world()          # 20 anomalous + 20 normal
with tempfile.TemporaryDirectory(prefix="emap_demo_") as workdir:
    store = build_store(world.store_signals, workdir + "/store")
cfg = world.run_config

# --- one anomalous stream, end to end ----------------------------------------
live = next(s for s in world.streams if s.anomaly_spans)
out = run_stream(live, store, cfg.search, cfg.tracker, cfg.link, cfg.sim)

t = out.timing
print(f"initial overhead: uplink {t.delta_ec_us} us + search "
      f"{t.delta_cs_us} us + downlink {t.delta_ce_us} us "
      f"= {t.delta_initial_us / 1e6:.3f} s")

print("\nfirst timeline events:")
for ev in out.timeline[:8]:
    print(f"  t={ev.t_sim_us / 1e6:7.3f}s  {ev.kind}")

hit = out.prediction
onset_s = live.onset_sample / 256.0
print(f"\nground-truth onset at t={onset_s:.0f}s")
if hit:
    print(f"anomaly predicted at t={hit[1]:.0f}s "
          f"(iteration {hit[0]}), lead time "
          f"{out.lead_time_s:.1f}s")
else:
    print("no prediction before the stream ended")

# --- batch evaluation ---------------------------------------------------------
# disjointness between store and evaluation corpus is enforced, so a
# leaked signal fails loudly instead of inflating accuracy
table = evaluate_batch(world.streams, store, cfg.search, cfg.tracker,
                       cfg.link, cfg.sim)
print("\nbatch  kind     n  accuracy  false_pos  mean_lead_s")
for row in table.rows:
    lead = "-" if row.mean_lead_time_s is None else f"{row.mean_lead_time_s:.1f}"
    print(f"{row.batch:>5}  {row.anomaly_kind:<7} {row.n:>2}  "
          f"{row.accuracy:>8.2f}  {row.false_positive_rate:>9.2f}  {lead:>11}")
