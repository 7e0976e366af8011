"""
Edge tracking and the anomaly probability
=========================================

After the cloud returns its top-100 correlated slices, the edge keeps
only a cursor per candidate and advances it one 256-sample window per
second. Candidates whose stored continuation drifts from the live
signal are removed; the anomalous share of the survivors is the
anomaly probability P_A.
"""

import tempfile

from emap import scenarios
from emap.cloud_search import sliding_search
from emap.dsp import SignalWindow, WINDOW_LEN
from emap.edge_tracker import init_tracker, needs_cloud_call, tracker_step
from emap.mdb import build_store

# a corpus built so the initial set is 22% anomalous and normal
# look-alikes die off on a fixed schedule
sc = scenarios.probability_growth_scenario()
with tempfile.TemporaryDirectory(prefix="emap_demo_") as workdir:
    store = build_store(sc.store_signals, workdir + "/store")


def window(i):
    seg = sc.live.samples[i * WINDOW_LEN:(i + 1) * WINDOW_LEN]
    return SignalWindow(samples=seg, timestep_index=i)


res = sliding_search(window(0), store, sc.search_cfg)
state = init_tracker(res, store, sc.tracker_cfg)
n_anom = sum(c.label for c in state.tracked)
print(f"initial set: {len(state.tracked)} candidates, "
      f"{n_anom} anomalous -> P_A = {state.pa_history[0]:.2f}")

print("\niter  alive  removed  P_A    classification      cloud call")
for i in range(1, 6):
    rep = tracker_step(state, window(i), store)
    call = rep.cloud_call or ""
    print(f"  {rep.iteration}   {rep.alive:>4}  {len(rep.removed_dissimilar):>6}"
          f"   {rep.p_anomaly:.3f}  {rep.classification:<18}  {call}")

# normal matches decay, anomalous ones persist, so P_A climbs
print(f"\nP_A history: "
      f"{' -> '.join(f'{p:.2f}' for p in state.pa_history)}")
print(f"needs refresh now (alive={state.reports[-1].alive}, "
      f"iteration_in_set={state.iteration_in_set}): "
      f"{needs_cloud_call(state) or 'no'}")

# one removal, replayed by hand: the area between the live window and
# the candidate's stored continuation crossed the threshold
rep = state.reports[-1]
last_removed = (rep.removed_dissimilar or state.reports[-2].removed_dissimilar)
if last_removed:
    r = last_removed[0]
    print(f"\nexample removal: set {r.set_id} at cursor {r.cursor}, "
          f"area {r.area:.0f} > threshold {sc.tracker_cfg.area_threshold:.0f}")
