"""Repair non-admissible weights with the retraction flow.

Asymmetric weights generally leave a residual in the balance equations.
The flow grows selected weights, each at most exponentially, gated so
that only edges pointing against the shared residual direction move.
Energy falls strictly at every accepted step; the run below prints the
trace and then re-embeds with the repaired weights.
"""

from pathlib import Path

import numpy as np

from torustutte import (
    WeightAssignment,
    balance_energy,
    flow_constants,
    gen_grid,
    retract,
    tutte_map,
    verify_embedding,
)
from torustutte.serialize import trace_to_jsonl

OUT = Path(__file__).resolve().parent / "out"
OUT.mkdir(exist_ok=True)

mesh, _ = gen_grid(3)
rng = np.random.default_rng(42)
values = rng.uniform(0.5, 2.0, size=2 * mesh.edge_count)
weights = WeightAssignment(values)

print(f"start energy {balance_energy(mesh, weights):.6e}")
constants = flow_constants(mesh, weights)
print(f"guaranteed decay rate, in log form, which stays finite at every size: "
      f"log rate {constants.log_decay_rate:.3f}, log time bound {constants.log_time_bound:.3f}")

trace = retract(mesh, weights)
print(f"\nstatus {trace.status} after {trace.steps} steps "
      f"(t = {trace.samples[-1].t:.3f})\n")

print(f"{'t':>10}  {'energy':>12}  {'min w':>8}  {'asym':>8}")
stride = max(1, len(trace.samples) // 12)
shown = list(trace.samples[::stride])
if shown[-1] is not trace.samples[-1]:
    shown.append(trace.samples[-1])
for s in shown:
    print(f"{s.t:10.4f}  {s.energy:12.4e}  {s.min_weight:8.4f}  "
          f"{s.asym_bound:8.4f}")

path = OUT / "retraction_trace.jsonl"
trace_to_jsonl(trace, path)
print(f"\nwrote {path}")

placement = tutte_map(mesh, trace.final_weights)
report = verify_embedding(mesh, placement)
print(f"repaired weights embed: {report.is_embedding} "
      f"(min face area {report.min_area:.4f})")
