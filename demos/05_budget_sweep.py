"""Accuracy-compute tradeoff: sweeping the token budget.

One paired run per budget on the same stream; each row reports the mean
output error against the exact oracle, the measured steady-state MACs, and
the savings ratio.  Error falls and cost rises with the budget.  At the
full budget the output equals the oracle's and the attention products cost
what the oracle's do; only the gates' norm evaluations are extra, so the
ratio sits just below one.
"""

import tempfile
from pathlib import Path

from tokengate import ModelConfig, Policy, StreamConfig, sweep_budget
from tokengate.harness import write_sweep_csv

model = ModelConfig(blocks=2, n=16, d=8, heads=2, seed=5,
                    policy=Policy("top_r", r=4))
stream = StreamConfig(n=16, d=8, frames=20, mode="sparse_change", rho=0.1,
                      sigma=1.0, seed=6)

rows = sweep_budget(model, stream, r_values=[1, 2, 4, 8, 12, 16])
print(f"{'r':>3} {'mean rel err':>14} {'steady MACs':>12} {'savings':>8}")
for row in rows:
    print(f"{row['r']:>3} {row['mean_rel_l2_error']:>14.3e} "
          f"{row['steady_macs_total']:>12d} {row['savings_ratio']:>8.2f}")

with tempfile.TemporaryDirectory() as out:
    path = Path(out) / "sweep.csv"
    write_sweep_csv(rows, path)
    print(f"\nwrote {path.name} ({len(path.read_text().splitlines())} lines)")
