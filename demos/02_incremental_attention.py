"""Incremental attention products versus from-scratch recomputation.

Two updates keep attention exact while touching only changed tokens:

  1. the query-key similarity matrix, the softmax's input (the queries
     carry its 1/sqrt(d_head), as in the library), gets its changed rows
     recomputed against all keys and its changed columns against all
     queries;
  2. the attention-value product is advanced by the aligned delta identity
     new = old + A_now dV + dA (V_now - dV), with the attention-side gate
     forced onto the value gate's indices.

Both stay within float rounding of a full recompute at a fraction of the
multiply-accumulates.
"""

import numpy as np

from tokengate import (
    CostLedger,
    DeltaGate,
    Policy,
    av_delta_update,
    qk_sparse_update,
    softmax_rows,
)
from tokengate.rng import SplitRng

rng = SplitRng(7)
n, dh, m = 64, 16, 8

# --- query-key similarity -------------------------------------------------
q, k = rng.normal((n, dh)) / np.sqrt(dh), rng.normal((n, dh))
b = q @ k.T                                   # frame 1: full product

idx = rng.choice_without_replacement(n, m)    # m tokens change on frame 2
q[idx] = rng.normal((m, dh)) / np.sqrt(dh)
k[idx] = rng.normal((m, dh))

ledger = CostLedger()
qk_sparse_update(b, q, k, idx, idx, ledger)   # changed rows, changed cols
print("similarity update")
print(f"  deviation from full recompute: {np.abs(b - q @ k.T).max():.2e}")
print(f"  MACs: {ledger.macs['qk']} (= 2*N*M*Dh) "
      f"vs {n * n * dh} from scratch")

# --- attention-value product ----------------------------------------------
policy = Policy("top_r", r=m)
ledger = CostLedger()
a_gate = DeltaGate(n, n, policy, ledger)      # tokens = columns of A
v_gate = DeltaGate(n, dh, policy)

attn = softmax_rows(b)
a_gate.overwrite(attn.T, np.arange(n))
_, u_v, _ = v_gate(rng.normal((n, dh)))
av = attn @ u_v                               # frame 1: full product

attn = softmax_rows(b)                        # frame 2's attention
v_idx, u_v, v_changes = v_gate(rng.normal((n, dh)))
# the update reads frame 2's attention only at the value gate's columns
av_delta_update(av, attn[:, v_idx], a_gate, v_idx, v_changes, u_v[v_idx],
                ledger)

print("attention-value update")
print(f"  deviation from reference product: "
      f"{np.abs(av - a_gate.u.T @ u_v).max():.2e}")
print(f"  MACs: {ledger.macs['av']} (= 2*M*N*Dh) "
      f"vs {n * n * dh} from scratch")
print(f"  extra adds tracked separately: {ledger.adds}")
