"""Token gating on a drifting sequence.

A gate keeps one reference row per token and recomputes only the tokens
whose input has moved furthest from that reference.  With a budget of r=1
on four slowly drifting tokens, the selection rotates: every token gets its
turn once its accumulated drift tops the others.  A buffer downstream keeps
the full-shape result patched together from the partial updates.
"""

import numpy as np

from tokengate import Buffer, Gate, Policy

n, width = 4, 2
drift = np.array([0.06, 0.08])  # each token moves by norm 0.1 per frame

gate = Gate(n, width, Policy("top_r", r=1))
buf = Buffer(n, width)

base = np.arange(n * width, dtype=float).reshape(n, width)
idx, picked = gate(base)                       # first call: every token vs zero
buf(idx, picked * 10)                          # pretend downstream op: x10
print(f"frame 1 (first call): selected {idx.tolist()}")

for t in range(1, 9):
    frame = base + t * drift
    idx, picked = gate(frame)
    full = buf(idx, picked * 10)
    staleness = np.linalg.norm(gate.u - frame, axis=1)
    print(f"frame {t + 1}: selected {idx.tolist()}  "
          f"per-token staleness {np.round(staleness, 2).tolist()}")

print("\nbuffer holds the most recent downstream value of every token:")
print(np.round(full, 2))

# The same drift through a threshold policy: selection size adapts to the
# amount of change instead of being pinned to a budget.
gate_h = Gate(n, width, Policy("threshold", h=0.25))
gate_h(base)
for t in range(1, 5):
    idx, _ = gate_h(base + t * drift)
    print(f"threshold policy, frame {t + 1}: selected {idx.tolist()}")
