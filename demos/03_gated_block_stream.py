"""A gated transformer block tracking a sparse-change stream.

Each frame redraws a handful of token rows; the gated block recomputes only
what its gates select.  At full budget the output matches the exact block
to float rounding; at a quarter of the tokens the error stays moderate
while the work drops.  The budget is a live knob: dropping it to zero
freezes the block, raising it back recovers accuracy on the next frames.
"""

import numpy as np

from tokengate import (
    GatedBlock,
    ModelConfig,
    Policy,
    StreamConfig,
    block_baseline,
    gen_stream,
    init_model_weights,
)

n, d = 16, 8
weights = init_model_weights(ModelConfig(blocks=1, n=n, d=d, heads=2, seed=3))
frames = gen_stream(StreamConfig(n=n, d=d, frames=10, mode="sparse_change",
                                 rho=0.25, sigma=1.0, seed=9))

for r in (n, n // 4):
    block = GatedBlock(weights.blocks[0], n, Policy("top_r", r=r))
    errs = []
    for frame in frames:
        got = block.step(frame)
        want = block_baseline(frame, weights.blocks[0])
        errs.append(np.linalg.norm(got - want) / np.linalg.norm(want))
    print(f"budget r={r:2d}: per-frame rel err "
          f"{['%.1e' % e for e in errs]}")

print("\nlive budget schedule (selection counts follow within one frame):")
block = GatedBlock(weights.blocks[0], n, Policy("top_r", r=n))
for frame, r in zip(frames, [n, n, 4, 4, 0, 0, n, n, n, n]):
    block.policy.set_budget(r)
    block.step(frame)
    print(f"  budget {r:2d} -> tokens recomputed "
          f"{block.selected_counts()['selected_qkv']:2d}")
