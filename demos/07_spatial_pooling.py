"""Combining temporal gating with spatial key/value pooling.

Keys and values are mean-pooled on the token grid after their buffers, so
attention runs N queries against N/p^2 keys.  The active-token mask is
max-pooled onto the same grid to decide which pooled columns to refresh.
Temporal and spatial reduction compose: the incremental updates now operate
on the smaller key/value axis.
"""

import numpy as np

from tokengate import (
    Model,
    ModelConfig,
    Policy,
    StreamConfig,
    gen_stream,
    pool_index_set,
    pool_tokens,
)
from tokengate.rng import SplitRng

# the pooling primitive on a 4x4 grid
rng = SplitRng(1)
k = rng.normal((16, 4))
v = rng.normal((16, 4))
mask = np.array([5, 6])                     # active tokens, middle of the grid
kp, vp = pool_tokens(k, grid=4, pool=2), pool_tokens(v, grid=4, pool=2)
pooled_mask = pool_index_set(mask, grid=4, pool=2)
print(f"16 tokens pool to {kp.shape[0]}; active {mask.tolist()} "
      f"-> pooled columns {pooled_mask.tolist()}")

# a pooled gated model against its pooled oracle
n = 16
cfg = ModelConfig(blocks=2, n=n, d=8, heads=2, seed=2, mode="spatial_pool",
                  pool_p=2, policy=Policy("top_r", r=4))
model = Model(cfg)
frames = gen_stream(StreamConfig(n=n, d=8, frames=8, mode="sparse_change",
                                 rho=0.25, sigma=1.0, seed=3))
print("\npooled gated model vs pooled exact oracle (budget 4 of 16):")
for t, frame in enumerate(frames):
    tokens, _ = model.step(frame)
    exact, _ = model.baseline_frame(frame)
    err = np.linalg.norm(tokens - exact) / np.linalg.norm(exact)
    print(f"  frame {t}: rel err {err:.3e}")
