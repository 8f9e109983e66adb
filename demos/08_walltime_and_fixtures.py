"""Measured wall time, and stream fixtures any implementation can read.

At a size where the products dominate, skipping seven of every eight
tokens shows up directly in the per-frame wall clock, warm-up excluded.
The frames themselves can be exported as a zip of named tensors (JSON
manifest + raw little-endian float32) so other implementations can run the
identical stream.
"""

import tempfile
from pathlib import Path

import numpy as np

from tokengate import ModelConfig, Policy, StreamConfig, gen_stream, measure_walltime
from tokengate.archive import export_stream, import_stream

n, d = 256, 128
model = ModelConfig(blocks=4, n=n, d=d, heads=4, seed=0,
                    policy=Policy("top_r", r=n // 8))
stream = StreamConfig(n=n, d=d, frames=6, mode="sparse_change", rho=0.1,
                      sigma=1.0, seed=1)

table = measure_walltime(model, stream, repetitions=3)
print(f"median ms/frame at N={n}, D={d}, 4 blocks, budget N/8:")
for variant, ms in table.items():
    print(f"  {variant:>15s}: {ms:7.2f}")

frames = gen_stream(stream)
with tempfile.TemporaryDirectory() as out:
    path = Path(out) / "stream_fixture.zip"
    export_stream(path, frames)
    loaded = import_stream(path)
print(f"\nwrote {path.name} ({frames.shape[0]} frames); "
      f"round-trip max dev {np.abs(frames - loaded).max():.1e} "
      f"(float32 storage)")
