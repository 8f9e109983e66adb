"""Show that a change keeps the library's outputs bitwise equal to a parent checkout's.

    python3 scripts/compare_outputs.py --parent DIR

Steps one fixed grid of gated models in each checkout: the parent
(``--parent``) and this one.  Each side runs in a subprocess with
``PYTHONPATH=<checkout>/src`` and one BLAS thread, so both import their
own library and round alike.  The grid crosses the modes
``full``, ``spatial_pool`` at pool 2 and 4, ``tokenwise_only`` and
``stgt``; a ``top_r`` policy with a random budget on every frame and
threshold policies at 0.3 and 1.0; ``sparse_change`` and ``drift``
streams; seeds 0-2.  Every case has N = 64 tokens and 20 frames.  Per case
it hashes the tokens and scores of every frame (the outputs), the gated
ledger's per-frame records (the counts) and the tokens and scores of
``Model.baseline_frame`` on every frame (the oracle).  Prints every case
whose digests differ and exits 1 if any case's outputs or oracle differ:
a refactor keeps all three, while a counting fix may move the counts alone.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
N, D, HEADS, BLOCKS, FRAMES = 64, 16, 2, 2, 20
MODES = [("full", 1), ("spatial_pool", 2), ("spatial_pool", 4),
         ("tokenwise_only", 1), ("stgt", 1)]
POLICIES = [("top_r", None), ("threshold", 0.3), ("threshold", 1.0)]
CASES = [(mode, pool, kind, h, stream, seed)
         for mode, pool in MODES for kind, h in POLICIES
         for stream in ("sparse_change", "drift") for seed in range(3)]


def case_name(mode, pool, kind, h, stream, seed) -> str:
    model = mode if pool == 1 else f"{mode}{pool}"
    policy = kind if h is None else f"{kind}{h}"
    return f"{model}-{policy}-{stream}-s{seed}"


def budgets(seed: int) -> np.ndarray:
    """Per-frame budgets drawn here, not by the library under test: a
    quarter r = N, an eighth r = 0, the rest 1 to N/4, where the gated
    attention patches its state."""
    rng = np.random.default_rng(1000 + seed)
    kind = rng.integers(0, 8, FRAMES)
    return np.where(kind < 2, N, np.where(kind == 2, 0,
                                          rng.integers(1, N // 4 + 1, FRAMES)))


def case_digests(mode, pool, kind, h, stream, seed) -> tuple[str, str, str]:
    """SHA-256 of one case's outputs, of its gated ledger's records and of
    its oracle's outputs."""
    # imported here: the comparing process imports no library of its own
    from tokengate.block import Model, ModelConfig
    from tokengate.costs import CostLedger
    from tokengate.gates import Policy
    from tokengate.streams import StreamConfig, iter_stream

    policy = Policy("top_r", r=N) if h is None else Policy(kind, h=h)
    ledger = CostLedger()
    model = Model(ModelConfig(blocks=BLOCKS, n=N, d=D, heads=HEADS, mode=mode,
                              pool_p=pool, seed=seed, policy=policy), ledger)
    stream_cfg = StreamConfig(n=N, d=D, frames=FRAMES, mode=stream, rho=0.25,
                              sigma=1.0, eps=0.1, seed=100 + seed)
    schedule = budgets(seed) if h is None else None
    outputs, oracle = hashlib.sha256(), hashlib.sha256()
    for t, frame in enumerate(itertools.islice(iter_stream(stream_cfg), FRAMES)):
        if schedule is not None:
            model.set_budget(int(schedule[t]))
        for digest, outs in ((outputs, model.step(frame)),
                             (oracle, model.baseline_frame(frame))):
            for out in outs:
                digest.update(np.asarray(out).tobytes())
    counts = hashlib.sha256(json.dumps(ledger.frames, sort_keys=True).encode())
    return outputs.hexdigest(), counts.hexdigest(), oracle.hexdigest()


def print_digests(cases: list) -> None:
    """The subprocess side: every case's digests as one JSON object."""
    print(json.dumps({case_name(*case): case_digests(*case) for case in cases}))


def grid_digests(checkout: Path) -> dict:
    """Run the grid (``CASES``) against ``checkout``'s library in a subprocess."""
    code = (f"import sys; sys.path.insert(0, {str(Path(__file__).parent)!r}); "
            f"import compare_outputs; compare_outputs.print_digests({CASES!r})")
    env = {**os.environ, "PYTHONPATH": str(checkout / "src"),
           "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
           "MKL_NUM_THREADS": "1"}
    proc = subprocess.run([sys.executable, "-c", code], cwd=checkout, env=env,
                          capture_output=True, text=True)
    if proc.returncode:
        raise RuntimeError(f"the grid failed in {checkout}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    args = parser.parse_args(argv)
    for checkout in (args.parent, ROOT):
        if not (checkout / "src" / "tokengate").is_dir():
            parser.error(f"{checkout} holds no src/tokengate")
    parent, change = grid_digests(args.parent), grid_digests(ROOT)
    moved = {"outputs": 0, "counts": 0, "oracle": 0}
    for name, digests in change.items():
        differ = [what for what, new, old in zip(moved, digests, parent[name])
                  if new != old]
        for what in differ:
            moved[what] += 1
        if differ:
            print(f"{name}: {' and '.join(differ)} differ")
    print(f"{len(change)} cases: outputs differ in {moved['outputs']}, "
          f"oracle in {moved['oracle']}, counts in {moved['counts']}")
    return 1 if moved["outputs"] or moved["oracle"] else 0


if __name__ == "__main__":
    sys.exit(main())
