"""Benchmark launcher.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Pins every BLAS and OpenMP pool to one
thread before numpy is first imported, imports ``tokengate`` from the
checkout's ``src/``, runs one workload and prints two JSON lines: a side
report (raw milliseconds, calibration, environment) and, last, the result
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` gives the
end-to-end metrics, ``--trace 1`` the per-layer ones.  Exits non-zero when
any correctness check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    src = ROOT / "src"
    if not (src / "tokengate" / "__init__.py").is_file():
        print(f"error: no tokengate sources under {src}", file=sys.stderr)
        return 2

    # BLAS reads these once, when numpy first loads it
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(src))
    import core
    if args.workload not in core.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(core.WORKLOADS)}")

    outcome = core.run(core.WORKLOADS[args.workload], args.seed, args.seconds,
                       trace=bool(args.trace))
    print(json.dumps({"report": outcome.report}))
    print(json.dumps(outcome.result()))
    if not outcome.correct:
        print("correctness checks failed: " + "; ".join(outcome.problems[:5]),
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
