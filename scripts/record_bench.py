"""Record the benchmark's end-to-end metrics over several seeds.

    python3 scripts/record_bench.py --label seed --seeds 401,402,403,404,405
    python3 scripts/record_bench.py --label seed --seeds 401,402 --checkout DIR

Runs ``python3 bench/run.py --workload W --seed S --seconds T --trace 0``
from the root of a checkout (this one unless ``--checkout`` names another),
once per seed for each workload that checkout's ``BENCHMARK.json`` lists,
one run at a time.  T is that file's ``run_seconds``, so every trajectory
file is recorded at the run length the benchmark fixes and they compare
with each other.  Writes ``BENCH_<label>.json`` into ``--out-dir`` (the
current directory by default): for each workload and end-to-end metric its
unit, median, quartiles and per-seed values, the runs whose correctness
checks failed, the seeds, the run length and the environment from the
first run's side report.  Quartiles are numpy's linear-interpolation
percentiles 25 and 75.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


def run_bench(checkout: Path, workload: str, seed: int, seconds: float,
              trace: bool = False) -> tuple[dict, dict]:
    """One benchmark run, traced if ``trace`` (its result then holds the
    per-layer metrics); returns its side report and its result."""
    command = [sys.executable, "bench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(int(trace))]
    proc = subprocess.run(command, cwd=checkout, capture_output=True,
                          text=True)
    lines = proc.stdout.strip().splitlines()
    if len(lines) < 2:
        raise RuntimeError(f"{workload} seed {seed} printed no result "
                           f"(exit {proc.returncode}): {proc.stderr[-2000:]}")
    return json.loads(lines[-2])["report"], json.loads(lines[-1])


def summarize(values) -> dict:
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"median": float(median), "q1": float(q1), "q3": float(q3),
            "values": [float(v) for v in values]}


def record(workloads, seeds, seconds, runner) -> dict:
    """Run every workload at every seed through ``runner(workload, seed,
    seconds) -> (report, result)`` and aggregate each metric over seeds."""
    if not seeds:
        raise ValueError("need at least one seed")
    doc = {"seeds": list(seeds), "seconds": seconds, "env": None,
           "workloads": {}}
    for workload in workloads:
        results = []
        for seed in seeds:
            report, result = runner(workload, seed, seconds)
            if doc["env"] is None:
                doc["env"] = report.get("env")
            results.append(result)
        metrics = {}
        for name, metric in results[0]["metrics"].items():
            metrics[name] = {"unit": metric["unit"], **summarize(
                [result["metrics"][name]["value"] for result in results])}
        doc["workloads"][workload] = {
            "incorrect_seeds": [seed for seed, result in zip(seeds, results)
                                if not result["correct"]],
            "metrics": metrics,
        }
    return doc


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--seeds", required=True,
                        help="comma-separated seeds, e.g. 401,402,403")
    parser.add_argument("--checkout", type=Path, default=ROOT)
    parser.add_argument("--out-dir", type=Path, default=Path("."))
    args = parser.parse_args(argv)
    try:
        seeds = [int(seed) for seed in args.seeds.split(",")]
    except ValueError:
        parser.error(f"--seeds must be comma-separated integers, got {args.seeds!r}")
    spec = json.loads((args.checkout / "BENCHMARK.json").read_text())
    workloads = [workload["name"] for workload in spec["workloads"]]
    doc = {"label": args.label, **record(
        workloads, seeds, spec["run_seconds"],
        lambda workload, seed, secs: run_bench(args.checkout, workload, seed, secs))}
    out = args.out_dir / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
