"""Compare this checkout's benchmark with a parent checkout's, in alternating pairs.

    python3 scripts/compare_bench.py --parent DIR --seeds 601,602,603,604,605
    python3 scripts/compare_bench.py --parent DIR --seeds 601,602 --workload hires-sparse
    python3 scripts/compare_bench.py --parent DIR --seeds 601,602 --trace

Runs one pair per seed and workload through ``record_bench.run_bench``: the
parent checkout (``--parent``) and this one (or ``--change DIR``), the
parent first in even pairs and the change first in odd ones, so that a
drift in the machine's speed favours neither side.  Workloads (all of
them, or each ``--workload``), end-to-end metrics and their bounds come
from the change's ``BENCHMARK.json``, and every run lasts its
``run_seconds``, as in ``record_bench.py``.  Prints, for each workload
and metric, each side's median and quartiles, the relative change of the
median, how many pairs the change won (and tied), whether the medians
differ by more than the parent's interquartile range, and WORSE where
the change's median is worse than the parent's by more than the metric's
bound.  Also prints how many runs on each side failed their correctness
checks.  ``--trace`` runs every run traced and compares the per-layer
metrics of ``BENCHMARK.json`` instead, which have no bound, to show where
a change's time goes.  ``--out FILE`` writes every run's metrics as JSON.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

import record_bench  # noqa: E402

SIDES = ("parent", "change")


def run_pairs(workloads, seeds, seconds, runners) -> dict:
    """Run each workload at each seed on both sides through ``runners[side]
    (workload, seed, seconds) -> (report, result)``, alternating which side
    goes first; returns every result by workload and side, in seed order."""
    if not seeds:
        raise ValueError("need at least one seed")
    doc = {"seeds": list(seeds), "seconds": seconds, "workloads": {}}
    for workload in workloads:
        results = {side: [] for side in SIDES}
        for pair, seed in enumerate(seeds):
            for side in (SIDES if pair % 2 == 0 else SIDES[::-1]):
                results[side].append(runners[side](workload, seed, seconds)[1])
        doc["workloads"][workload] = results
    return doc


def compare_metric(parent, change, better: str, bound: float) -> dict:
    """Both sides' summaries of one metric's per-pair values, the pairs the
    change won and tied, and the verdicts on its median."""
    parent, change = np.asarray(parent, float), np.asarray(change, float)
    sign = 1.0 if better == "lower" else -1.0
    gain = sign * (parent - change)          # > 0 where the change is better
    p, c = record_bench.summarize(parent), record_bench.summarize(change)
    diff = c["median"] - p["median"]
    if p["median"]:
        rel_change = diff / abs(p["median"])
    else:
        rel_change = math.copysign(math.inf, diff) if diff else 0.0
    return {"parent": p, "change": c, "rel_change": rel_change,
            "won": int((gain > 0).sum()), "tied": int((gain == 0).sum()),
            "beyond_iqr": abs(diff) > p["q3"] - p["q1"],
            "worse": bool(sign * diff > bound * abs(p["median"]))}


def compare(doc: dict, metrics) -> dict:
    """Every workload's ``compare_metric`` for each metric (a metric without
    a bound is never worse than it), plus each side's runs that failed
    their checks."""
    out = {}
    for workload, results in doc["workloads"].items():
        rows = {}
        for metric in metrics:
            name = metric["name"]
            values = {side: [r["metrics"][name]["value"] for r in results[side]]
                      for side in SIDES}
            rows[name] = compare_metric(values["parent"], values["change"],
                                        metric["better"],
                                        metric.get("bound", math.inf))
        out[workload] = {
            "incorrect": {side: sum(not r["correct"] for r in results[side])
                          for side in SIDES},
            "metrics": rows,
        }
    return out


def _quartiles(s: dict) -> str:
    return f"{s['median']:.4g} [{s['q1']:.4g}, {s['q3']:.4g}]"


def format_report(comparison: dict, pairs: int) -> str:
    lines = []
    for workload, entry in comparison.items():
        bad = entry["incorrect"]
        width = max([20, *map(len, entry["metrics"])])
        lines.append(f"{workload}: {pairs} pairs; runs failing their checks: "
                     f"parent {bad['parent']}, change {bad['change']}")
        lines.append(f"  {'metric':<{width}} {'parent median [q1, q3]':<34} "
                     f"{'change median [q1, q3]':<34} {'change':>8}  "
                     f"{'won':>6} {'tied':>5}  beyond IQR")
        for name, row in entry["metrics"].items():
            lines.append(
                f"  {name:<{width}} {_quartiles(row['parent']):<34} "
                f"{_quartiles(row['change']):<34} {row['rel_change']:>+8.2%}  "
                f"{row['won']:>3}/{pairs:<2} {row['tied']:>5}  "
                f"{'yes' if row['beyond_iqr'] else 'no':<3}"
                f"{'  WORSE than its bound' if row['worse'] else ''}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True,
                        help="root of the parent commit's checkout")
    parser.add_argument("--change", type=Path, default=record_bench.ROOT,
                        help="root of the changed checkout (this one by default)")
    parser.add_argument("--seeds", required=True,
                        help="comma-separated seeds, one pair each")
    parser.add_argument("--workload", action="append",
                        help="a workload to run (repeatable; all by default)")
    parser.add_argument("--trace", action="store_true",
                        help="run traced and compare the per-layer metrics")
    parser.add_argument("--out", type=Path, help="write every run's metrics here")
    args = parser.parse_args(argv)
    try:
        seeds = [int(seed) for seed in args.seeds.split(",")]
    except ValueError:
        parser.error(f"--seeds must be comma-separated integers, got {args.seeds!r}")
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    known = [workload["name"] for workload in spec["workloads"]]
    workloads = args.workload or known
    unknown = sorted(set(workloads) - set(known))
    if unknown:
        parser.error(f"unknown workload(s) {unknown}; BENCHMARK.json lists {known}")
    checkouts = {"parent": args.parent, "change": args.change}
    runners = {side: (lambda workload, seed, secs, root=root:
                      record_bench.run_bench(root, workload, seed, secs, args.trace))
               for side, root in checkouts.items()}
    doc = run_pairs(workloads, seeds, spec["run_seconds"], runners)
    comparison = compare(doc, spec["per_layer" if args.trace else "end_to_end"])
    print(format_report(comparison, len(seeds)))
    if args.out:
        args.out.write_text(json.dumps(
            {**doc, "trace": args.trace,
             "checkouts": {side: str(root) for side, root in checkouts.items()},
             "comparison": comparison}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
